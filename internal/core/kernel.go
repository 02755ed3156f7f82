package core

import (
	"fmt"
	"math/bits"
	"sync"

	"imdist/internal/graph"
)

// Kernel selects the coverage-counting implementation behind the oracle's
// query path — Influence, BatchInfluence, GreedySeeds and (through them)
// everything the server and the facade expose. Both kernels compute the exact
// same integer coverage counts, so every Kernel value returns byte-identical
// answers; the knob trades memory for raw scan speed:
//
//   - KernelEpoch walks the int-slice membership lists with an epoch-stamped
//     mark array — the reference implementation, O(Σ|memberOf[seed]|) random
//     accesses per query and no extra memory.
//   - KernelBitpack scans a dense bit matrix of RR-set × vertex incidence
//     ([]uint64 words, cache-blocked to the batch engine's shard size) and
//     counts coverage with popcount. A query costs |seeds|·R/64 sequential
//     word operations, so it wins whenever membership is dense (RR sets touch
//     more than ~1/64 of the vertices on average) at the price of n·R/8 bytes
//     for the packed index, built lazily on first use.
//   - KernelAuto (the default) picks bitpack exactly when the packed index
//     costs at most BitpackAutoMemFactor× the memory of the int-slice
//     adjacency it shadows — which is the same density regime where the
//     popcount scan also wins on time — and stays on epoch otherwise.
type Kernel string

// The three kernel selection policies. The zero value ("") behaves as
// KernelAuto everywhere a Kernel is consumed.
const (
	KernelAuto    Kernel = "auto"
	KernelEpoch   Kernel = "epoch"
	KernelBitpack Kernel = "bitpack"
)

// ParseKernel validates a kernel name from a flag or config field. The empty
// string parses as KernelAuto so zero-valued configs keep the default.
func ParseKernel(s string) (Kernel, error) {
	switch Kernel(s) {
	case "":
		return KernelAuto, nil
	case KernelAuto, KernelEpoch, KernelBitpack:
		return Kernel(s), nil
	}
	return "", fmt.Errorf("core: unknown kernel %q (want auto, epoch or bitpack)", s)
}

// BitpackAutoMemFactor bounds how much memory KernelAuto will spend on the
// packed index relative to the int-slice adjacency it shadows. Packed bytes
// are n·R/8 and adjacency bytes are 4·Σ|set|, so the factor-of-2 threshold is
// exactly membership density 1/64 — one set bit per accumulator word, the
// break-even point of the popcount scan against the epoch walk.
const BitpackAutoMemFactor = 2

// bitpackAutoMaxBytes caps the packed index KernelAuto will build without
// being asked (an explicit KernelBitpack builds any size). Dense regimes keep
// packed and adjacency sizes comparable, so the cap only guards genuinely
// enormous oracles from a surprise allocation.
const bitpackAutoMaxBytes = 1 << 31

// bitMatrix is the packed RR-set × vertex incidence index behind
// KernelBitpack: bit i of row v is set iff RR set i contains vertex v, so
// the RR sets covered by a seed set are the OR of its rows and the coverage
// count is a popcount. Rows are split into blocks of shardSize RR sets laid
// out block-major — all rows of block 0, then all rows of block 1 — matching
// the batch engine's sharding, so both the full-range scan and a per-shard
// scan walk one contiguous row segment per (vertex, block) and the covered-
// word accumulator for a block (shardSize/64 words, 8 KiB at the default
// shard size) stays resident in a core's L1/L2 across the whole merge.
//
// A bitMatrix is immutable after newBitMatrix returns and safe for
// concurrent readers.
type bitMatrix struct {
	n         int
	numSets   int
	shardSize int
	// blockStart[b] is the word offset of block b's rows in words;
	// blockWords[b] is the per-row word count of block b (shardSize/64 for
	// full blocks, rounded up from the remainder for the last one). Bits past
	// numSets in the last block are never set, so popcounts need no masking.
	blockStart []int
	blockWords []int
	words      []uint64
}

// packedWords returns the []uint64 length a bitMatrix over n vertices and
// numSets RR sets occupies at the given block size.
func packedWords(n, numSets, shardSize int) int {
	total := 0
	for lo := 0; lo < numSets; lo += shardSize {
		sets := min(shardSize, numSets-lo)
		total += n * ((sets + 63) / 64)
	}
	return total
}

// PackedIndexBytes returns the memory cost in bytes of the bitpack kernel's
// packed index for an oracle over n vertices and numSets RR sets — what the
// auto policy weighs against the adjacency size, exported so operators can
// budget the Kernel knob (see docs/ARCHITECTURE.md).
func PackedIndexBytes(n, numSets int) int64 {
	return 8 * int64(packedWords(n, numSets, DefaultBatchShardSize))
}

// newBitMatrix packs the oracle's membership lists. memberOf is already
// validated and sorted per vertex (buildMemberIndex), so the pack is a single
// ascending pass per vertex with no store reads — a spill-backed oracle pays
// no disk traffic here.
func newBitMatrix(n, numSets, shardSize int, memberOf [][]int32) *bitMatrix {
	numBlocks := (numSets + shardSize - 1) / shardSize
	m := &bitMatrix{
		n:          n,
		numSets:    numSets,
		shardSize:  shardSize,
		blockStart: make([]int, numBlocks+1),
		blockWords: make([]int, numBlocks),
	}
	for b := 0; b < numBlocks; b++ {
		sets := min(shardSize, numSets-b*shardSize)
		m.blockWords[b] = (sets + 63) / 64
		m.blockStart[b+1] = m.blockStart[b] + n*m.blockWords[b]
	}
	m.words = make([]uint64, m.blockStart[numBlocks])
	for v := 0; v < n; v++ {
		for _, idx := range memberOf[v] {
			b := int(idx) / shardSize
			off := int(idx) % shardSize
			m.words[m.blockStart[b]+v*m.blockWords[b]+off/64] |= 1 << (off % 64)
		}
	}
	return m
}

// numBlocks returns the number of shard-aligned blocks.
func (m *bitMatrix) numBlocks() int { return len(m.blockWords) }

// maxBlockWords returns the widest per-row word count across blocks — the
// accumulator size a full scan needs.
func (m *bitMatrix) maxBlockWords() int {
	if len(m.blockWords) == 0 {
		return 0
	}
	return m.blockWords[0]
}

// row returns vertex v's packed incidence words within block b.
func (m *bitMatrix) row(v, b int) []uint64 {
	w := m.blockWords[b]
	start := m.blockStart[b] + v*w
	return m.words[start : start+w]
}

// blockCoverage counts the RR sets in block b that intersect seeds, ORing
// the seed rows into acc (whose first blockWords[b] entries it clears and
// uses as scratch) and popcounting the merged words.
func (m *bitMatrix) blockCoverage(seeds []graph.VertexID, b int, acc []uint64) int64 {
	w := m.blockWords[b]
	if len(seeds) == 1 {
		row := m.row(int(seeds[0]), b)
		var hits int64
		for _, word := range row {
			hits += int64(bits.OnesCount64(word))
		}
		return hits
	}
	acc = acc[:w]
	clear(acc)
	for _, v := range seeds {
		row := m.row(int(v), b)
		for i, word := range row {
			acc[i] |= word
		}
	}
	var hits int64
	for _, word := range acc {
		hits += int64(bits.OnesCount64(word))
	}
	return hits
}

// coverage counts the RR sets (over the full index space) that intersect
// seeds. acc must hold at least maxBlockWords() words.
func (m *bitMatrix) coverage(seeds []graph.VertexID, acc []uint64) int64 {
	var hits int64
	for b := 0; b < m.numBlocks(); b++ {
		hits += m.blockCoverage(seeds, b, acc)
	}
	return hits
}

// kernelState is the oracle's lazily resolved kernel machinery: the
// configured policy, the auto decision (fixed at construction — it depends
// only on the snapshot's shape), and the packed index built on first use.
type kernelState struct {
	mu         sync.RWMutex
	configured Kernel
	// autoBitpack records whether KernelAuto resolves to bitpack for this
	// oracle's shape.
	autoBitpack bool

	packOnce sync.Once
	packed   *bitMatrix

	accPool sync.Pool // *[]uint64 accumulators of maxBlockWords length
}

// SetKernel selects the oracle's coverage kernel. It may be called at any
// time, including concurrently with queries: answers are byte-identical
// under every kernel, so a switch is only ever a performance event. The
// packed index is built lazily on the first query that needs it.
func (o *Oracle) SetKernel(k Kernel) error {
	k, err := ParseKernel(string(k))
	if err != nil {
		return err
	}
	o.kernels.mu.Lock()
	o.kernels.configured = k
	o.kernels.mu.Unlock()
	return nil
}

// KernelConfigured returns the kernel selection policy the oracle was given
// (KernelAuto when never set).
func (o *Oracle) KernelConfigured() Kernel {
	o.kernels.mu.RLock()
	defer o.kernels.mu.RUnlock()
	if o.kernels.configured == "" {
		return KernelAuto
	}
	return o.kernels.configured
}

// KernelResolved returns the kernel the oracle's queries actually run on:
// KernelConfigured with auto resolved against the oracle's shape. The
// resolution is deterministic, so this never forces the packed index to
// build.
func (o *Oracle) KernelResolved() Kernel {
	if o.useBitpack() {
		return KernelBitpack
	}
	return KernelEpoch
}

// useBitpack resolves the kernel policy for a query.
func (o *Oracle) useBitpack() bool {
	switch o.KernelConfigured() {
	case KernelBitpack:
		return true
	case KernelEpoch:
		return false
	}
	return o.kernels.autoBitpack
}

// decideAutoKernel fixes the auto policy's choice at construction time:
// bitpack iff the packed index costs at most BitpackAutoMemFactor× the
// adjacency it shadows (membership density ≥ 1/64 — where the popcount scan
// wins) and stays under the absolute auto cap. payloadBytes encodes each set
// as 4 bytes of length plus 4 bytes per vertex, so the adjacency (member
// index) size is payloadBytes − 4·numSets.
func (o *Oracle) decideAutoKernel() {
	packed := PackedIndexBytes(o.n, o.numSets)
	adjacency := o.payloadBytes - 4*int64(o.numSets)
	o.kernels.autoBitpack = packed <= BitpackAutoMemFactor*adjacency && packed <= bitpackAutoMaxBytes
}

// packedMatrix returns the packed index, building it on first use.
func (o *Oracle) packedMatrix() *bitMatrix {
	o.kernels.packOnce.Do(func() {
		o.kernels.packed = newBitMatrix(o.n, o.numSets, DefaultBatchShardSize, o.memberOf)
	})
	return o.kernels.packed
}

// getAcc borrows a covered-word accumulator sized for m's widest block.
func (o *Oracle) getAcc(m *bitMatrix) *[]uint64 {
	if p, _ := o.kernels.accPool.Get().(*[]uint64); p != nil && len(*p) >= m.maxBlockWords() {
		return p
	}
	acc := make([]uint64, m.maxBlockWords())
	return &acc
}

func (o *Oracle) putAcc(p *[]uint64) { o.kernels.accPool.Put(p) }

// bitpackCoverage is the packed full-range coverage count behind Influence.
func (o *Oracle) bitpackCoverage(seeds []graph.VertexID) int64 {
	m := o.packedMatrix()
	acc := o.getAcc(m)
	hits := m.coverage(seeds, *acc)
	o.putAcc(acc)
	return hits
}
