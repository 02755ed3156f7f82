// Package core implements the paper's experimental methodology — its primary
// contribution. It runs an algorithmic approach (Oneshot, Snapshot or RIS)
// many times for a sweep of sample numbers, records the resulting seed sets
// and their influence spreads, and derives the quantities the paper reports:
// the Shannon entropy of the seed-set distribution (Section 5.1), the
// influence distribution and the least sample number needed for near-optimal
// solutions (Section 5.2), the comparable number and size ratios between
// approaches (Section 5.2.3), and the per-sample and identical-accuracy
// traversal costs (Sections 5.3 and 6).
package core

import (
	"errors"
	"fmt"
	"sync"

	"imdist/internal/diffusion"
	"imdist/internal/graph"
	"imdist/internal/parallel"
	"imdist/internal/rng"
	"imdist/internal/stats"
)

// Oracle is the shared influence-spread estimator of Section 5.2: a single
// collection of RR sets generated once per influence graph and reused across
// every run of every algorithm, so that identical seed sets always receive
// identical influence estimates. With R RR sets the 99% confidence interval
// of an estimate is n·F(S) ± 1.29·n/√R.
//
// The query methods (Influence, GreedySeeds, TopSingleVertices) are safe for
// concurrent use: per-call scratch state lives in pooled buffers or on the
// call's own stack and heap, never on the oracle itself.
type Oracle struct {
	n       int
	numSets int
	// model and seed record how the RR sets were generated; they travel with
	// the oracle when it is serialized (internal/sketchio).
	model diffusion.Model
	seed  uint64
	// memberOf[v] lists the RR set indices containing vertex v.
	memberOf [][]int32
	// store holds the RR sets themselves (used for serialization). The
	// oracle snapshots numSets at construction; the store may keep growing
	// underneath (SketchBuilder appends), but indices below numSets are
	// immutable, so the snapshot stays coherent. payloadBytes is the
	// snapshot's exact encoded record size.
	store        RRStore
	payloadBytes int64
	// shard records this oracle's place in a partitioned fleet (zero value
	// for whole sketches); it travels with the oracle when serialized.
	shard ShardLineage

	// influencePool holds *influenceScratch.
	influencePool sync.Pool

	// kernels holds the coverage-kernel selection (epoch vs bitpack) and the
	// lazily built packed index; see kernel.go.
	kernels kernelState
}

// ErrEmptyGraph reports an oracle request on an empty graph.
var ErrEmptyGraph = errors.New("core: empty influence graph")

// ErrShardLineage reports an invalid shard lineage (internally inconsistent,
// or inconsistent with the oracle it is attached to).
var ErrShardLineage = errors.New("core: invalid shard lineage")

// ShardLineage identifies an oracle's place in a partitioned sketch fleet:
// this oracle holds shard Index of Count contiguous RR-set partitions of an
// original sketch carrying TotalSets RR sets in all. A coordinator
// (internal/cluster) uses the lineage to reject mis-assembled fleets —
// shards from different splits, duplicated indexes, or a missing partition —
// and to merge per-shard integer coverage counts into answers that are
// byte-identical to the unsplit sketch's: influence is n·(Σ per-shard
// hits)/TotalSets, so every shard must agree on TotalSets.
//
// The zero value (Count == 0) means "not a shard": a whole, unsplit sketch.
type ShardLineage struct {
	Index     int
	Count     int
	TotalSets int
}

// Sharded reports whether the lineage describes a partition (rather than a
// whole sketch).
func (l ShardLineage) Sharded() bool { return l.Count > 0 }

// validate checks the lineage's internal consistency against the number of
// RR sets the shard actually holds.
func (l ShardLineage) validate(numSets int) error {
	if !l.Sharded() {
		if l.Index != 0 || l.TotalSets != 0 {
			return fmt.Errorf("%w: zero Count with nonzero Index/TotalSets", ErrShardLineage)
		}
		return nil
	}
	if l.Index < 0 || l.Index >= l.Count {
		return fmt.Errorf("%w: shard index %d outside [0, %d)", ErrShardLineage, l.Index, l.Count)
	}
	if l.TotalSets < numSets {
		return fmt.Errorf("%w: total sets %d below this shard's %d", ErrShardLineage, l.TotalSets, numSets)
	}
	if l.Count > l.TotalSets {
		return fmt.Errorf("%w: %d shards cannot partition %d RR sets", ErrShardLineage, l.Count, l.TotalSets)
	}
	return nil
}

// ErrSeedOutOfRange reports a caller-supplied seed vertex outside [0, n).
var ErrSeedOutOfRange = errors.New("core: seed vertex out of range")

// NewOracle builds an oracle from numSets RR sets of ig under the Independent
// Cascade model using src for randomness. The paper uses 10^7 RR sets; the
// experiment presets scale this down (see internal/experiment).
func NewOracle(ig *graph.InfluenceGraph, numSets int, src rng.Source) (*Oracle, error) {
	return NewOracleForModel(ig, diffusion.IC, numSets, src)
}

// NewOracleForModel builds an oracle under the given diffusion model (IC as
// in the paper, or LT as an extension), generating the RR sets serially.
func NewOracleForModel(ig *graph.InfluenceGraph, model diffusion.Model, numSets int, src rng.Source) (*Oracle, error) {
	return NewOracleParallel(ig, model, numSets, 1, src)
}

// rrSampler abstracts RR-set generation over diffusion models.
type rrSampler interface {
	Sample(targetSrc, edgeSrc rng.Source, cost *diffusion.Cost) []graph.VertexID
}

func newRRSampler(ig *graph.InfluenceGraph, model diffusion.Model) rrSampler {
	if model == diffusion.LT {
		return diffusion.NewLTRRSampler(ig)
	}
	return diffusion.NewRRSampler(ig)
}

// NewOracleParallel builds an oracle under the given diffusion model,
// generating its RR sets on a pool of workers goroutines (0 and 1 generate
// on the calling goroutine; negative values use all CPUs). Every RR set
// draws from its own rng stream derived from a base seed taken once from
// src — for serial and parallel builds alike — so the oracle is
// byte-identical across runs and across every worker count, including the
// serial ones.
func NewOracleParallel(ig *graph.InfluenceGraph, model diffusion.Model, numSets, workers int, src rng.Source) (*Oracle, error) {
	if ig == nil || ig.NumVertices() == 0 {
		return nil, ErrEmptyGraph
	}
	if numSets < 1 {
		return nil, fmt.Errorf("core: oracle needs at least one RR set, got %d", numSets)
	}
	if model == diffusion.LT {
		if err := diffusion.ValidateLTWeights(ig); err != nil {
			return nil, err
		}
	}
	rrSets := make([][]graph.VertexID, numSets)
	// Per-sample derived streams (target and edge coins share one), as in
	// the RIS Build: the oracle is independent of the worker count — serial
	// included — and of scheduling.
	split := rng.SplitterFrom(rng.Xoshiro, src)
	w := parallel.Resolve(workers, numSets)
	samplers := make([]rrSampler, w)
	for i := range samplers {
		samplers[i] = newRRSampler(ig, model)
	}
	parallel.For(w, numSets, func(worker, i int) {
		s := split.Stream(uint64(i))
		rrSets[i] = samplers[worker].Sample(s, s, nil)
	})
	return NewOracleFromStore(ig.NumVertices(), model, 0, NewMemStore(rrSets))
}

// NewOracleParallelSeeded is NewOracleParallel driven by an explicit master
// seed (the randomness is rng.NewXoshiro(seed)); the seed is recorded on the
// oracle so serialized sketches carry their provenance.
func NewOracleParallelSeeded(ig *graph.InfluenceGraph, model diffusion.Model, numSets, workers int, seed uint64) (*Oracle, error) {
	o, err := NewOracleParallel(ig, model, numSets, workers, rng.NewXoshiro(seed))
	if err != nil {
		return nil, err
	}
	o.seed = seed
	return o, nil
}

// NewOracleFromRRSets reassembles an oracle from previously generated RR sets
// (the deserialization path of internal/sketchio). It validates every vertex
// id against [0, n) so that a corrupted or hostile sketch cannot induce
// out-of-bounds indexing, and takes ownership of rrSets.
func NewOracleFromRRSets(n int, model diffusion.Model, seed uint64, rrSets [][]graph.VertexID) (*Oracle, error) {
	return NewOracleFromStore(n, model, seed, NewMemStore(rrSets))
}

// NewOracleFromStore finalizes the RR sets held by store into a queryable
// oracle: the member index is built by streaming over the store in one pass,
// so a disk-backed store never has to materialize every set on the heap at
// once. The oracle snapshots the store's current size; appending to the store
// afterwards (a SketchBuilder growing past an ErrorBound check) does not
// disturb it. Every vertex id is validated against [0, n) during the
// streaming pass — stores may be rehydrated from untrusted files — and the
// oracle reads through the store for as long as it lives, so the store must
// not be closed before the oracle is done.
func NewOracleFromStore(n int, model diffusion.Model, seed uint64, store RRStore) (*Oracle, error) {
	if n < 1 {
		return nil, ErrEmptyGraph
	}
	numSets := store.NumSets()
	if numSets < 1 {
		return nil, fmt.Errorf("core: oracle needs at least one RR set, got %d", numSets)
	}
	o := &Oracle{
		n:       n,
		numSets: numSets,
		model:   model,
		seed:    seed,
		store:   store,
	}
	if err := o.buildMemberIndex(); err != nil {
		return nil, err
	}
	o.decideAutoKernel()
	return o, nil
}

// memberChunk is the size, in RR-set ids, of the arrays the membership lists
// are carved from: large enough that indexing a sketch allocates a few dozen
// times instead of once per vertex, small enough that reloading a sketch
// reuses the heap its predecessor freed rather than growing the process.
const memberChunk = 1 << 16

// buildMemberIndex derives memberOf by streaming the store twice: a counting
// pass (which also validates every vertex id) sizes the lists exactly, then a
// fill pass populates them. Membership lists are built in RR-set order, so two
// oracles over identical RR sets answer every query identically regardless of
// how — or from which store — they were constructed.
func (o *Oracle) buildMemberIndex() error {
	counts := make([]int32, o.n)
	err := o.store.ForEach(0, o.numSets, func(i int, set []graph.VertexID) error {
		for _, v := range set {
			if v < 0 || int(v) >= o.n {
				return fmt.Errorf("core: RR set %d contains vertex %d outside [0, %d)", i, v, o.n)
			}
			counts[v]++
		}
		o.payloadBytes += 4 + 4*int64(len(set))
		return nil
	})
	if err != nil {
		return err
	}
	// Consecutive vertices share one exactly sized chunk, each list a
	// capacity-capped window of it. The fill pass writes through next[v] —
	// the chunk index in the high 32 bits, the offset of v's next slot in
	// the low 32 — so the only per-vertex state it touches is 8 bytes.
	o.memberOf = make([][]int32, o.n)
	next := make([]uint64, o.n)
	var chunks [][]int32
	for lo := 0; lo < o.n; {
		hi, size := lo, 0
		for hi < o.n && size < memberChunk {
			size += int(counts[hi])
			hi++
		}
		chunk := make([]int32, size)
		off := 0
		for v := lo; v < hi; v++ {
			if c := int(counts[v]); c > 0 {
				o.memberOf[v] = chunk[off : off+c : off+c]
				next[v] = uint64(len(chunks))<<32 | uint64(off)
				off += c
			}
		}
		chunks = append(chunks, chunk)
		lo = hi
	}
	return o.store.ForEach(0, o.numSets, func(i int, set []graph.VertexID) error {
		for _, v := range set {
			p := next[v]
			chunks[p>>32][uint32(p)] = int32(i)
			next[v] = p + 1
		}
		return nil
	})
}

// NumSets returns the number of RR sets backing the oracle.
func (o *Oracle) NumSets() int { return o.numSets }

// NumVertices returns the number of vertices of the underlying graph.
func (o *Oracle) NumVertices() int { return o.n }

// Model returns the diffusion model the RR sets were generated under.
func (o *Oracle) Model() diffusion.Model { return o.model }

// BuildSeed returns the master seed the oracle was built from, when known
// (NewOracleParallelSeeded or a loaded sketch); otherwise 0.
func (o *Oracle) BuildSeed() uint64 { return o.seed }

// RRSet returns the vertices of RR set i. The returned slice is owned by the
// oracle's store and must not be modified; a spill-backed oracle may decode
// it on demand, so prefer ascending-index access for sequential scans.
func (o *Oracle) RRSet(i int) []graph.VertexID { return o.store.Set(i) }

// PayloadBytes returns the exact encoded size in bytes of the oracle's RR
// sets in the shared record format (4-byte count plus 4 bytes per vertex,
// per set) — what serialization needs to size a sketch header without an
// extra pass over a disk-backed store. It covers exactly the oracle's
// snapshot, even when the shared store has grown past it since.
func (o *Oracle) PayloadBytes() int64 { return o.payloadBytes }

// Store returns the RR-set store backing the oracle (read-only use).
func (o *Oracle) Store() RRStore { return o.store }

// ShardLineage returns the oracle's place in a partitioned fleet; the zero
// value (Count 0) means the oracle is a whole, unsplit sketch.
func (o *Oracle) ShardLineage() ShardLineage { return o.shard }

// SetShardLineage records the oracle's shard lineage (sketchio sets it when
// loading a shard file written by SplitSketch). The lineage must be
// internally consistent and cover at least this oracle's RR sets; the zero
// value clears it.
func (o *Oracle) SetShardLineage(l ShardLineage) error {
	if err := l.validate(o.numSets); err != nil {
		return err
	}
	o.shard = l
	return nil
}

// ValidateSeeds reports whether every seed lies in [0, n).
func (o *Oracle) ValidateSeeds(seeds []graph.VertexID) error {
	for _, s := range seeds {
		if s < 0 || int(s) >= o.n {
			return fmt.Errorf("%w: vertex %d not in [0, %d)", ErrSeedOutOfRange, s, o.n)
		}
	}
	return nil
}

// influenceScratch is the pooled per-call state of Influence: an epoch-
// stamped membership array that distinct-counts covered RR sets without a
// per-call allocation.
type influenceScratch struct {
	marks []int32
	epoch int32
}

func (o *Oracle) getInfluenceScratch() *influenceScratch {
	s, _ := o.influencePool.Get().(*influenceScratch)
	if s == nil || len(s.marks) != o.numSets {
		s = &influenceScratch{marks: make([]int32, o.numSets)}
	}
	s.epoch++
	if s.epoch <= 0 { // epoch wrapped: reset the stamps
		clear(s.marks)
		s.epoch = 1
	}
	return s
}

// Influence returns the oracle estimate n·F(S) of the influence spread of the
// seed set S: the fraction of RR sets intersecting S times n. Seeds are
// validated against [0, n); an out-of-range seed returns ErrSeedOutOfRange
// (the oracle serves untrusted callers via internal/server).
func (o *Oracle) Influence(seeds []graph.VertexID) (float64, error) {
	if err := o.ValidateSeeds(seeds); err != nil {
		return 0, err
	}
	return o.influenceOf(o.coverageOf(seeds)), nil
}

// influenceOf converts a coverage count to influence units, n·hits/R.
func (o *Oracle) influenceOf(hits int64) float64 {
	return float64(o.n) * float64(hits) / float64(o.numSets)
}

// Coverage returns the raw coverage count of the seed set: the exact number
// of the oracle's RR sets that intersect S. This is the per-shard primitive
// of the distributed serving tier — coverage counts are integers, so summing
// them across the shards of a partitioned sketch reproduces the unsplit
// sketch's count exactly, and n·count/TotalSets reproduces its Influence
// byte-identically.
func (o *Oracle) Coverage(seeds []graph.VertexID) (int64, error) {
	if err := o.ValidateSeeds(seeds); err != nil {
		return 0, err
	}
	return o.coverageOf(seeds), nil
}

// coverageOf counts the RR sets intersecting a pre-validated seed set.
func (o *Oracle) coverageOf(seeds []graph.VertexID) int64 {
	if len(seeds) == 0 || o.numSets == 0 {
		return 0
	}
	if len(seeds) == 1 {
		// Fast path used heavily by Table 4 and the per-vertex rankings; both
		// kernels count a single vertex's coverage as its membership length.
		return int64(len(o.memberOf[seeds[0]]))
	}
	if o.useBitpack() {
		return o.bitpackCoverage(seeds)
	}
	s := o.getInfluenceScratch()
	var hit int64
	for _, v := range seeds {
		for _, idx := range o.memberOf[v] {
			if s.marks[idx] != s.epoch {
				s.marks[idx] = s.epoch
				hit++
			}
		}
	}
	o.influencePool.Put(s)
	return hit
}

// ConfidenceHalfWidth returns the half-width of the normal-approximation
// confidence interval of an oracle estimate at the given z value (2.576 for
// 99%), using the conservative p = 1/2 variance bound the paper quotes
// (±1.29·n/√R at 99%).
func (o *Oracle) ConfidenceHalfWidth(z float64) float64 {
	return float64(o.n) * stats.BinomialCI(0.5, o.numSets, z)
}

// GreedySeeds runs greedy maximum coverage directly on the oracle's RR sets
// and returns the resulting seed set. The paper uses the seed set obtained at
// entropy 0 as "Exact Greedy"; when an instance has not converged within the
// swept sample numbers this oracle-greedy solution is the natural reference,
// since it is exactly what every approach converges to as its sample number
// grows (they all become coverage maximization over an ever-better RR-set or
// snapshot pool). Selection is LazyGreedy over the oracle's own marginals, so
// both kernels return the same seeds.
func (o *Oracle) GreedySeeds(k int) []graph.VertexID {
	// The oracle's MarginalCoverage fails only on ids outside [0, n), and
	// LazyGreedy passes it only ids from the oracle's own round-0 answer.
	seeds, _, _ := LazyGreedy(o, k)
	return seeds
}

// TopSingleVertices returns the topK vertices ranked by single-vertex oracle
// influence in non-increasing order (ties to the smaller id), together with
// their influences. This is the quantity Table 4 reports. topK <= 0 returns
// all vertices.
func (o *Oracle) TopSingleVertices(topK int) ([]graph.VertexID, []float64) {
	counts, _ := o.MarginalCoverage(nil, nil) // no ids to validate: cannot fail
	vs := RankCounts(counts, topK)
	infs := make([]float64, len(vs))
	for i, v := range vs {
		infs[i] = o.influenceOf(counts[v])
	}
	return vs, infs
}
