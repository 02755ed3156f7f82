package core

import (
	"math/bits"
	"sync"

	"imdist/internal/graph"
)

// marginalScratch is the pooled per-call state of MarginalCoverage: a covered
// flag per RR set for the epoch kernel, or a covered-word accumulator per
// block for the bitpack kernel.
type marginalScratch struct {
	covered []bool
	words   []uint64
}

var marginalPool sync.Pool // *marginalScratch, shared across oracles by size check

// MarginalCoverage returns, for every candidate vertex c, the exact number of
// the oracle's RR sets that contain c and are not covered by seeds — the
// integer marginal coverage gain of adding c to the seed set. A nil
// candidates slice means every vertex in [0, n), in ascending order; with
// empty seeds the result is each candidate's raw membership count.
//
// This is the oracle's MarginalSource, the primitive LazyGreedy selects over.
// Per-shard marginal counts are integers, so a coordinator can sum them
// across a partitioned fleet and run the same LazyGreedy as GreedySeeds on
// the unsplit sketch, selecting a byte-identical seed sequence.
func (o *Oracle) MarginalCoverage(seeds, candidates []graph.VertexID) ([]int64, error) {
	if err := o.ValidateSeeds(seeds); err != nil {
		return nil, err
	}
	if candidates != nil {
		if err := o.ValidateSeeds(candidates); err != nil {
			return nil, err
		}
	}
	numCands := len(candidates)
	if candidates == nil {
		numCands = o.n
	}
	gains := make([]int64, numCands)
	candidate := func(i int) int {
		if candidates == nil {
			return i
		}
		return int(candidates[i])
	}
	if len(seeds) == 0 {
		// Nothing is covered yet: every kernel's gain is the membership count.
		for i := range gains {
			gains[i] = int64(len(o.memberOf[candidate(i)]))
		}
		return gains, nil
	}
	if o.useBitpack() {
		o.marginalBitpack(seeds, gains, candidate)
		return gains, nil
	}
	s, _ := marginalPool.Get().(*marginalScratch)
	if s == nil || len(s.covered) != o.numSets {
		s = &marginalScratch{covered: make([]bool, o.numSets)}
	} else {
		clear(s.covered)
	}
	for _, v := range seeds {
		for _, idx := range o.memberOf[v] {
			s.covered[idx] = true
		}
	}
	for i := range gains {
		var gain int64
		for _, idx := range o.memberOf[candidate(i)] {
			if !s.covered[idx] {
				gain++
			}
		}
		gains[i] = gain
	}
	marginalPool.Put(s)
	return gains, nil
}

// marginalBitpack computes marginal gains on the packed index: the seeds'
// rows are ORed into a covered-word accumulator per block, and each
// candidate's gain is popcount(row AND NOT covered) — the same integers the
// epoch path counts set by set.
func (o *Oracle) marginalBitpack(seeds []graph.VertexID, gains []int64, candidate func(int) int) {
	m := o.packedMatrix()
	// The covered accumulator holds one word range per block, blockWords[b]
	// wide.
	coveredStart := make([]int, m.numBlocks()+1)
	for b := 0; b < m.numBlocks(); b++ {
		coveredStart[b+1] = coveredStart[b] + m.blockWords[b]
	}
	total := coveredStart[m.numBlocks()]
	s, _ := marginalPool.Get().(*marginalScratch)
	if s == nil || len(s.words) != total {
		s = &marginalScratch{words: make([]uint64, total)}
	} else {
		clear(s.words)
	}
	for b := 0; b < m.numBlocks(); b++ {
		cov := s.words[coveredStart[b]:coveredStart[b+1]]
		for _, v := range seeds {
			row := m.row(int(v), b)
			for i, word := range row {
				cov[i] |= word
			}
		}
	}
	for i := range gains {
		v := candidate(i)
		var gain int64
		for b := 0; b < m.numBlocks(); b++ {
			row := m.row(v, b)
			cov := s.words[coveredStart[b]:coveredStart[b+1]]
			for j, word := range row {
				gain += int64(bits.OnesCount64(word &^ cov[j]))
			}
		}
		gains[i] = gain
	}
	marginalPool.Put(s)
}
