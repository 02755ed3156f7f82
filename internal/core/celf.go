package core

// Lazy greedy (CELF, Leskovec et al., KDD'07) over exact integer marginal
// coverage: the one greedy maximum-coverage selection behind
// Oracle.GreedySeeds, SketchBuilder.ErrorBound and the cluster coordinator's
// distributed /v1/seeds, plus the one top-k ranking behind
// TopSingleVertices and the coordinator's /v1/top.
//
// Correctness of the lazy selection: the heap orders candidates by (gain
// desc, id asc), the exact preference of a plain argmax that scans vertices
// in ascending id order with a strict comparison. A stale entry's gain is an
// upper bound on its true gain (submodularity: marginal gains only shrink as
// the seed set grows). So when the heap's top entry is fresh — evaluated
// against the current seed set — every other candidate's true gain is at most
// the top's gain, and any candidate whose stale bound ties it sits below the
// top only if its id is larger. Selecting a fresh top is therefore exactly the
// (max gain, min id) argmax, without re-evaluating the candidates that stayed
// buried. Stale entries are re-evaluated in batches of greedyBatch per
// MarginalCoverage call, so a remote source pays O(stale/batch) round trips
// per selection, not O(n).

import (
	"container/heap"

	"imdist/internal/graph"
)

// greedyBatch is how many stale heap entries LazyGreedy re-evaluates per
// MarginalCoverage call: large enough to amortize a scatter round trip, small
// enough that most re-evaluations are not wasted on entries that stay buried.
const greedyBatch = 128

// MarginalSource is what LazyGreedy selects over: exact integer marginal
// coverage gains. MarginalCoverage returns, for every candidate c, the number
// of RR sets that contain c and are not covered by seeds; nil candidates mean
// every vertex in [0, n) in ascending order, so the round-0 call
// MarginalCoverage(nil, nil) also fixes n. The returned slice belongs to the
// caller. *Oracle implements it, and the cluster coordinator implements it
// over summed per-shard counts.
type MarginalSource interface {
	MarginalCoverage(seeds, candidates []graph.VertexID) ([]int64, error)
}

// LazyGreedy selects up to k seeds by greedy maximum coverage over src — each
// round takes the vertex of largest marginal gain, ties to the smallest id —
// and returns them with the number of RR sets they cover. k is clamped to the
// vertex count; k < 1 selects nothing and makes no call. A source error is
// returned unchanged.
func LazyGreedy(src MarginalSource, k int) ([]graph.VertexID, int64, error) {
	return lazyGreedy(src, k, greedyBatch)
}

func lazyGreedy(src MarginalSource, k, batch int) ([]graph.VertexID, int64, error) {
	if k < 1 {
		return nil, 0, nil
	}
	// gains[v] is v's marginal gain against the first round[v] seeds.
	gains, err := src.MarginalCoverage(nil, nil)
	if err != nil {
		return nil, 0, err
	}
	k = min(k, len(gains))
	round := make([]int32, len(gains))
	h := newVertexHeap(gains)
	seeds := make([]graph.VertexID, 0, k)
	candidates := make([]graph.VertexID, 0, batch)
	var covered int64 // telescoping: Σ selected gains == coverage of seeds
	for len(seeds) < k {
		if top := h.ids[0]; int(round[top]) == len(seeds) {
			heap.Pop(h)
			covered += gains[top]
			seeds = append(seeds, top)
			continue
		}
		candidates = candidates[:0]
		for len(candidates) < batch && h.Len() > 0 && int(round[h.ids[0]]) != len(seeds) {
			candidates = append(candidates, heap.Pop(h).(graph.VertexID))
		}
		fresh, err := src.MarginalCoverage(seeds, candidates)
		if err != nil {
			return nil, 0, err
		}
		for i, v := range candidates {
			gains[v], round[v] = fresh[i], int32(len(seeds))
			heap.Push(h, v)
		}
	}
	return seeds, covered, nil
}

// RankCounts returns the k vertices with the largest counts, ordered by
// (count desc, id asc); k <= 0 or k > len(counts) ranks every vertex.
func RankCounts(counts []int64, k int) []graph.VertexID {
	if k <= 0 || k > len(counts) {
		k = len(counts)
	}
	h := newVertexHeap(counts)
	top := make([]graph.VertexID, k)
	for i := range top {
		top[i] = heap.Pop(h).(graph.VertexID)
	}
	return top
}

// vertexHeap holds vertex ids ordered by (gains[v] desc, v asc). A vertex's
// gain must not change while it is in the heap.
type vertexHeap struct {
	ids   []graph.VertexID
	gains []int64
}

// newVertexHeap heapifies every vertex of gains.
func newVertexHeap(gains []int64) *vertexHeap {
	h := &vertexHeap{ids: make([]graph.VertexID, len(gains)), gains: gains}
	for v := range h.ids {
		h.ids[v] = graph.VertexID(v)
	}
	heap.Init(h)
	return h
}

func (h *vertexHeap) Len() int { return len(h.ids) }
func (h *vertexHeap) Less(i, j int) bool {
	a, b := h.ids[i], h.ids[j]
	if h.gains[a] != h.gains[b] {
		return h.gains[a] > h.gains[b]
	}
	return a < b
}
func (h *vertexHeap) Swap(i, j int) { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *vertexHeap) Push(x any)    { h.ids = append(h.ids, x.(graph.VertexID)) }
func (h *vertexHeap) Pop() any {
	v := h.ids[len(h.ids)-1]
	h.ids = h.ids[:len(h.ids)-1]
	return v
}
