package core

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"imdist/internal/diffusion"
	"imdist/internal/graph"
	"imdist/internal/rng"
)

// argmaxGreedy is the reference LazyGreedy must reproduce: every round takes
// a plain argmax over the full MarginalCoverage answer, scanning vertices in
// ascending id order with a strict comparison (gain desc, id asc), skipping
// vertices already chosen. k is clamped to the vertex count.
func argmaxGreedy(t testing.TB, src MarginalSource, k int) ([]graph.VertexID, int64) {
	t.Helper()
	var seeds []graph.VertexID
	var covered int64
	chosen := map[graph.VertexID]bool{}
	for len(seeds) < k {
		gains, err := src.MarginalCoverage(seeds, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(seeds) == len(gains) {
			break
		}
		best, bestGain := graph.VertexID(-1), int64(-1)
		for v, g := range gains {
			if !chosen[graph.VertexID(v)] && g > bestGain {
				best, bestGain = graph.VertexID(v), g
			}
		}
		chosen[best] = true
		seeds = append(seeds, best)
		covered += bestGain
	}
	return seeds, covered
}

// oracleFromSets builds an oracle over n vertices from explicit RR sets.
func oracleFromSets(t testing.TB, n int, sets [][]graph.VertexID) *Oracle {
	t.Helper()
	o, err := NewOracleFromRRSets(n, diffusion.IC, 0, sets)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// coverageSets turns a maximum-coverage instance given as candidate -> elements
// into RR sets: element e becomes an RR set holding every candidate that
// covers it, so vertex s covers exactly the RR sets of its elements.
func coverageSets(numElements int, sets [][]int) [][]graph.VertexID {
	rr := make([][]graph.VertexID, numElements)
	for s, elems := range sets {
		for _, e := range elems {
			rr[e] = append(rr[e], graph.VertexID(s))
		}
	}
	return rr
}

func TestLazyGreedyMatchesArgmax(t *testing.T) {
	ig := karateIWC(t)
	for _, tc := range []struct {
		model diffusion.Model
		sets  int
	}{
		// Few RR sets leave many vertices tied, at zero gain in the tail.
		{diffusion.IC, 200},
		{diffusion.IC, 4000},
		{diffusion.LT, 300},
	} {
		o, err := NewOracleForModel(ig, tc.model, tc.sets, rng.NewXoshiro(11))
		if err != nil {
			t.Fatal(err)
		}
		n := o.NumVertices()
		t.Run(fmt.Sprintf("%s-%d", tc.model, tc.sets), func(t *testing.T) {
			bothKernels(t, o, func(t *testing.T, o *Oracle) {
				want, wantCovered := argmaxGreedy(t, o, n)
				for _, batch := range []int{1, 2, greedyBatch} {
					for k := 1; k <= n+1; k++ {
						seeds, covered, err := lazyGreedy(o, k, batch)
						if err != nil {
							t.Fatal(err)
						}
						prefix := want[:min(k, n)]
						if !slices.Equal(seeds, prefix) {
							t.Fatalf("batch %d k %d: LazyGreedy %v, argmax %v", batch, k, seeds, prefix)
						}
						hits, err := o.Coverage(seeds)
						if err != nil {
							t.Fatal(err)
						}
						if covered != hits {
							t.Fatalf("batch %d k %d: covered %d, Coverage %d", batch, k, covered, hits)
						}
					}
				}
				if got := o.GreedySeeds(n); !slices.Equal(got, want) {
					t.Errorf("GreedySeeds(%d) = %v, argmax %v", n, got, want)
				}
				if hits, _ := o.Coverage(want); hits != wantCovered {
					t.Errorf("argmax covered %d, Coverage %d", wantCovered, hits)
				}
			})
		})
	}
}

// failingSource forwards to an oracle until call failAt, which fails.
type failingSource struct {
	o      *Oracle
	failAt int
	calls  int
	err    error
}

func (f *failingSource) MarginalCoverage(seeds, candidates []graph.VertexID) ([]int64, error) {
	f.calls++
	if f.calls-1 == f.failAt {
		return nil, f.err
	}
	return f.o.MarginalCoverage(seeds, candidates)
}

func TestLazyGreedyReturnsSourceErrorUnchanged(t *testing.T) {
	o := mustOracle(t, karateIWC(t), 2000, 12)
	for round := 0; round < 3; round++ {
		src := &failingSource{o: o, failAt: round, err: fmt.Errorf("shard down at round %d", round)}
		seeds, covered, err := lazyGreedy(src, 10, 2)
		if err != src.err { // the identical error value, not a wrapper
			t.Errorf("round %d: err = %v, want the source's error unchanged", round, err)
		}
		if seeds != nil || covered != 0 {
			t.Errorf("round %d: failed selection returned (%v, %d)", round, seeds, covered)
		}
		if src.calls != round+1 {
			t.Errorf("round %d: %d calls, want the selection to stop at the failure", round, src.calls)
		}
	}
}

func TestLazyGreedyZeroK(t *testing.T) {
	src := &failingSource{o: oracleFromSets(t, 1, coverageSets(3, [][]int{{0, 1, 2}})), failAt: -1}
	seeds, covered, err := LazyGreedy(src, 0)
	if err != nil || len(seeds) != 0 || covered != 0 {
		t.Errorf("k=0 = (%v, %d, %v), want nothing selected", seeds, covered, err)
	}
	if src.calls != 0 {
		t.Errorf("k=0 made %d source calls", src.calls)
	}
}

func TestLazyGreedySimple(t *testing.T) {
	// Sets A={0,1,2}, B={2,3}, C={4}: greedy picks A (gain 3), then B and C
	// tie at gain 1 and the smaller id (B=1) wins.
	o := oracleFromSets(t, 3, coverageSets(5, [][]int{{0, 1, 2}, {2, 3}, {4}}))
	seeds, covered, err := LazyGreedy(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seeds, []graph.VertexID{0, 1}) || covered != 4 {
		t.Errorf("LazyGreedy = (%v, %d), want ([0 1], 4)", seeds, covered)
	}
}

func TestLazyGreedyCoversEverythingWhenKLargeEnough(t *testing.T) {
	o := oracleFromSets(t, 3, coverageSets(6, [][]int{{0, 1}, {2, 3}, {4, 5}}))
	if _, covered, err := LazyGreedy(o, 3); err != nil || covered != 6 {
		t.Errorf("covered = %d (%v), want 6", covered, err)
	}
}

func TestLazyGreedyAchievesApproximationOnKnownInstance(t *testing.T) {
	// The optimal 2 sets (A+B) cover 8 elements; C is greedy bait with gain 5.
	// Greedy must cover at least (1-1/e) of the optimum.
	o := oracleFromSets(t, 3, coverageSets(8, [][]int{
		{0, 1, 2, 3},
		{4, 5, 6, 7},
		{0, 1, 4, 5, 6},
	}))
	_, covered, err := LazyGreedy(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if float64(covered) < (1-1/math.E)*8 {
		t.Errorf("greedy covered %d, below the (1-1/e) bound", covered)
	}
}

func TestLazyGreedyGainsAreNonIncreasing(t *testing.T) {
	f := func(raw []uint16) bool {
		const n, numSets = 8, 40
		rr := make([][]graph.VertexID, numSets)
		for _, r := range raw {
			e, v := int(r>>8)%numSets, graph.VertexID(int(r&0xff)%n)
			if !slices.Contains(rr[e], v) {
				rr[e] = append(rr[e], v)
			}
		}
		o := oracleFromSets(t, n, rr)
		seeds, _, err := LazyGreedy(o, n)
		if err != nil {
			return false
		}
		prev, last := int64(0), int64(math.MaxInt64)
		for i := range seeds {
			hits, _ := o.Coverage(seeds[:i+1])
			if hits-prev > last {
				return false
			}
			prev, last = hits, hits-prev
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRankCounts(t *testing.T) {
	r := rng.NewXoshiro(1)
	for trial := 0; trial < 50; trial++ {
		counts := make([]int64, 1+r.Intn(40))
		for i := range counts {
			counts[i] = int64(r.Intn(5)) // few values: many ties
		}
		want := make([]graph.VertexID, len(counts))
		for i := range want {
			want[i] = graph.VertexID(i)
		}
		slices.SortStableFunc(want, func(a, b graph.VertexID) int {
			return int(counts[b] - counts[a])
		})
		for _, k := range []int{-1, 0, 1, 3, len(counts), len(counts) + 5} {
			wantK := want
			if k > 0 && k < len(counts) {
				wantK = want[:k]
			}
			if got := RankCounts(counts, k); !slices.Equal(got, wantK) {
				t.Fatalf("RankCounts(%v, %d) = %v, want %v", counts, k, got, wantK)
			}
		}
	}
}

// FuzzLazyGreedy checks LazyGreedy against the argmax reference on small
// random RR-set pools, under both kernels and at any batch size.
func FuzzLazyGreedy(f *testing.F) {
	f.Add(uint8(5), uint8(3), uint8(0), []byte{0, 1, 2, 0xff, 2, 3, 0xff, 4})
	f.Add(uint8(12), uint8(12), uint8(1), []byte{1, 1, 1, 0xff, 0xff, 7, 3})
	f.Add(uint8(30), uint8(40), uint8(127), []byte("lazy greedy over a random pool"))
	f.Fuzz(func(t *testing.T, nRaw, kRaw, batchRaw uint8, pool []byte) {
		n := 1 + int(nRaw)%32
		k := int(kRaw) % (n + 2)
		batch := 1 + int(batchRaw)%greedyBatch
		// Each byte adds vertex b%n to the current RR set; 0xff closes it.
		sets := [][]graph.VertexID{nil}
		for _, b := range pool {
			cur := &sets[len(sets)-1]
			switch v := graph.VertexID(int(b) % n); {
			case b == 0xff:
				sets = append(sets, nil)
			case !slices.Contains(*cur, v):
				*cur = append(*cur, v)
			}
		}
		o := oracleFromSets(t, n, sets)
		for _, kernel := range []Kernel{KernelEpoch, KernelBitpack} {
			if err := o.SetKernel(kernel); err != nil {
				t.Fatal(err)
			}
			want, wantCovered := argmaxGreedy(t, o, k)
			seeds, covered, err := lazyGreedy(o, k, batch)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(seeds, want) || covered != wantCovered {
				t.Fatalf("%s n=%d k=%d batch=%d sets=%v: LazyGreedy (%v, %d), argmax (%v, %d)",
					kernel, n, k, batch, sets, seeds, covered, want, wantCovered)
			}
		}
	})
}
