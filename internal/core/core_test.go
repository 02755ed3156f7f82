package core

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"imdist/internal/data"
	"imdist/internal/diffusion"
	"imdist/internal/estimator"
	"imdist/internal/graph"
	"imdist/internal/rng"
	"imdist/internal/workload"
)

// twoStarGraph returns two disjoint stars with hubs 0 (5 leaves) and 1 (3
// leaves), p = 1. Inf(0) = 6, Inf(1) = 4, optimal 2-seed influence = 10.
func twoStarGraph(t testing.TB) *graph.InfluenceGraph {
	t.Helper()
	b := graph.NewBuilder(10)
	for v := 2; v <= 6; v++ {
		if err := b.AddEdge(0, graph.VertexID(v)); err != nil {
			t.Fatal(err)
		}
	}
	for v := 7; v <= 9; v++ {
		if err := b.AddEdge(1, graph.VertexID(v)); err != nil {
			t.Fatal(err)
		}
	}
	ig, err := graph.NewInfluenceGraph(b.Build(), func(_, _ graph.VertexID) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	return ig
}

func karateIWC(t testing.TB) *graph.InfluenceGraph {
	t.Helper()
	ig, err := workload.Assign(data.Karate(), workload.IWC, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ig
}

func mustOracle(t testing.TB, ig *graph.InfluenceGraph, sets int, seed uint64) *Oracle {
	t.Helper()
	o, err := NewOracle(ig, sets, rng.NewXoshiro(seed))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOracleValidation(t *testing.T) {
	ig := twoStarGraph(t)
	if _, err := NewOracle(nil, 10, rng.NewXoshiro(1)); !errors.Is(err, ErrEmptyGraph) {
		t.Errorf("nil graph err = %v", err)
	}
	if _, err := NewOracle(ig, 0, rng.NewXoshiro(1)); err == nil {
		t.Error("zero RR sets accepted")
	}
	empty, err := graph.NewInfluenceGraph(graph.NewBuilder(0).Build(), func(_, _ graph.VertexID) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOracle(empty, 10, rng.NewXoshiro(1)); !errors.Is(err, ErrEmptyGraph) {
		t.Errorf("empty graph err = %v", err)
	}
}

func TestOracleInfluenceAccuracy(t *testing.T) {
	// Exact influences on the two-star graph: Inf(0)=6, Inf(1)=4, Inf(leaf)=1,
	// Inf({0,1})=10.
	ig := twoStarGraph(t)
	o := mustOracle(t, ig, 200000, 3)
	cases := []struct {
		seeds []graph.VertexID
		want  float64
	}{
		{[]graph.VertexID{0}, 6},
		{[]graph.VertexID{1}, 4},
		{[]graph.VertexID{5}, 1},
		{[]graph.VertexID{0, 1}, 10},
		{nil, 0},
	}
	for _, c := range cases {
		got, err := o.Influence(c.seeds)
		if err != nil {
			t.Fatalf("oracle Influence(%v) error: %v", c.seeds, err)
		}
		if math.Abs(got-c.want) > 0.15 {
			t.Errorf("oracle Influence(%v) = %v, want approx %v", c.seeds, got, c.want)
		}
	}
	if o.NumSets() != 200000 || o.NumVertices() != 10 {
		t.Errorf("oracle accessors: sets=%d n=%d", o.NumSets(), o.NumVertices())
	}
}

func TestOracleInfluenceRejectsOutOfRangeSeeds(t *testing.T) {
	ig := twoStarGraph(t)
	o := mustOracle(t, ig, 1000, 3)
	for _, seeds := range [][]graph.VertexID{{-1}, {10}, {0, 42}, {0, -7, 1}} {
		if _, err := o.Influence(seeds); !errors.Is(err, ErrSeedOutOfRange) {
			t.Errorf("Influence(%v) err = %v, want ErrSeedOutOfRange", seeds, err)
		}
	}
	if err := o.ValidateSeeds([]graph.VertexID{0, 9}); err != nil {
		t.Errorf("ValidateSeeds(valid) = %v", err)
	}
}

func TestOracleFromRRSets(t *testing.T) {
	ig := twoStarGraph(t)
	o := mustOracle(t, ig, 5000, 11)
	sets := make([][]graph.VertexID, o.NumSets())
	for i := range sets {
		sets[i] = o.RRSet(i)
	}
	rebuilt, err := NewOracleFromRRSets(o.NumVertices(), o.Model(), 11, sets)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rebuilt.GreedySeeds(3), o.GreedySeeds(3); len(got) != len(want) {
		t.Fatalf("rebuilt GreedySeeds = %v, want %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rebuilt GreedySeeds = %v, want %v", got, want)
			}
		}
	}
	a, _ := rebuilt.Influence([]graph.VertexID{0, 1, 2})
	b, _ := o.Influence([]graph.VertexID{0, 1, 2})
	if a != b {
		t.Errorf("rebuilt Influence = %v, want %v", a, b)
	}
	if rebuilt.BuildSeed() != 11 {
		t.Errorf("BuildSeed = %d, want 11", rebuilt.BuildSeed())
	}

	if _, err := NewOracleFromRRSets(0, o.Model(), 0, sets); !errors.Is(err, ErrEmptyGraph) {
		t.Errorf("n=0 err = %v", err)
	}
	if _, err := NewOracleFromRRSets(10, o.Model(), 0, nil); err == nil {
		t.Error("zero RR sets accepted")
	}
	if _, err := NewOracleFromRRSets(10, o.Model(), 0, [][]graph.VertexID{{0, 12}}); err == nil {
		t.Error("out-of-range member accepted")
	}
}

func TestMemberIndex(t *testing.T) {
	// A hand-made pool with empty lists, and a random one whose lists span
	// several chunks, each checked against a per-vertex append.
	src := rng.NewXoshiro(3)
	big := make([][]graph.VertexID, 4*memberChunk/50)
	for i := range big {
		for range 1 + src.Intn(100) {
			big[i] = append(big[i], graph.VertexID(src.Intn(700)))
		}
	}
	for _, c := range []struct {
		n    int
		sets [][]graph.VertexID
	}{
		{5, [][]graph.VertexID{{3, 0}, {1}, {0, 1, 3}, {}, {3}}},
		{700, big},
	} {
		want := make([][]int32, c.n)
		for i, set := range c.sets {
			for _, v := range set {
				want[v] = append(want[v], int32(i))
			}
		}
		o, err := NewOracleFromRRSets(c.n, diffusion.IC, 0, c.sets)
		if err != nil {
			t.Fatal(err)
		}
		for v, w := range want {
			got := o.memberOf[v]
			if !slices.Equal(got, w) || (w == nil) != (got == nil) {
				t.Fatalf("n=%d: memberOf[%d] = %v, want %v", c.n, v, got, w)
			}
			// The lists share chunks; an append must not reach the next
			// vertex's list.
			if cap(got) != len(got) {
				t.Errorf("n=%d: cap(memberOf[%d]) = %d, want %d", c.n, v, cap(got), len(got))
			}
		}
	}
}

func TestOracleConcurrentQueries(t *testing.T) {
	ig := twoStarGraph(t)
	o := mustOracle(t, ig, 20000, 5)
	wantInf, err := o.Influence([]graph.VertexID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	wantSeeds := o.GreedySeeds(2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, err := o.Influence([]graph.VertexID{0, 1})
				if err != nil || got != wantInf {
					t.Errorf("concurrent Influence = %v, %v; want %v", got, err, wantInf)
					return
				}
				if i%50 == 0 {
					seeds := o.GreedySeeds(2)
					for j := range seeds {
						if seeds[j] != wantSeeds[j] {
							t.Errorf("concurrent GreedySeeds = %v, want %v", seeds, wantSeeds)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestOracleConfidenceHalfWidth(t *testing.T) {
	ig := twoStarGraph(t)
	o := mustOracle(t, ig, 10000, 1)
	// Half width = n * z * 0.5 / sqrt(R) = 10*2.576*0.5/100 = 0.1288.
	want := 10 * 2.576 * 0.5 / 100
	if got := o.ConfidenceHalfWidth(2.576); math.Abs(got-want) > 1e-9 {
		t.Errorf("ConfidenceHalfWidth = %v, want %v", got, want)
	}
}

func TestOracleGreedySeeds(t *testing.T) {
	ig := twoStarGraph(t)
	o := mustOracle(t, ig, 50000, 5)
	seeds := o.GreedySeeds(2)
	if len(seeds) != 2 {
		t.Fatalf("GreedySeeds returned %v", seeds)
	}
	if seeds[0] != 0 || seeds[1] != 1 {
		t.Errorf("GreedySeeds = %v, want [0 1] (hub order by influence)", seeds)
	}
	if o.GreedySeeds(0) != nil {
		t.Error("GreedySeeds(0) should be nil")
	}
	if got := o.GreedySeeds(100); len(got) != ig.NumVertices() {
		t.Errorf("GreedySeeds(k>n) selected %d seeds, want n=%d", len(got), ig.NumVertices())
	}
}

func TestOracleTopSingleVertices(t *testing.T) {
	ig := twoStarGraph(t)
	o := mustOracle(t, ig, 50000, 7)
	vs, infs := o.TopSingleVertices(3)
	if vs[0] != 0 || vs[1] != 1 {
		t.Errorf("top vertices = %v, want hub 0 then hub 1", vs)
	}
	if !(infs[0] >= infs[1] && infs[1] >= infs[2]) {
		t.Errorf("influences not sorted: %v", infs)
	}
	all, _ := o.TopSingleVertices(0)
	if len(all) != ig.NumVertices() {
		t.Errorf("TopSingleVertices(0) returned %d, want all %d", len(all), ig.NumVertices())
	}
}

func TestRunDistributionValidation(t *testing.T) {
	ig := twoStarGraph(t)
	o := mustOracle(t, ig, 1000, 1)
	valid := RunConfig{Graph: ig, Approach: estimator.Snapshot, SampleNumber: 4, SeedSize: 1, Trials: 5, Oracle: o}
	bad := valid
	bad.Graph = nil
	if _, err := RunDistribution(bad); err == nil {
		t.Error("nil graph accepted")
	}
	bad = valid
	bad.Oracle = nil
	if _, err := RunDistribution(bad); err == nil {
		t.Error("nil oracle accepted")
	}
	bad = valid
	bad.Trials = 0
	if _, err := RunDistribution(bad); err == nil {
		t.Error("zero trials accepted")
	}
	bad = valid
	bad.SeedSize = 0
	if _, err := RunDistribution(bad); err == nil {
		t.Error("zero seed size accepted")
	}
	bad = valid
	bad.SampleNumber = 0
	if _, err := RunDistribution(bad); err == nil {
		t.Error("zero sample number accepted")
	}
}

func TestRunDistributionConvergesToUniqueSolution(t *testing.T) {
	// Finding 1 of the paper: for a sufficiently large sample number every
	// approach returns a unique seed set; on the two-star graph that set is
	// {0} for k=1.
	ig := twoStarGraph(t)
	o := mustOracle(t, ig, 20000, 11)
	for _, a := range []estimator.Approach{estimator.Oneshot, estimator.Snapshot, estimator.RIS} {
		samples := 256
		if a == estimator.RIS {
			samples = 8192
		}
		d, err := RunDistribution(RunConfig{
			Graph: ig, Approach: a, SampleNumber: samples, SeedSize: 1,
			Trials: 30, MasterSeed: 42, Oracle: o,
		})
		if err != nil {
			t.Fatal(err)
		}
		if d.Entropy() != 0 {
			t.Errorf("%v: entropy = %v at large sample number, want 0", a, d.Entropy())
		}
		modal, count := d.ModalSeedSet()
		if count != 30 || len(modal) != 1 || modal[0] != 0 {
			t.Errorf("%v: modal seed set = %v (count %d), want [0] x30", a, modal, count)
		}
	}
}

func TestRunDistributionHighEntropyAtTinySampleNumber(t *testing.T) {
	// With sample number 1 the solutions should be diverse: entropy well
	// above 0 on Karate iwc.
	ig := karateIWC(t)
	o := mustOracle(t, ig, 5000, 13)
	d, err := RunDistribution(RunConfig{
		Graph: ig, Approach: estimator.Oneshot, SampleNumber: 1, SeedSize: 1,
		Trials: 50, MasterSeed: 7, Oracle: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Entropy() < 1 {
		t.Errorf("entropy at sample number 1 = %v, expected diverse solutions", d.Entropy())
	}
	if d.DistinctSeedSets() < 3 {
		t.Errorf("distinct seed sets = %d, expected several", d.DistinctSeedSets())
	}
}

func TestRunDistributionReproducible(t *testing.T) {
	ig := karateIWC(t)
	o := mustOracle(t, ig, 2000, 17)
	cfg := RunConfig{
		Graph: ig, Approach: estimator.Snapshot, SampleNumber: 8, SeedSize: 2,
		Trials: 10, MasterSeed: 99, Oracle: o,
	}
	d1, err := RunDistribution(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := RunDistribution(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1.Trials {
		if d1.Trials[i].Influence != d2.Trials[i].Influence {
			t.Fatalf("trial %d differs between identical configs", i)
		}
	}
	if d1.Entropy() != d2.Entropy() {
		t.Error("entropy differs between identical configs")
	}
}

func TestRunDistributionLazyMatchesEagerQuality(t *testing.T) {
	ig := twoStarGraph(t)
	o := mustOracle(t, ig, 20000, 23)
	base := RunConfig{
		Graph: ig, Approach: estimator.RIS, SampleNumber: 4096, SeedSize: 2,
		Trials: 10, MasterSeed: 5, Oracle: o,
	}
	eager, err := RunDistribution(base)
	if err != nil {
		t.Fatal(err)
	}
	lazyCfg := base
	lazyCfg.Lazy = true
	lazy, err := RunDistribution(lazyCfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eager.MeanInfluence()-lazy.MeanInfluence()) > 0.3 {
		t.Errorf("lazy mean influence %v differs from eager %v", lazy.MeanInfluence(), eager.MeanInfluence())
	}
}

func TestSweepAndEntropyCurveMonotoneTrend(t *testing.T) {
	// Entropy should broadly decrease as the sample number grows (Finding:
	// "the entropy in the early stages is nearly maximum, and it then
	// monotonically decreases"). Compare the first and last levels.
	ig := karateIWC(t)
	o := mustOracle(t, ig, 5000, 29)
	sweep, err := Sweep(RunConfig{
		Graph: ig, Approach: estimator.Snapshot, SeedSize: 1,
		Trials: 40, MasterSeed: 3, Oracle: o,
	}, []int{1, 4, 16, 64, 256})
	if err != nil {
		t.Fatal(err)
	}
	curve := EntropyCurve(sweep)
	if len(curve) != 5 {
		t.Fatalf("curve has %d points", len(curve))
	}
	if curve[len(curve)-1].Entropy >= curve[0].Entropy {
		t.Errorf("entropy did not decay: first %v, last %v", curve[0].Entropy, curve[len(curve)-1].Entropy)
	}
	for i, p := range curve {
		if p.SampleNumber != []int{1, 4, 16, 64, 256}[i] {
			t.Errorf("curve point %d has sample number %d", i, p.SampleNumber)
		}
	}
}

func TestInfluenceCurveMeanIncreases(t *testing.T) {
	ig := karateIWC(t)
	o := mustOracle(t, ig, 5000, 31)
	sweep, err := Sweep(RunConfig{
		Graph: ig, Approach: estimator.Snapshot, SeedSize: 1,
		Trials: 30, MasterSeed: 8, Oracle: o,
	}, []int{1, 16, 256})
	if err != nil {
		t.Fatal(err)
	}
	curve := InfluenceCurve(sweep)
	if curve[2].Box.Mean < curve[0].Box.Mean {
		t.Errorf("mean influence decreased along the sweep: %v -> %v", curve[0].Box.Mean, curve[2].Box.Mean)
	}
}

func TestLeastSampleNumber(t *testing.T) {
	ig := twoStarGraph(t)
	o := mustOracle(t, ig, 20000, 37)
	ref, err := o.Influence(o.GreedySeeds(1))
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := Sweep(RunConfig{
		Graph: ig, Approach: estimator.Snapshot, SeedSize: 1,
		Trials: 50, MasterSeed: 21, Oracle: o,
	}, []int{1, 2, 4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	res, err := LeastSampleNumber(sweep, ref, DefaultNearOptimal())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no sufficient sample number found on a trivial instance")
	}
	if res.SampleNumber > 32 {
		t.Errorf("least sample number = %d", res.SampleNumber)
	}
	if res.Log2 != math.Log2(float64(res.SampleNumber)) {
		t.Errorf("Log2 inconsistent: %v for %d", res.Log2, res.SampleNumber)
	}
	// Impossible criterion: reference far above anything achievable.
	res, err = LeastSampleNumber(sweep, 1e9, DefaultNearOptimal())
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("impossible criterion reported as found")
	}
	if _, err := LeastSampleNumber(nil, 1, DefaultNearOptimal()); !errors.Is(err, ErrNoDistributions) {
		t.Errorf("empty sweep err = %v", err)
	}
}

func TestComparableRatiosOneshotVsSnapshot(t *testing.T) {
	// Finding: Snapshot needs no more samples than Oneshot for the same mean
	// influence, so the Oneshot:Snapshot comparable number ratio is >= 1
	// (Table 6 reports values from 1 to 96).
	ig := karateIWC(t)
	o := mustOracle(t, ig, 5000, 41)
	levels := []int{1, 2, 4, 8, 16, 32, 64}
	base := RunConfig{Graph: ig, SeedSize: 1, Trials: 30, MasterSeed: 55, Oracle: o}

	snapCfg := base
	snapCfg.Approach = estimator.Snapshot
	snapshotSweep, err := Sweep(snapCfg, levels)
	if err != nil {
		t.Fatal(err)
	}
	oneshotCfg := base
	oneshotCfg.Approach = estimator.Oneshot
	oneshotSweep, err := Sweep(oneshotCfg, levels)
	if err != nil {
		t.Fatal(err)
	}
	points, err := ComparableRatios(snapshotSweep, oneshotSweep)
	if err != nil {
		t.Fatal(err)
	}
	med, ok := MedianNumberRatio(points)
	if !ok {
		t.Fatal("no comparable points found")
	}
	if med < 0.5 {
		t.Errorf("median Oneshot:Snapshot ratio = %v, expected >= 1 (within noise)", med)
	}
	// Size ratio is undefined because Oneshot... wait: reference is Snapshot
	// here, whose sample size is positive, so size ratios are defined.
	if _, ok := MedianSizeRatio(points); !ok {
		t.Error("size ratio undefined although the reference stores samples")
	}
}

func TestComparableRatiosErrors(t *testing.T) {
	if _, err := ComparableRatios(nil, nil); !errors.Is(err, ErrNoDistributions) {
		t.Errorf("empty input err = %v", err)
	}
	if _, ok := MedianNumberRatio(nil); ok {
		t.Error("median of no points reported ok")
	}
	if _, ok := MedianSizeRatio([]ComparablePoint{{Found: true, SizeRatio: math.NaN()}}); ok {
		t.Error("median of NaN-only size ratios reported ok")
	}
}

func TestTraversalCostRelationAcrossApproaches(t *testing.T) {
	// Section 5.3: per-sample vertex traversal cost of Oneshot equals
	// Snapshot's and is about n times RIS's; the edge cost of Snapshot is
	// about m̃/m of Oneshot's.
	ig := karateIWC(t)
	o := mustOracle(t, ig, 2000, 47)
	cfg := RunConfig{Graph: ig, Trials: 60, MasterSeed: 31, Oracle: o}
	rows := map[estimator.Approach]TraversalRow{}
	for _, a := range []estimator.Approach{estimator.Oneshot, estimator.Snapshot, estimator.RIS} {
		row, err := TraversalCost(cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		rows[a] = row
	}
	one, snap, ris := rows[estimator.Oneshot], rows[estimator.Snapshot], rows[estimator.RIS]
	if one.VerticesExamined <= 0 || snap.VerticesExamined <= 0 || ris.VerticesExamined <= 0 {
		t.Fatalf("zero traversal cost: %+v %+v %+v", one, snap, ris)
	}
	vertexRatio := one.VerticesExamined / snap.VerticesExamined
	if vertexRatio < 0.5 || vertexRatio > 2.0 {
		t.Errorf("Oneshot/Snapshot vertex cost ratio = %v, want approx 1", vertexRatio)
	}
	nRatio := one.VerticesExamined / ris.VerticesExamined
	n := float64(ig.NumVertices())
	if nRatio < n/4 || nRatio > n*4 {
		t.Errorf("Oneshot/RIS vertex cost ratio = %v, want approx n = %v", nRatio, n)
	}
	// Snapshot scans only live edges: its edge cost must be below Oneshot's.
	if snap.EdgesExamined >= one.EdgesExamined {
		t.Errorf("Snapshot edge cost %v >= Oneshot edge cost %v", snap.EdgesExamined, one.EdgesExamined)
	}
}

func TestIdenticalAccuracyCosts(t *testing.T) {
	rows := []TraversalRow{
		{Approach: estimator.Oneshot, VerticesExamined: 100, EdgesExamined: 400},
		{Approach: estimator.Snapshot, VerticesExamined: 100, EdgesExamined: 40},
		{Approach: estimator.RIS, VerticesExamined: 2, EdgesExamined: 8},
	}
	out := IdenticalAccuracyCosts(rows, 4, 64)
	if len(out) != 3 {
		t.Fatalf("got %d rows, want 3", len(out))
	}
	if out[0].CostPerGamma != 4*500 {
		t.Errorf("Oneshot per-gamma cost = %v, want 2000", out[0].CostPerGamma)
	}
	if out[1].CostPerGamma != 140 {
		t.Errorf("Snapshot per-gamma cost = %v, want 140", out[1].CostPerGamma)
	}
	if out[2].CostPerGamma != 64*10 {
		t.Errorf("RIS per-gamma cost = %v, want 640", out[2].CostPerGamma)
	}
	// Negative ratio omits the approach.
	out = IdenticalAccuracyCosts(rows, -1, 64)
	if len(out) != 2 {
		t.Errorf("negative ratio should omit Oneshot, got %d rows", len(out))
	}
}

func TestQuantileFractionAndModalOnEmpty(t *testing.T) {
	d := &Distribution{seedSetCounts: map[string]int{}}
	if d.QuantileFraction(1) != 0 {
		t.Error("QuantileFraction on empty distribution should be 0")
	}
	if m, c := d.ModalSeedSet(); m != nil || c != 0 {
		t.Error("ModalSeedSet on empty distribution should be nil, 0")
	}
	if d.MeanCost() != (MeanCost{}) {
		t.Error("MeanCost on empty distribution should be zero")
	}
}

func TestSeedSetKeyCanonical(t *testing.T) {
	a := seedSetKey([]graph.VertexID{3, 1, 2})
	b := seedSetKey([]graph.VertexID{2, 3, 1})
	if a != b {
		t.Errorf("seed set key is order dependent: %q vs %q", a, b)
	}
	if got := parseSeedSetKey(a); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("parseSeedSetKey = %v", got)
	}
	if parseSeedSetKey("") != nil {
		t.Error("empty key should parse to nil")
	}
}

func TestMeanCostHelpers(t *testing.T) {
	m := MeanCost{VerticesExamined: 1, EdgesExamined: 2, SampleVertices: 3, SampleEdges: 4}
	if m.Traversal() != 3 || m.SampleSize() != 7 {
		t.Errorf("MeanCost helpers: %v %v", m.Traversal(), m.SampleSize())
	}
}
