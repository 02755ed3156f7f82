package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"imdist/internal/core"
	"imdist/internal/diffusion"
	"imdist/internal/estimator"
	"imdist/internal/graph"
	"imdist/internal/greedy"
	"imdist/internal/rng"
	"imdist/internal/stats"
)

// The study slice: the paper's methodology on the Physicians surrogate.
const (
	studyDataset    = "Physicians"
	studyProb       = "uc0.1"
	studyK          = 10
	studyWorkers    = 2
	studyOracleSets = 100_000
)

// studyApproaches are the three approaches at the sample numbers of the
// study, where the entropies reproduce the paper's finding 3.
// minTrials is the fewest trials a pass makes of the approach, spread over
// its slices, for a steady median when the study's time share is short.
var studyApproaches = []struct {
	name      string
	approach  estimator.Approach
	samples   int
	minTrials int
}{
	{"oneshot", estimator.Oneshot, 32, 12},
	{"snapshot", estimator.Snapshot, 512, 24},
	{"ris", estimator.RIS, 65536, 48},
}

type trial struct {
	seeds     []graph.VertexID
	influence float64
	cost      diffusion.Cost
	seconds   float64
}

// runStudy spends one slice's budget on trials, a third per approach, and
// keeps each approach on pace for its minimum trials over the pass. Budget a
// slice cannot use — a trial is longer than a slice's share — carries over to
// the next slice. Trial i of an approach draws from a master seed derived
// from (seed, approach, i), so the traced and untraced passes run identical
// trials.
func runStudy(e *env, seed uint64, budget time.Duration, tr *tracer, r *runResult) error {
	r.slice++
	for ai, a := range studyApproaches {
		r.owed[a.name] += budget / time.Duration(len(studyApproaches))
		due := (a.minTrials*r.slice + r.slices - 1) / r.slices
		for len(r.trials[a.name]) < due || r.owed[a.name] > 0 {
			i := len(r.trials[a.name])
			r.attempted++
			start := time.Now()
			var (
				t   trial
				err error
			)
			if tr == nil {
				t, err = untracedTrial(e, a.approach, a.samples, trialSeed(seed, ai, i))
			} else {
				t, err = tracedTrial(e, a.approach, a.samples, trialSeed(seed, ai, i), tr, a.name, r)
			}
			spent := time.Since(start)
			r.owed[a.name] -= spent
			t.seconds = spent.Seconds()
			if err != nil {
				return fmt.Errorf("study %s trial %d: %w", a.name, i, err)
			}
			if msg := checkTrial(e, t); msg != "" {
				r.fail("study %s trial %d: %s", a.name, i, msg)
			}
			r.trials[a.name] = append(r.trials[a.name], t)
		}
	}
	return nil
}

// replayStudy reruns the first trial of each approach, which must reproduce
// it exactly: every trial is a pure function of its master seed.
func replayStudy(e *env, seed uint64, r *runResult) {
	for ai, a := range studyApproaches {
		r.attempted++
		again, err := untracedTrial(e, a.approach, a.samples, trialSeed(seed, ai, 0))
		if err != nil || !sameTrial(r.trials[a.name][0], again) {
			r.fail("study %s: replaying trial 0 gave a different result (%v)", a.name, err)
		}
	}
}

func trialSeed(seed uint64, approach, i int) uint64 {
	return mix(mix(seed, seedStudyTrials), uint64(approach)<<32|uint64(i))
}

// finishStudy reports each approach's trials per second, its trials over
// their total time in all rounds, and the per-trial layer averages. On two
// CPUs the trial times fall into two modes about 1.5 times apart, so a
// median trial time would jump between the modes from run to run; the
// total follows the mix of the two.
func finishStudy(tr *tracer, r *runResult) {
	for _, a := range studyApproaches {
		trials := r.trials[a.name]
		seconds := 0.0
		counts := map[string]int{}
		for _, t := range trials {
			seconds += t.seconds
			counts[seedKey(t.seeds)]++
		}
		r.e2e[a.name+"_trials_per_s"] = float64(len(trials)) / seconds
		r.labels[a.name+"_trials"] = strconv.Itoa(len(trials))
		r.labels[a.name+"_entropy_bits"] = strconv.FormatFloat(stats.Entropy(counts), 'f', 3, 64)
		if tr != nil {
			for _, m := range []string{"estimator.new_s.", "estimator.estimate_s.", "estimator.estimate_calls.", "estimator.update_s.", "greedy.self_s.", "diffusion.traversal.", "diffusion.sample_size."} {
				r.layer[m+a.name] /= float64(len(trials))
			}
		}
	}
	if tr != nil {
		r.layer["core.oracle_eval_s"] = mean(r.evalSeconds)
	}
}

// untracedTrial runs one trial through core.RunDistribution, the function
// behind imdist's StudyDistribution.
func untracedTrial(e *env, a estimator.Approach, samples int, master uint64) (trial, error) {
	d, err := core.RunDistribution(core.RunConfig{
		Graph:        e.studyGraph,
		Approach:     a,
		SampleNumber: samples,
		SeedSize:     studyK,
		Trials:       1,
		MasterSeed:   master,
		Oracle:       e.studyOracle,
		Workers:      studyWorkers,
	})
	if err != nil {
		return trial{}, err
	}
	t := d.Trials[0]
	return trial{seeds: t.Seeds, influence: t.Influence, cost: t.Cost}, nil
}

// tracedTrial runs the same trial step by step — estimator.New, greedy.Run
// over a timing wrapper of the estimator, then the oracle evaluation — with a
// span around each call. It derives its random streams exactly as
// core.RunDistribution does for trial 0.
func tracedTrial(e *env, a estimator.Approach, samples int, master uint64, tr *tracer, name string, r *runResult) (trial, error) {
	root := tr.begin("study.trial", spanCtx{})
	defer tr.finish(root)
	in := spanCtx{id: root.ID}
	estSrc := rng.Split(rng.Xoshiro, master, 0)
	shuffleSrc := rng.Split(rng.Xoshiro, master, 1)

	s := tr.begin("estimator.new", in)
	est, err := estimator.New(a, estimator.Config{
		Graph:        e.studyGraph,
		SampleNumber: samples,
		Source:       estSrc,
		Workers:      studyWorkers,
	})
	s = tr.finish(s)
	if err != nil {
		return trial{}, err
	}
	r.layer["estimator.new_s."+name] += s.seconds()

	g := tr.begin("greedy.run", in)
	te := &timedEstimator{Estimator: est, tr: tr, parent: spanCtx{id: g.ID}}
	seeds, err := greedy.Run(te, e.studyGraph.NumVertices(), studyK, shuffleSrc)
	g = tr.finish(g)
	if err != nil {
		return trial{}, err
	}
	greedyS := g.seconds()

	s = tr.begin("core.oracle_eval", in)
	inf, err := e.studyOracle.Influence(seeds)
	s = tr.finish(s)
	if err != nil {
		return trial{}, err
	}
	r.evalSeconds = append(r.evalSeconds, s.seconds())

	cost := est.Cost()
	r.layer["estimator.estimate_s."+name] += te.estimate.Seconds()
	r.layer["estimator.estimate_calls."+name] += float64(te.calls)
	r.layer["estimator.update_s."+name] += te.update.Seconds()
	r.layer["greedy.self_s."+name] += greedyS - te.estimate.Seconds() - te.update.Seconds()
	r.layer["diffusion.traversal."+name] += float64(cost.Traversal())
	r.layer["diffusion.sample_size."+name] += float64(cost.SampleSize())
	return trial{seeds: seeds, influence: inf, cost: cost}, nil
}

// timedEstimator is the counting/timing wrapper greedy.Run sees: one span per
// Estimate and Update call.
type timedEstimator struct {
	estimator.Estimator
	tr               *tracer
	parent           spanCtx
	calls            int64
	estimate, update time.Duration
}

func (te *timedEstimator) Estimate(v graph.VertexID) float64 {
	s := te.tr.begin("estimator.estimate", te.parent)
	x := te.Estimator.Estimate(v)
	s = te.tr.finish(s)
	te.estimate += time.Duration(s.End - s.Start)
	te.calls++
	return x
}

func (te *timedEstimator) Update(v graph.VertexID) {
	s := te.tr.begin("estimator.update", te.parent)
	te.Estimator.Update(v)
	s = te.tr.finish(s)
	te.update += time.Duration(s.End - s.Start)
}

// checkTrial validates a trial's output: k distinct in-range seeds whose
// influence is the oracle's.
func checkTrial(e *env, t trial) string {
	if len(t.seeds) != studyK {
		return fmt.Sprintf("%d seeds, want %d", len(t.seeds), studyK)
	}
	seen := map[graph.VertexID]bool{}
	for _, v := range t.seeds {
		if v < 0 || int(v) >= e.studyGraph.NumVertices() || seen[v] {
			return fmt.Sprintf("invalid seed set %v", t.seeds)
		}
		seen[v] = true
	}
	if inf, err := e.studyOracle.Influence(t.seeds); err != nil || inf != t.influence {
		return fmt.Sprintf("influence %v, oracle says %v (%v)", t.influence, inf, err)
	}
	return ""
}

// sameTrial compares two trials exactly, seeds in selection order.
func sameTrial(a, b trial) bool {
	return a.influence == b.influence && a.cost == b.cost && equalInts(toInts(a.seeds), toInts(b.seeds))
}

// seedKey identifies a seed set regardless of selection order.
func seedKey(seeds []graph.VertexID) string {
	sorted := toInts(seeds)
	sort.Ints(sorted)
	var b strings.Builder
	for i, v := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// compareStudy checks that the traced pass selected exactly what the untraced
// pass did, trial by trial, and counts each difference as a failure.
func compareStudy(untraced, traced *runResult) {
	for _, a := range studyApproaches {
		u, t := untraced.trials[a.name], traced.trials[a.name]
		n := min(len(u), len(t))
		traced.attempted += int64(n)
		for i := 0; i < n; i++ {
			if !sameTrial(u[i], t[i]) {
				traced.fail("study %s trial %d: traced run chose %v (%v), untraced %v (%v)", a.name, i, t[i].seeds, t[i].influence, u[i].seeds, u[i].influence)
			}
		}
	}
}
