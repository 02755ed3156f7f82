// Command imdist-perfbench is the repository's benchmark: one program that
// runs a named workload through imdist's entry points, checks every answer,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of its output.
//
//	bash perfbench/run.sh --workload study --seed 1 --seconds 12 --trace 0
//
// Every workload reports every end-to-end metric: each one builds, saves and
// opens a sketch, serves it over loopback HTTP in four closed-loop phases,
// and runs a slice of the paper's solution-distribution study on the
// Physicians surrogate. The workloads differ in the sketch they serve and in
// how the run's time is shared between the study and the serving phases.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart stands in for the process start time: setup_s of the first
// set-up counts from here.
var processStart = time.Now()

// rung is one workload of the benchmark: the sketch it builds and serves and
// the share of the run it spends on the study slice.
type rung struct {
	name string
	// dataset names a LoadDataset surrogate; empty means a generated BA graph.
	dataset  string
	baN, baM int
	prob     string
	rrSets   int
	// shards > 0 serves the sketch split into that many shard servers behind
	// a cluster coordinator instead of one server.
	shards int
	// studyShare is the share of --seconds spent on the study slice; the
	// rest goes to the four serving phases.
	studyShare float64
	// rounds is how many times a run sets up; setup_s, build_s and open_s
	// report the median over the rounds.
	rounds int
}

// The workloads, with why each was chosen in BENCHMARK.json.
var workloads = []rung{
	{name: "study", dataset: "Physicians", prob: "uc0.1", rrSets: studyOracleSets, studyShare: 0.6, rounds: 6},
	{name: "serve-sparse", baN: 100_000, baM: 3, prob: "iwc", rrSets: 200_000, studyShare: 0.2, rounds: 5},
	{name: "serve-dense", baN: 2000, baM: 20, prob: "uc0.1", rrSets: 20_000, studyShare: 0.2, rounds: 3},
	{name: "fleet-sparse", baN: 100_000, baM: 3, prob: "iwc", rrSets: 200_000, shards: 2, studyShare: 0.2, rounds: 4},
}

// baGraphSeed fixes the generated graphs, so only the sketch and the query
// streams depend on --seed.
const baGraphSeed = 1

// cycleSeconds is the target length of one cycle: a slice of the study and
// of each serving phase. A run rotates through its cycles so that every
// metric samples the whole run rather than one stretch of it.
const cycleSeconds = 0.5

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"build_s", "s"},
	{"open_s", "s"},
	{"peak_rss_mb", "MB"},
	{"influence_qps", "1/s"},
	{"influence_p50_ms", "ms"},
	{"batch_qps", "1/s"},
	{"seeds_p50_ms", "ms"},
	{"seeds_p90_ms", "ms"},
	{"top_p90_ms", "ms"},
	{"oneshot_trials_per_s", "1/s"},
	{"snapshot_trials_per_s", "1/s"},
	{"ris_trials_per_s", "1/s"},
}

var (
	routes     = []string{"influence", "batch", "seeds", "top"}
	kernels    = []string{"epoch", "bitpack"}
	layers     = []string{"graph", "estimator", "greedy", "core", "sketchio", "server", "client", "cluster"}
	coreTimers = []metricSpec{{"core.influence_us", "us"}, {"core.batch_us_per_query", "us"}, {"core.greedy_ms", "ms"}, {"core.top_ms", "ms"}}
)

// perLayer lists every per-layer metric in output order.
func perLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit string) { out = append(out, metricSpec{name, unit}) }
	add("graph.generate_s", "s")
	for _, a := range studyApproaches {
		add("estimator.new_s."+a.name, "s")
		add("estimator.estimate_s."+a.name, "s")
		add("estimator.estimate_calls."+a.name, "count")
		add("estimator.update_s."+a.name, "s")
		add("greedy.self_s."+a.name, "s")
		add("diffusion.traversal."+a.name, "count")
		add("diffusion.sample_size."+a.name, "count")
	}
	add("core.oracle_eval_s", "s")
	add("core.sample_s", "s")
	add("core.rr_members", "count")
	add("core.first_query_s", "s")
	for _, k := range append([]string{""}, kernels...) {
		for _, m := range coreTimers {
			if k == "" {
				add(m.name, m.unit)
			} else {
				add(m.name+"."+k, m.unit)
			}
		}
	}
	add("sketchio.save_s", "s")
	add("sketchio.open_s", "s")
	add("sketchio.open_allocs", "count")
	add("sketchio.sketch_bytes", "bytes")
	add("sketchio.split_s", "s")
	for _, r := range routes {
		add("server.handler_us."+r, "us")
		add("server.req_bytes."+r, "bytes")
		add("server.resp_bytes."+r, "bytes")
	}
	add("server.seed_computations", "count")
	add("server.cache_misses", "count")
	for _, r := range routes {
		add("client.overhead_us."+r, "us")
	}
	add("client.influence_p99_ms", "ms")
	add("client.batch_p99_ms", "ms")
	add("client.top_p50_ms", "ms")
	for _, r := range routes {
		add("cluster.shard_rpcs."+r, "count")
		add("cluster.shard_bytes."+r, "bytes")
		add("cluster.shard_wait_us."+r, "us")
		add("cluster.coordinator_self_us."+r, "us")
	}
	for _, r := range routes {
		add("runtime.alloc_bytes_per_op."+r, "bytes")
		add("runtime.gc_cycles."+r, "count")
	}
	for _, l := range layers {
		add(l+".self_s", "s")
	}
	for _, m := range endToEnd {
		add("overhead."+m.name, m.unit)
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "imdist-perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("imdist-perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the run's inputs are derived from")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	var w *rung
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	case *seconds < 1:
		return fmt.Errorf("--seconds must be >= 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}

	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	budget := time.Duration(*seconds) * time.Second
	untraced, err := measure(w, *seed, budget, dir, nil)
	if err != nil {
		return err
	}
	out := untraced.e2e
	units := endToEnd
	rep := untraced
	if *trace == 1 {
		// The traced pass repeats the run with spans recorded at every layer
		// boundary; its end-to-end numbers minus the untraced ones are the
		// tracing overhead. Handing the untraced pass's heap back to the OS
		// first keeps its garbage out of the traced pass's memory.
		debug.FreeOSMemory()
		tr := newTracer()
		traced, err := measure(w, *seed, budget, dir, tr)
		if err != nil {
			return err
		}
		compareStudy(untraced, traced)
		out = traced.layer
		for _, m := range endToEnd {
			out["overhead."+m.name] = traced.e2e[m.name] - untraced.e2e[m.name]
		}
		for l, s := range tr.layerSelfSeconds() {
			out[l+".self_s"] = s
		}
		// Allocation and GC counts and the client latencies come from the
		// untraced pass: the spans themselves allocate and take time.
		for _, m := range []string{"client.influence_p99_ms", "client.batch_p99_ms", "client.top_p50_ms"} {
			out[m] = untraced.layer[m]
		}
		for _, r := range routes {
			for _, m := range []string{"runtime.alloc_bytes_per_op.", "runtime.gc_cycles."} {
				out[m+r] = untraced.layer[m+r]
			}
		}
		units = perLayer()
		rep = traced
		rep.attempted += untraced.attempted
		rep.failures = append(untraced.failures, traced.failures...)
		path := filepath.Join(".bench_build", "spans-"+w.name+".csv")
		if err := tr.writeCSV(path); err != nil {
			return err
		}
		rep.labels["spans_file"] = path
		rep.labels["spans"] = strconv.Itoa(len(tr.spansSoFar()))
	}

	res := result{Metrics: make(map[string]metricValue, len(units))}
	for _, m := range units {
		v, ok := out[m.name]
		if !ok {
			return fmt.Errorf("internal error: metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	res.Attempted = rep.attempted
	res.Failed = int64(len(rep.failures))
	res.Correct = res.Failed == 0
	for _, f := range rep.failures[:min(len(rep.failures), 20)] {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	report, err := json.Marshal(map[string]any{"workload": w.name, "seed": *seed, "labels": rep.labels})
	if err != nil {
		return err
	}
	fmt.Printf("report %s\n", report)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runResult is one measured pass over a workload.
type runResult struct {
	e2e       map[string]float64
	layer     map[string]float64
	labels    map[string]string
	attempted int64
	failures  []string
	// trials holds each approach's study trials, phases each route's pooled
	// serving results, both over all rounds.
	trials      map[string][]trial
	owed        map[string]time.Duration // study time budgeted but not spent
	evalSeconds []float64
	phases      map[string]*phaseResult
	// cursors is each route's position in each client's request list.
	cursors map[string]*[clients]int
	// slices is the number of study and serving slices in the pass, slice
	// the number started so far; minimum trial and sample counts are spread
	// over the slices.
	slices, slice int
}

// perSlice spreads a minimum count over the pass's slices.
func (r *runResult) perSlice(total int) int { return (total + r.slices - 1) / r.slices }

func (r *runResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// measure runs one pass. Each of the workload's rounds sets up from scratch,
// rotates through its cycles — a slice of the study, then of each serving
// phase — and tears the set-up down. tr is nil for the untraced pass.
func measure(w *rung, seed uint64, budget time.Duration, dir string, tr *tracer) (*runResult, error) {
	cycles := max(1, int(math.Round(budget.Seconds()/float64(w.rounds)/cycleSeconds)))
	r := &runResult{
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		labels:  map[string]string{},
		trials:  map[string][]trial{},
		owed:    map[string]time.Duration{},
		cursors: map[string]*[clients]int{},
		phases:  map[string]*phaseResult{},
		slices:  w.rounds * cycles,
	}
	var setupS, buildS, openS []float64
	slice := budget / time.Duration(r.slices)
	studyBudget := time.Duration(float64(slice) * w.studyShare)
	for i := 0; i < w.rounds; i++ {
		start := time.Now()
		if i == 0 && tr == nil {
			start = processStart
		}
		env, err := setup(w, seed, dir, tr, r)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		buildS = append(buildS, env.buildTime.Seconds())
		openS = append(openS, env.openTime)
		for c := 0; c < cycles && err == nil; c++ {
			err = runStudy(env, seed, studyBudget, tr, r)
			if err == nil {
				err = serve(env, slice-studyBudget, tr, r)
			}
		}
		if err == nil && i == w.rounds-1 {
			replayStudy(env, seed, r)
			if tr != nil {
				setupMetrics(tr.spansSoFar(), env, r)
				err = measureKernels(env, tr, r)
			}
		}
		env.close()
		if err != nil {
			return nil, err
		}
		// Collect the round's garbage so the next set-up reuses its pages.
		runtime.GC()
	}
	r.e2e["setup_s"] = median(setupS)
	r.e2e["build_s"] = median(buildS)
	r.e2e["open_s"] = median(openS)
	r.e2e["peak_rss_mb"] = peakRSSMB()
	finishStudy(tr, r)
	finishServe(tr, r)
	return r, nil
}

// setupMetrics averages the set-up spans over the set-ups of the pass.
func setupMetrics(spans []span, e *env, r *runResult) {
	total := map[string]float64{}
	for _, s := range spans {
		total[s.Name] += s.seconds()
	}
	for metric, name := range map[string]string{
		"graph.generate_s": "graph.generate",
		"core.sample_s":    "core.sample",
		"sketchio.save_s":  "sketchio.save",
		"sketchio.split_s": "sketchio.split",
	} {
		r.layer[metric] = total[name] / float64(e.w.rounds)
	}
	opens := float64(e.w.rounds * openRepeats)
	r.layer["sketchio.open_s"] = total["sketchio.open"] / opens
	r.layer["sketchio.open_allocs"] /= opens
	r.layer["sketchio.sketch_bytes"] = float64(e.sketchBytes)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// peakRSSMB is the process's resident-set high-water mark in MB. In a
// traced run it covers both passes, so the traced pass reports the larger.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
