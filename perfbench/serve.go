package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"

	"imdist/internal/core"
	"imdist/internal/graph"
	"imdist/internal/sketchio"
)

// phase is one closed-loop serving phase: its route, its share of each
// slice's serving time, and the fewest latencies a pass collects for it, ten
// beyond the tail percentile reported for the route.
type phase struct {
	route      string
	share      float64
	minSamples int
}

var phases = []phase{
	{"influence", 0.2, 1000},
	{"batch", 0.3, 1000},
	{"seeds", 0.25, 100},
	{"top", 0.25, 100},
}

type phaseResult struct {
	lat []float64 // milliseconds
	// slices holds each slice's latencies and rates its throughput, in
	// requests or, for batch, queries per second.
	slices   [][]float64
	rates    []float64
	elapsed  time.Duration
	requests int64
	items    int64
	// reqBytes and respBytes are the body bytes sent and received.
	reqBytes, respBytes int64
	failures            []string
	// Process and server counters over the phase.
	allocBytes, gcCycles          uint64
	seedComputations, cacheMisses uint64
}

func (p *phaseResult) add(o phaseResult) {
	p.lat = append(p.lat, o.lat...)
	p.slices = append(p.slices, o.slices...)
	p.rates = append(p.rates, o.rates...)
	p.elapsed += o.elapsed
	p.requests += o.requests
	p.items += o.items
	p.reqBytes += o.reqBytes
	p.respBytes += o.respBytes
	p.failures = append(p.failures, o.failures...)
	p.allocBytes += o.allocBytes
	p.gcCycles += o.gcCycles
	p.seedComputations += o.seedComputations
	p.cacheMisses += o.cacheMisses
}

// serverCounters are the counters the servers expose on /v1/sketches, summed
// over every server of the set-up.
type serverCounters struct{ seedComputations, cacheMisses uint64 }

func (e *env) counters() (serverCounters, string, error) {
	var c serverCounters
	var kernel string
	for _, url := range e.urls {
		var list struct {
			Sketches []struct {
				Kernel           string `json:"kernel"`
				CacheMisses      uint64 `json:"cache_misses"`
				SeedComputations uint64 `json:"seed_computations"`
			} `json:"sketches"`
		}
		if err := getJSON(e.client, url+"/v1/sketches", &list); err != nil {
			return c, "", err
		}
		for _, s := range list.Sketches {
			c.seedComputations += s.SeedComputations
			c.cacheMisses += s.CacheMisses
			kernel = s.Kernel
		}
	}
	return c, kernel, nil
}

// serve runs one slice of the four phases against the front end, adding
// each phase's samples to the run's pooled results and checking the servers'
// counters.
func serve(e *env, budget time.Duration, tr *tracer, r *runResult) error {
	direct := e.w.shards == 0
	for _, p := range phases {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0, kernel, err := e.counters()
		if err != nil {
			return err
		}
		r.labels["kernel"] = kernel
		next := r.cursors[p.route]
		if next == nil {
			next = new([clients]int)
			r.cursors[p.route] = next
		}
		share := time.Duration(float64(budget) * p.share)
		res := runSlice(e.client, e.front, e.pools[p.route], p.route, share, r.perSlice(p.minSamples), next, tr)
		c1, _, err := e.counters()
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		res.gcCycles = uint64(m1.NumGC - m0.NumGC)
		res.seedComputations = c1.seedComputations - c0.seedComputations
		res.cacheMisses = c1.cacheMisses - c0.cacheMisses

		r.attempted += res.requests
		r.failures = append(r.failures, res.failures...)
		switch {
		case !direct:
			// The coordinator runs greedy and top itself over the shard
			// primitives; the shard servers' counters do not see them.
		case p.route == "seeds" && res.seedComputations != uint64(res.requests):
			// Every seeds request must have run its own greedy: nothing was
			// cached or coalesced with a concurrent request.
			r.fail("seeds phase: %d greedy computations for %d requests", res.seedComputations, res.requests)
		case p.route == "top" && res.cacheMisses != 2*uint64(res.requests):
			// With the cache disabled an uncoalesced top request misses twice
			// (before and inside its single-flight call), a coalesced one once.
			r.fail("top phase: %d cache misses for %d requests", res.cacheMisses, res.requests)
		}
		pooled := r.phases[p.route]
		if pooled == nil {
			pooled = &phaseResult{}
			r.phases[p.route] = pooled
		}
		pooled.add(res)
	}
	return nil
}

// finishServe reports the serving metrics from the samples pooled over the
// rounds, and in the traced pass the per-route layer metrics from the spans.
func finishServe(tr *tracer, r *runResult) {
	var computations, misses uint64
	for _, p := range phases {
		res := r.phases[p.route]
		groups := res.groups(p.minSamples)
		r.labels[p.route+"_samples"] = strconv.Itoa(len(res.lat))
		r.labels[p.route+"_groups"] = strconv.Itoa(len(groups))
		r.labels[p.route+"_seconds"] = strconv.FormatFloat(res.elapsed.Seconds(), 'f', 2, 64)
		q := func(x float64) float64 {
			vs := make([]float64, len(groups))
			for i, g := range groups {
				vs[i] = quantile(g, x)
			}
			return median(vs)
		}
		switch p.route {
		case "influence":
			r.e2e["influence_qps"] = median(res.rates)
			r.e2e["influence_p50_ms"] = q(0.5)
		case "batch":
			r.e2e["batch_qps"] = median(res.rates)
		case "seeds":
			r.e2e["seeds_p50_ms"] = q(0.5)
			r.e2e["seeds_p90_ms"] = q(0.9)
		case "top":
			// The median top latency is not an end-to-end metric: on
			// serve-dense the top latencies fall into two modes about 1.5
			// times apart, and the median lies between them, so it jumps
			// with the mix of the two from run to run.
			r.layer["client.top_p50_ms"] = q(0.5)
			r.labels["top_p50_ms"] = strconv.FormatFloat(q(0.5), 'f', 4, 64)
			r.e2e["top_p90_ms"] = q(0.9)
		}
		// The p99 tails of the fast routes are not end-to-end metrics: on a
		// shared two-CPU machine their run-to-run spread exceeds any bound
		// the benchmark may set.
		if p.minSamples >= 1000 {
			r.layer["client."+p.route+"_p99_ms"] = q(0.99)
			r.labels[p.route+"_p99_ms"] = strconv.FormatFloat(q(0.99), 'f', 4, 64)
		}
		n := float64(max(res.requests, 1))
		r.layer["runtime.alloc_bytes_per_op."+p.route] = float64(res.allocBytes) / n
		r.layer["runtime.gc_cycles."+p.route] = float64(res.gcCycles)
		r.layer["server.req_bytes."+p.route] = float64(res.reqBytes) / n
		r.layer["server.resp_bytes."+p.route] = float64(res.respBytes) / n
		computations += res.seedComputations
		misses += res.cacheMisses
	}
	r.layer["server.seed_computations"] = float64(computations)
	r.layer["server.cache_misses"] = float64(misses)
	if tr != nil {
		routeMetrics(tr.spansSoFar(), r)
	}
}

// groups splits the pass's slices, in run order, into as many groups of at
// least minSamples latencies as there are samples for, each sorted.
// Throughput is the median over slices and a latency quantile the median
// over groups, so a stretch of interference from outside the benchmark moves
// neither.
func (p *phaseResult) groups(minSamples int) [][]float64 {
	n := max(1, len(p.lat)/minSamples)
	out := make([][]float64, 0, n)
	var cur []float64
	for i, s := range p.slices {
		cur = append(cur, s...)
		// Close the group once it holds its share of the samples so far.
		if len(out) < n-1 && len(cur)*n >= len(p.lat) || i == len(p.slices)-1 {
			sort.Float64s(cur)
			out = append(out, cur)
			cur = nil
		}
	}
	return out
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// routeMetrics derives the per-route layer metrics of the traced pass. The
// front handler span of a request is the child of its client span; shard
// calls are children of the coordinator's handler span.
func routeMetrics(spans []span, r *runResult) {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type acc struct {
		handler, overhead, wait, self []float64
		rpcs, rpcBytes, n             float64
	}
	per := map[string]*acc{}
	for _, route := range routes {
		per[route] = &acc{}
	}
	for _, c := range spans {
		if c.layer() != "client" {
			continue
		}
		a := per[c.Name[len("client."):]]
		if a == nil {
			continue // the first query of a set-up
		}
		kids := children[c.ID]
		if len(kids) != 1 {
			continue
		}
		h := kids[0]
		a.n++
		a.handler = append(a.handler, float64(h.End-h.Start)/1e3)
		a.overhead = append(a.overhead, float64((c.End-c.Start)-(h.End-h.Start))/1e3)
		var rpcs []span
		for _, k := range children[h.ID] {
			if k.layer() == "cluster" {
				rpcs = append(rpcs, k)
				a.rpcBytes += float64(k.Bytes)
			}
		}
		a.rpcs += float64(len(rpcs))
		wait := covered(h, rpcs)
		a.wait = append(a.wait, float64(wait)/1e3)
		a.self = append(a.self, float64(h.End-h.Start-wait)/1e3)
	}
	for route, a := range per {
		r.layer["server.handler_us."+route] = median(a.handler)
		r.layer["client.overhead_us."+route] = median(a.overhead)
		r.layer["cluster.shard_rpcs."+route] = a.rpcs / max(a.n, 1)
		r.layer["cluster.shard_bytes."+route] = a.rpcBytes / max(a.n, 1)
		r.layer["cluster.shard_wait_us."+route] = 0
		r.layer["cluster.coordinator_self_us."+route] = 0
		if a.rpcs > 0 {
			r.layer["cluster.shard_wait_us."+route] = median(a.wait)
			r.layer["cluster.coordinator_self_us."+route] = median(a.self)
		}
	}
}

// kernelCap bounds the packed index the forced-bitpack head-to-head may
// build; above it (the sparse sketches need gigabytes) the bitpack timings
// are skipped and read 0.
const kernelCap = 256 << 20

// measureKernels times the coverage kernel in process on a fresh mapping of
// the served sketch: under the resolved kernel, then forced to each kernel.
func measureKernels(e *env, tr *tracer, r *runResult) error {
	m, err := sketchio.OpenMapped(e.sketchPath)
	if err != nil {
		return err
	}
	defer m.Close()
	o := m.Oracle()
	var influence [][]graph.VertexID
	for _, list := range e.pools["influence"] {
		for _, q := range list {
			influence = append(influence, q.seeds)
		}
	}
	s := tr.begin("core.first_query", spanCtx{})
	_, err = o.Influence(e.first.seeds)
	s = tr.finish(s)
	if err != nil {
		return err
	}
	r.layer["core.first_query_s"] = s.seconds()
	r.labels["kernel_resolved"] = string(o.KernelResolved())

	time1 := func(name string, fn func()) float64 {
		s := tr.begin(name, spanCtx{})
		fn()
		s = tr.finish(s)
		return float64(s.End - s.Start)
	}
	for _, k := range []string{"", "epoch", "bitpack"} {
		suffix := ""
		if k != "" {
			suffix = "." + k
			if k == "bitpack" && core.PackedIndexBytes(o.NumVertices(), o.NumSets()) > kernelCap {
				for _, m := range coreTimers {
					r.layer[m.name+suffix] = 0
				}
				r.labels["bitpack_skipped"] = fmt.Sprintf("packed index %d bytes > %d", core.PackedIndexBytes(o.NumVertices(), o.NumSets()), kernelCap)
				continue
			}
			if err := o.SetKernel(core.Kernel(k)); err != nil {
				return err
			}
			_, _ = o.Influence(e.first.seeds) // build the packed index outside the timings
		}
		var inf, batch, greedy, top []float64
		budget := time.Now().Add(300 * time.Millisecond)
		for i := 0; i < len(influence) && (i < 100 || time.Now().Before(budget)); i++ {
			inf = append(inf, time1("core.influence", func() { _, _ = o.Influence(influence[i]) })/1e3)
		}
		budget = time.Now().Add(300 * time.Millisecond)
		for i := 0; i+batchSize <= len(influence) && (i < 10*batchSize || time.Now().Before(budget)); i += batchSize {
			batch = append(batch, time1("core.batch", func() { o.BatchInfluence(influence[i:i+batchSize], -1) })/1e3/batchSize)
		}
		for _, kk := range []int{minK, (minK + maxK) / 2, maxK} {
			greedy = append(greedy, time1("core.greedy", func() { o.GreedySeeds(kk) })/1e6)
			top = append(top, time1("core.top", func() { o.TopSingleVertices(kk) })/1e6)
		}
		r.layer["core.influence_us"+suffix] = median(inf)
		r.layer["core.batch_us_per_query"+suffix] = median(batch)
		r.layer["core.greedy_ms"+suffix] = median(greedy)
		r.layer["core.top_ms"+suffix] = median(top)
	}
	return o.SetKernel(core.KernelAuto)
}
