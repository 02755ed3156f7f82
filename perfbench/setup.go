package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"imdist/internal/cluster"
	"imdist/internal/core"
	"imdist/internal/data"
	"imdist/internal/diffusion"
	"imdist/internal/gen"
	"imdist/internal/graph"
	"imdist/internal/rng"
	"imdist/internal/server"
	"imdist/internal/sketchio"
	"imdist/internal/workload"
)

const (
	// clients is the closed loop's client count, one keep-alive connection
	// each; it matches the two CPUs the baseline was measured on.
	clients = 2
	// buildWorkers is the RR-sampling parallelism of every sketch build.
	buildWorkers = 2
	// Query shapes: hotspot seed sets of at most maxQuerySeeds vertices,
	// batches of batchSize queries, and k in [minK, maxK] for seeds and top.
	maxQuerySeeds = 8
	batchSize     = 64
	minK, maxK    = 5, 15
	// Pool sizes: the clients cycle through these precomputed requests.
	influencePool = 2048
	batchPool     = 128
)

// request is one precomputed HTTP request with the body a correct server
// answers it with.
type request struct {
	method, path string
	body, want   []byte
	// items is the number of influence queries the request carries.
	items int
	// seeds is the seed set of an influence request.
	seeds []graph.VertexID
}

// env is one set-up: the served sketch behind a loopback front end, the
// study's graph and oracle, and the precomputed requests.
type env struct {
	w           *rung
	sketchPath  string
	shardPaths  []string
	sketchBytes int64
	n           int

	studyGraph  *graph.InfluenceGraph
	studyOracle *core.Oracle

	// front is the URL the clients talk to; urls are the servers holding
	// the sketch (the front itself, or the shards behind the coordinator).
	front   string
	urls    []string
	servers []*server.Server
	stops   []func()
	client  *http.Client

	// pools holds each route's requests, split between the clients.
	pools map[string][clients][]*request
	// first is the query sent right after opening: a multi-seed influence
	// query, since single-seed queries skip the kernel and its lazy pack.
	first *request

	buildTime time.Duration
	openTime  float64 // seconds
}

func (e *env) close() {
	for i := len(e.stops) - 1; i >= 0; i-- {
		e.stops[i]()
	}
	e.stops = nil
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	for _, s := range e.servers {
		s.Registry().UnloadAll()
		s.Close()
	}
	e.servers = nil
	removeSketchFiles(e.sketchPath)
}

func removeSketchFiles(path string) {
	if path == "" {
		return
	}
	matches, _ := filepath.Glob(path + "*")
	for _, m := range matches {
		_ = os.Remove(m)
	}
}

// mix derives an independent 64-bit seed for one purpose from the run seed.
func mix(seed uint64, purpose uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + purpose*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Purposes passed to mix.
const (
	seedSketch = iota + 1
	seedStudyOracle
	seedInfluence
	seedBatch
	seedK
	seedStudyTrials
	seedOrder
)

func loadGraph(w *rung, tr *tracer) (*graph.InfluenceGraph, error) {
	s := tr.begin("graph.generate", spanCtx{})
	defer tr.finish(s)
	var (
		g   *graph.Graph
		err error
	)
	if w.dataset != "" {
		ds, perr := data.Parse(w.dataset)
		if perr != nil {
			return nil, perr
		}
		g, err = data.Load(ds, data.DefaultOptions())
	} else {
		g, err = gen.BarabasiAlbert(w.baN, w.baM, rng.NewXoshiro(baGraphSeed))
	}
	if err != nil {
		return nil, err
	}
	model, err := workload.ParseModel(w.prob)
	if err != nil {
		return nil, err
	}
	return workload.Assign(g, model, rng.NewXoshiro(baGraphSeed))
}

// setup builds one complete environment: graph, sketch (built the way
// imsketch builds it, saved, split for a fleet), the study oracle, the
// expected answers, and the loopback servers with the sketch opened mmapped.
func setup(w *rung, seed uint64, dir string, tr *tracer, r *runResult) (*env, error) {
	e := &env{w: w, sketchPath: filepath.Join(dir, w.name+".sketch")}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	ig, err := loadGraph(w, tr)
	if err != nil {
		return nil, err
	}
	e.n = ig.NumVertices()

	buildStart := time.Now()
	oracle, err := buildSketch(ig, mix(seed, seedSketch), w.rrSets, e.sketchPath, tr)
	if err != nil {
		return nil, err
	}
	if w.shards > 0 {
		s := tr.begin("sketchio.split", spanCtx{})
		e.shardPaths, err = sketchio.SplitSketch(e.sketchPath, e.sketchPath, w.shards)
		tr.finish(s)
		if err != nil {
			return nil, err
		}
	}
	e.buildTime = time.Since(buildStart)
	if fi, err := os.Stat(e.sketchPath); err == nil {
		e.sketchBytes = fi.Size()
	}
	r.layer["core.rr_members"] = float64((oracle.PayloadBytes() - 4*int64(oracle.NumSets())) / 4)

	if w.dataset == studyDataset && w.prob == studyProb {
		e.studyGraph, e.studyOracle = ig, oracle
	} else {
		if e.studyGraph, err = loadGraph(&rung{dataset: studyDataset, prob: studyProb}, tr); err != nil {
			return nil, err
		}
		s := tr.begin("core.study_oracle", spanCtx{})
		e.studyOracle, err = core.NewOracleParallelSeeded(e.studyGraph, diffusion.IC, studyOracleSets, studyWorkers, mix(seed, seedStudyOracle))
		tr.finish(s)
		if err != nil {
			return nil, err
		}
	}

	if err := e.makeRequests(oracle, seed, r); err != nil {
		return nil, err
	}
	// The served copy is the mmapped file from here on. Collect the build's
	// heap first, as if imsketch had exited before imserve starts.
	oracle = nil
	runtime.GC()

	e.client = newClient()
	if err := e.open(tr, r); err != nil {
		return nil, err
	}
	ok = true
	return e, nil
}

// buildSketch grows the sketch with core.SketchBuilder in imsketch's
// geometric rounds, finalizes the member index and saves the file.
func buildSketch(ig *graph.InfluenceGraph, seed uint64, rrSets int, path string, tr *tracer) (*core.Oracle, error) {
	b, err := core.NewSketchBuilder(ig, diffusion.IC, buildWorkers, seed)
	if err != nil {
		return nil, err
	}
	round := tr.begin("core.sample", spanCtx{})
	_, err = b.BuildToTarget(context.Background(), core.BuildTarget{
		MaxSets: rrSets,
		Progress: func(p core.BuildProgress) error {
			// Progress runs after every round, so each span covers exactly
			// one AppendBatch.
			if p.Appended > 0 {
				tr.finish(round)
			}
			round = tr.begin("core.sample", spanCtx{})
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	s := tr.begin("core.index", spanCtx{})
	oracle, err := b.Oracle()
	tr.finish(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("sketchio.save", spanCtx{})
	err = sketchio.WriteFile(path, oracle)
	tr.finish(s)
	return oracle, err
}

// makeRequests precomputes every route's request pool and its expected
// bodies, taken from a server over the in-memory, unsplit oracle and checked
// against the oracle's own answers.
func (e *env) makeRequests(o *core.Oracle, seed uint64, r *runResult) error {
	ref, err := server.New(server.Config{Oracle: o, CacheSize: -1})
	if err != nil {
		return err
	}
	defer ref.Close()
	refDo := func(q *request) error {
		var body io.Reader
		if q.body != nil {
			body = bytes.NewReader(q.body)
		}
		rec := httptest.NewRecorder()
		ref.Handler().ServeHTTP(rec, httptest.NewRequest(q.method, q.path, body))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("reference server answered %s %s with %d: %s", q.method, q.path, rec.Code, rec.Body.Bytes())
		}
		q.want = rec.Body.Bytes()
		return nil
	}

	e.pools = map[string][clients][]*request{}
	sets, err := workload.SeedSets(workload.MixHotspot, e.n, influencePool, maxQuerySeeds, rng.NewXoshiro(mix(seed, seedInfluence)))
	if err != nil {
		return err
	}
	var influence []*request
	for _, s := range sets {
		q := &request{method: http.MethodPost, path: "/v1/influence", body: seedsJSON(s), seeds: s, items: 1}
		if err := refDo(q); err != nil {
			return err
		}
		var got server.InfluenceResponse
		want, verr := o.Influence(server.CanonicalSeeds(toInts(s)))
		if err := json.Unmarshal(q.want, &got); err != nil || verr != nil || got.Influence != want {
			r.fail("setup: reference influence of %v is %s, oracle says %v", s, q.want, want)
		}
		influence = append(influence, q)
		if e.first == nil && len(s) > 1 {
			e.first = q
		}
	}
	e.pools["influence"] = deal(influence, mix(seed, seedOrder))

	sets, err = workload.SeedSets(workload.MixHotspot, e.n, batchPool*batchSize, maxQuerySeeds, rng.NewXoshiro(mix(seed, seedBatch)))
	if err != nil {
		return err
	}
	var batch []*request
	for i := 0; i < len(sets); i += batchSize {
		chunk := sets[i : i+batchSize]
		var buf bytes.Buffer
		buf.WriteByte('[')
		for j, s := range chunk {
			if j > 0 {
				buf.WriteByte(',')
			}
			buf.Write(seedsJSON(s))
		}
		buf.WriteByte(']')
		q := &request{method: http.MethodPost, path: "/v1/influence:batch", body: buf.Bytes(), items: len(chunk)}
		if err := refDo(q); err != nil {
			return err
		}
		var got []server.BatchItem
		if err := json.Unmarshal(q.want, &got); err != nil || len(got) != len(chunk) {
			r.fail("setup: reference batch answer does not decode: %v", err)
		} else {
			for j, s := range chunk {
				want, verr := o.Influence(server.CanonicalSeeds(toInts(s)))
				if verr != nil || got[j].InfluenceResponse == nil || got[j].Influence != want {
					r.fail("setup: reference batch item %v disagrees with the oracle (%v)", s, want)
				}
			}
		}
		batch = append(batch, q)
	}
	e.pools["batch"] = deal(batch, mix(seed, seedOrder)+1)

	// The two clients never ask for the same k at once: client 0 takes the
	// even k, client 1 the odd k, so no seeds or top request is coalesced
	// with another in flight.
	topVs, topInfs := o.TopSingleVertices(maxK)
	var seeds, top [clients][]*request
	for _, k := range shuffled(maxK-minK+1, mix(seed, seedK)) {
		k += minK
		c := k % clients
		sq := &request{method: http.MethodPost, path: "/v1/seeds", body: []byte(`{"k":` + strconv.Itoa(k) + `}`), items: 1}
		tq := &request{method: http.MethodGet, path: "/v1/top?k=" + strconv.Itoa(k), items: 1}
		for _, q := range []*request{sq, tq} {
			if err := refDo(q); err != nil {
				return err
			}
		}
		var gotSeeds server.SeedsResponse
		wantSeeds := toInts(o.GreedySeeds(k))
		if err := json.Unmarshal(sq.want, &gotSeeds); err != nil || !equalInts(gotSeeds.Seeds, wantSeeds) {
			r.fail("setup: reference seeds for k=%d disagree with the oracle", k)
		}
		var gotTop server.TopResponse
		if err := json.Unmarshal(tq.want, &gotTop); err != nil || !equalInts(gotTop.Vertices, toInts(topVs[:k])) || !equalFloats(gotTop.Influences, topInfs[:k]) {
			r.fail("setup: reference top for k=%d disagrees with the oracle", k)
		}
		seeds[c] = append(seeds[c], sq)
		top[c] = append(top[c], tq)
	}
	e.pools["seeds"] = seeds
	e.pools["top"] = top
	return nil
}

// shuffled returns a seeded permutation of 0..n-1.
func shuffled(n int, seed uint64) []int {
	src := rng.NewXoshiro(seed)
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// deal splits a pool between the clients, each starting at its own offset.
func deal(pool []*request, seed uint64) [clients][]*request {
	var out [clients][]*request
	for i, q := range pool {
		out[i%clients] = append(out[i%clients], q)
	}
	src := rng.NewXoshiro(seed)
	for c := range out {
		off := src.Intn(len(out[c]))
		out[c] = append(out[c][off:], out[c][:off]...)
	}
	return out
}

func seedsJSON(s []graph.VertexID) []byte {
	b, _ := json.Marshal(map[string][]int{"seeds": toInts(s)})
	return b
}

func toInts(vs []graph.VertexID) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// openRepeats is how many times each set-up opens the sketch; open_s of a
// set-up is the median.
const openRepeats = 3

// open starts the loopback servers, then loads the saved sketch (or its
// shards) mmapped and sends the first query, openRepeats times. Each time
// open_s runs from the first load until that query is answered.
func (e *env) open(tr *tracer, r *runResult) error {
	paths := []string{e.sketchPath}
	if e.w.shards > 0 {
		paths = e.shardPaths
	}
	for range paths {
		srv, err := server.New(server.Config{AllowEmpty: true, CacheSize: -1, BatchWorkers: 1})
		if err != nil {
			return err
		}
		e.servers = append(e.servers, srv)
		url, stop, err := listen(tr.wrapHandler("server", srv.Handler()))
		if err != nil {
			return err
		}
		e.stops = append(e.stops, stop)
		e.urls = append(e.urls, url)
	}
	e.front = e.urls[0]
	if e.w.shards > 0 {
		cfg := cluster.Config{Targets: append([]string(nil), e.urls...)}
		if tr != nil {
			cfg.Transport = tr.wrapTransport(newShardTransport(len(e.urls)))
		}
		coord, err := cluster.New(cfg)
		if err != nil {
			return err
		}
		url, stop, err := listen(tr.wrapHandler("cluster", coord.Handler()))
		if err != nil {
			return err
		}
		e.stops = append(e.stops, stop)
		e.front = url
	}

	var times []float64
	for rep := range openRepeats {
		if rep > 0 {
			// Drop the previous copy first, so one copy is resident at a time.
			for _, srv := range e.servers {
				srv.Registry().UnloadAll()
			}
			runtime.GC()
		}
		start := time.Now()
		for i, srv := range e.servers {
			var before, after runtime.MemStats
			if tr != nil {
				runtime.ReadMemStats(&before)
			}
			s := tr.begin("sketchio.open", spanCtx{})
			err := srv.Registry().LoadFile(server.DefaultSketchName, paths[i])
			tr.finish(s)
			if err != nil {
				return err
			}
			if tr != nil {
				runtime.ReadMemStats(&after)
				r.layer["sketchio.open_allocs"] += float64(after.Mallocs - before.Mallocs)
			}
		}
		if _, _, err := send(e.client, e.front, e.first, "open", tr); err != nil {
			return fmt.Errorf("first query after open: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	e.openTime = median(times)
	return nil
}

// newShardTransport mirrors the pooled transport cluster.New builds when
// Config.Transport is nil, so the traced coordinator differs only by the
// counting wrapper.
func newShardTransport(targets int) *http.Transport {
	return &http.Transport{
		MaxIdleConns:        cluster.DefaultMaxIdleConnsPerHost * targets,
		MaxIdleConnsPerHost: cluster.DefaultMaxIdleConnsPerHost,
		IdleConnTimeout:     90 * time.Second,
	}
}

// listen serves h on a loopback port until the returned stop is called;
// stop waits for the serving goroutine to exit.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "imdist-perfbench: serve:", err)
		}
	}()
	stop := func() {
		_ = hs.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// getJSON reads a JSON status document from a server outside the timed
// phases.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
