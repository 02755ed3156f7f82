// Package cluster implements the scatter-gather coordinator of the
// distributed serving tier: one process that fronts a fleet of imserve shard
// servers, each holding one slice of a sketch split by imsketch -split, and
// serves the unchanged public /v1 query API with answers byte-identical to a
// single process serving the unsplit sketch.
//
// The identity argument is the batch engine's merge algebra taken over the
// network: every shard primitive (/v1/shard/coverage, /v1/shard/marginal)
// returns exact integer RR-set counts, integers sum exactly in any order, and
// the coordinator performs the one float division by the fleet-wide RR-set
// total itself — the same expression, on the same integers, as the unsplit
// oracle. Greedy seed selection runs core.LazyGreedy, the loop behind
// core.Oracle.GreedySeeds, over summed per-shard marginal counts; top-k ranks
// the summed per-vertex counts with core.RankCounts, the ranking behind
// TopSingleVertices. The gather work is proportional to the answer (counts
// and candidate gains), never to shards × RR sets.
//
// The coordinator holds no state besides its target list: every response
// carries the shard's identity (build identity + lineage), and the
// coordinator re-verifies fleet assembly on every gather — duplicated or
// missing shard indexes, mixed builds or splits, and wrong fleet sizes are
// rejected as 502s naming the offending target. Shards are therefore free to
// hot-reload through their own admin API at any time; an unreachable shard
// degrades the coordinator to 503s naming the missing target until it
// returns. No coordinator-side caching: the shard servers answer from their
// own caches and the merge is cheap, so a reloaded shard is visible
// immediately.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"imdist/internal/core"
	"imdist/internal/server"
)

// Defaults for Config zero values, matching internal/server where the knob
// has a server-side counterpart.
const (
	DefaultMaxBodyBytes    = server.DefaultMaxBodyBytes
	DefaultMaxSeeds        = server.DefaultMaxSeeds
	DefaultMaxK            = server.DefaultMaxK
	DefaultMaxBatchQueries = server.DefaultMaxBatchQueries
	// DefaultMaxIdleConnsPerHost sizes the pooled transport's per-shard idle
	// connection pool. net/http's default of 2 would reopen connections on
	// every concurrent scatter.
	DefaultMaxIdleConnsPerHost = 32
	shutdownGrace              = 10 * time.Second
)

// Config configures a Coordinator. Zero values select defaults; Targets is
// required.
type Config struct {
	// Targets are the base URLs of the shard servers, one per shard
	// (e.g. http://127.0.0.1:8081). Order is irrelevant: shards are matched
	// by the lineage they report, not by position.
	Targets []string
	// Sketch is the sketch name queried on the shard servers by the unnamed
	// routes ("" = each shard's default sketch). Named routes
	// (/v1/sketches/{name}/...) always forward their own name.
	Sketch string
	// MaxBodyBytes, MaxSeeds, MaxK and MaxBatchQueries mirror the
	// server-side limits (defaults as in internal/server).
	MaxBodyBytes    int64
	MaxSeeds        int
	MaxK            int
	MaxBatchQueries int
	// Transport overrides the pooled HTTP transport (tests). Nil builds one
	// with DefaultMaxIdleConnsPerHost persistent connections per shard.
	Transport http.RoundTripper
}

// Coordinator fronts a shard fleet. It is stateless beyond its configuration:
// safe for concurrent use, nothing to invalidate on shard reloads.
type Coordinator struct {
	cfg    Config
	client *http.Client
	mux    *http.ServeMux
	start  time.Time
}

// New validates cfg, fills in defaults and returns a ready Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Targets) == 0 {
		return nil, errors.New("cluster: Config requires at least one shard target")
	}
	// Trim a copy: the caller's slice is not ours to rewrite.
	targets := make([]string, len(cfg.Targets))
	for i, t := range cfg.Targets {
		targets[i] = strings.TrimRight(t, "/")
		if !strings.HasPrefix(targets[i], "http://") && !strings.HasPrefix(targets[i], "https://") {
			return nil, fmt.Errorf("cluster: shard target %q is not an http(s) URL", t)
		}
	}
	cfg.Targets = targets
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxSeeds == 0 {
		cfg.MaxSeeds = DefaultMaxSeeds
	}
	if cfg.MaxK == 0 {
		cfg.MaxK = DefaultMaxK
	}
	if cfg.MaxBatchQueries == 0 {
		cfg.MaxBatchQueries = DefaultMaxBatchQueries
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConns:        DefaultMaxIdleConnsPerHost * len(cfg.Targets),
			MaxIdleConnsPerHost: DefaultMaxIdleConnsPerHost,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	c := &Coordinator{
		cfg:    cfg,
		client: &http.Client{Transport: transport},
		mux:    http.NewServeMux(),
		start:  time.Now(),
	}
	// The public query surface, byte-identical to internal/server.
	c.mux.HandleFunc("POST /v1/influence", c.handleInfluence)
	c.mux.HandleFunc("POST /v1/influence:batch", c.handleBatchInfluence)
	c.mux.HandleFunc("POST /v1/seeds", c.handleSeeds)
	c.mux.HandleFunc("GET /v1/top", c.handleTop)
	c.mux.HandleFunc("POST /v1/sketches/{sketch}/influence", c.handleInfluence)
	c.mux.HandleFunc("POST /v1/sketches/{sketch}/influence:batch", c.handleBatchInfluence)
	c.mux.HandleFunc("POST /v1/sketches/{sketch}/seeds", c.handleSeeds)
	c.mux.HandleFunc("GET /v1/sketches/{sketch}/top", c.handleTop)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// ListenAndServe serves on addr until ctx is cancelled, then shuts down
// gracefully, draining in-flight requests for up to shutdownGrace.
func (c *Coordinator) ListenAndServe(ctx context.Context, addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           c.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       server.DefaultReadTimeout,
		WriteTimeout:      server.DefaultWriteTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// ctx is already cancelled on this path: deriving the drain timeout
		// from it would make Shutdown return immediately and tear down
		// in-flight requests instead of draining them.
		//imvet:allow ctxflow — shutdown drain must outlive the cancelled serve ctx; bounded by shutdownGrace
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	}
}

// writeFleetError maps a scatter failure to the degraded-mode response: an
// unreachable or erroring shard is a 503 naming the missing target, a
// misassembled fleet (wrong lineage) a 502 naming the offender.
func writeFleetError(w http.ResponseWriter, err error) {
	var se *shardError
	if errors.As(err, &se) {
		// A shard answering "sketch not loaded" is a client addressing error,
		// not a fleet failure: pass the shard's own 404 through verbatim so
		// unknown-sketch requests read exactly as on a single process.
		if se.status == http.StatusNotFound && se.shardMsg != "" {
			server.WriteError(w, http.StatusNotFound, "%s", se.shardMsg)
			return
		}
		if se.unreachable {
			server.WriteError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
	}
	server.WriteError(w, http.StatusBadGateway, "%v", err)
}

// sketchFor resolves which sketch name to query on the shard servers: the
// {sketch} path segment when present (named routes), else the configured
// fleet-wide name ("" = each shard's default).
func (c *Coordinator) sketchFor(r *http.Request) string {
	if name := r.PathValue("sketch"); name != "" {
		return name
	}
	return c.cfg.Sketch
}

type influenceRequest struct {
	Seeds []int `json:"seeds"`
}

// validateSeedShape is the fleet-independent prefix of
// server.ValidateInfluenceSeeds — the checks that need no vertex count, with
// the same messages, applied before anything is scattered. The vertex-range
// check runs on the shards, whose shared validation echoes the
// single-process message back per item (itemError).
func (c *Coordinator) validateSeedShape(seeds []int) string {
	if len(seeds) == 0 {
		return "seeds must be non-empty"
	}
	if len(seeds) > c.cfg.MaxSeeds {
		return fmt.Sprintf("too many seeds: %d > %d", len(seeds), c.cfg.MaxSeeds)
	}
	return ""
}

// extendWriteDeadline mirrors the shard servers' deadline reset: scatter
// rounds can spend a while in flight, so the response write gets a fresh
// budget instead of whatever the gather left.
func extendWriteDeadline(w http.ResponseWriter) {
	_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(server.DefaultWriteTimeout))
}

func (c *Coordinator) handleInfluence(w http.ResponseWriter, r *http.Request) {
	var req influenceRequest
	if !server.DecodeBody(w, r, c.cfg.MaxBodyBytes, &req) {
		return
	}
	if msg := c.validateSeedShape(req.Seeds); msg != "" {
		server.WriteError(w, http.StatusBadRequest, "%s", msg)
		return
	}
	fleet, err := c.scatterCoverage(r.Context(), c.sketchFor(r), [][]int{req.Seeds})
	if err != nil {
		writeFleetError(w, err)
		return
	}
	if msg := fleet.itemError(0); msg != "" {
		server.WriteError(w, http.StatusBadRequest, "%s", msg)
		return
	}
	server.WriteJSON(w, http.StatusOK, server.InfluenceResponse{
		Influence: fleet.influence(fleet.counts[0]),
		CI99:      fleet.ci99(),
		Seeds:     len(server.CanonicalSeeds(req.Seeds)),
	})
}

func (c *Coordinator) handleBatchInfluence(w http.ResponseWriter, r *http.Request) {
	var reqs []influenceRequest
	if !server.DecodeBody(w, r, c.cfg.MaxBodyBytes, &reqs) {
		return
	}
	if len(reqs) == 0 {
		server.WriteError(w, http.StatusBadRequest, "batch must be a non-empty JSON array of influence requests")
		return
	}
	if len(reqs) > c.cfg.MaxBatchQueries {
		server.WriteError(w, http.StatusBadRequest, "too many batch queries: %d > %d", len(reqs), c.cfg.MaxBatchQueries)
		return
	}
	// One scatter evaluates every shape-valid item. Dedup by canonical seed
	// set mirrors the single-process batch handler: repeated queries share
	// one evaluation and one response object; range-invalid items come back
	// item-flagged from the shards, so a single bad query never fails the
	// batch.
	type pendingQuery struct {
		items []int
		seeds []int
		canon int
	}
	items := make([]server.BatchItem, len(reqs))
	var pending []pendingQuery
	pendingByKey := make(map[string]int)
	for i, req := range reqs {
		if msg := c.validateSeedShape(req.Seeds); msg != "" {
			items[i].Error = msg
			continue
		}
		canon := server.CanonicalSeeds(req.Seeds)
		key := make([]byte, 0, len(canon)*4)
		for _, v := range canon {
			key = strconv.AppendInt(key, int64(v), 10)
			key = append(key, ',')
		}
		if j, ok := pendingByKey[string(key)]; ok {
			pending[j].items = append(pending[j].items, i)
			continue
		}
		pendingByKey[string(key)] = len(pending)
		pending = append(pending, pendingQuery{items: []int{i}, seeds: req.Seeds, canon: len(canon)})
	}
	if len(pending) == 0 {
		server.WriteJSON(w, http.StatusOK, items)
		return
	}
	seedSets := make([][]int, len(pending))
	for j, p := range pending {
		seedSets[j] = p.seeds
	}
	fleet, err := c.scatterCoverage(r.Context(), c.sketchFor(r), seedSets)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	ci := fleet.ci99()
	for j, p := range pending {
		if msg := fleet.itemError(j); msg != "" {
			for _, i := range p.items {
				items[i].Error = msg
			}
			continue
		}
		resp := server.InfluenceResponse{
			Influence: fleet.influence(fleet.counts[j]),
			CI99:      ci,
			Seeds:     p.canon,
		}
		for _, i := range p.items {
			items[i].InfluenceResponse = &resp
		}
	}
	extendWriteDeadline(w)
	server.WriteJSON(w, http.StatusOK, items)
}

func (c *Coordinator) handleSeeds(w http.ResponseWriter, r *http.Request) {
	var req struct {
		K int `json:"k"`
	}
	if !server.DecodeBody(w, r, c.cfg.MaxBodyBytes, &req) {
		return
	}
	if req.K < 1 || req.K > c.cfg.MaxK {
		server.WriteError(w, http.StatusBadRequest, "k must be in [1, %d], got %d", c.cfg.MaxK, req.K)
		return
	}
	resp, err := c.greedySeeds(r.Context(), c.sketchFor(r), req.K)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	extendWriteDeadline(w)
	server.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleTop(w http.ResponseWriter, r *http.Request) {
	k := min(10, c.cfg.MaxK)
	if q := r.URL.Query().Get("k"); q != "" {
		parsed, err := strconv.Atoi(q)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, "invalid k %q", q)
			return
		}
		k = parsed
	}
	if k < 1 || k > c.cfg.MaxK {
		server.WriteError(w, http.StatusBadRequest, "k must be in [1, %d], got %d", c.cfg.MaxK, k)
		return
	}
	fleet, err := c.scatterMarginal(r.Context(), c.sketchFor(r), nil, nil)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	top := core.RankCounts(fleet.gains, k)
	resp := server.TopResponse{Vertices: toInts(top), Influences: make([]float64, len(top))}
	for i, v := range top {
		resp.Influences[i] = fleet.influence(fleet.gains[v])
	}
	extendWriteDeadline(w)
	server.WriteJSON(w, http.StatusOK, resp)
}

// healthzTarget is one shard server's slice of the coordinator healthz
// report.
type healthzTarget struct {
	Target string `json:"target"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Lineage as the shard's healthz reports it (its default sketch).
	ShardIndex *int `json:"shard_index,omitempty"`
	ShardCount int  `json:"shard_count,omitempty"`
	TotalSets  int  `json:"total_sets,omitempty"`
	Vertices   int  `json:"vertices,omitempty"`
	RRSets     int  `json:"rr_sets,omitempty"`
}

type healthzResponse struct {
	Status string `json:"status"`
	Mode   string `json:"mode"`
	Shards int    `json:"shards"`
	// Vertices and RRSets describe the assembled fleet (RRSets sums the
	// shards' slices), so load drivers can probe a coordinator exactly like
	// a single server.
	Vertices      int             `json:"vertices"`
	RRSets        int             `json:"rr_sets"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Targets       []healthzTarget `json:"targets"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{
		Status:        "ok",
		Mode:          "coordinator",
		Shards:        len(c.cfg.Targets),
		UptimeSeconds: time.Since(c.start).Seconds(),
		Targets:       make([]healthzTarget, len(c.cfg.Targets)),
	}
	var wg sync.WaitGroup
	for i, target := range c.cfg.Targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ht := healthzTarget{Target: target}
			var shard struct {
				Status     string `json:"status"`
				Vertices   int    `json:"vertices"`
				RRSets     int    `json:"rr_sets"`
				ShardIndex *int   `json:"shard_index"`
				ShardCount int    `json:"shard_count"`
				TotalSets  int    `json:"total_sets"`
			}
			if err := c.getJSON(r.Context(), target+"/healthz", &shard); err != nil {
				ht.Status = "unreachable"
				ht.Error = err.Error()
			} else {
				ht.Status = shard.Status
				ht.Vertices = shard.Vertices
				ht.RRSets = shard.RRSets
				ht.ShardIndex = shard.ShardIndex
				ht.ShardCount = shard.ShardCount
				ht.TotalSets = shard.TotalSets
			}
			resp.Targets[i] = ht
		}()
	}
	wg.Wait()
	for _, ht := range resp.Targets {
		if ht.Status != "ok" {
			resp.Status = "degraded"
		}
		if ht.Vertices > resp.Vertices {
			resp.Vertices = ht.Vertices
		}
		resp.RRSets += ht.RRSets
	}
	server.WriteJSON(w, http.StatusOK, resp)
}
