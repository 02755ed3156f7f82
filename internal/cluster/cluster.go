// Package cluster implements the scatter-gather coordinator of the
// distributed serving tier: one process that fronts a fleet of imserve shard
// servers, each holding one slice of a sketch split by imsketch -split, and
// serves the unchanged public /v1 query API with answers byte-identical to a
// single process serving the unsplit sketch.
//
// The coordinator does not answer queries itself: it registers
// internal/server's public query handlers (server.HandleQueries) over a
// server.Source that is the fleet. Each Source call is one scatter of a
// shard primitive (/v1/shard/coverage, /v1/shard/marginal), which returns
// exact integer RR-set counts; integers sum exactly in any order, so the
// handlers' one float division by the fleet-wide RR-set total reproduces the
// unsplit oracle's answer bit for bit, and the handlers' greedy selection
// (core.LazyGreedy) and top-k ranking (core.RankCounts) run on the same
// counts a single process has. The gather work is proportional to the
// answer (counts and candidate gains), never to shards × RR sets.
//
// The coordinator holds no state besides its target list: every response
// carries the shard's identity (build identity + lineage), and the
// coordinator re-verifies fleet assembly on every gather — duplicated or
// missing shard indexes, mixed builds or splits, and wrong fleet sizes are
// rejected as 502s naming the offending target. Shards are therefore free to
// hot-reload through their own admin API at any time; an unreachable shard
// degrades the coordinator to 503s naming the missing target until it
// returns. No coordinator-side caching or single-flight: the merge is cheap,
// and a reloaded shard is visible on the next request.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"imdist/internal/server"
)

const (
	// DefaultMaxK is the MaxK a zero Config selects, as in internal/server.
	DefaultMaxK = server.DefaultMaxK
	// DefaultMaxIdleConnsPerHost sizes the pooled transport's per-shard idle
	// connection pool. net/http's default of 2 would reopen connections on
	// every concurrent scatter.
	DefaultMaxIdleConnsPerHost = 32
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
		cfg.MaxBodyBytes = server.DefaultMaxBodyBytes
	}
	if cfg.MaxSeeds == 0 {
		cfg.MaxSeeds = server.DefaultMaxSeeds
	}
	if cfg.MaxK == 0 {
		cfg.MaxK = DefaultMaxK
	}
	if cfg.MaxBatchQueries == 0 {
		cfg.MaxBatchQueries = server.DefaultMaxBatchQueries
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
	server.HandleQueries(c.mux, server.Config{
		MaxBodyBytes:    cfg.MaxBodyBytes,
		MaxSeeds:        cfg.MaxSeeds,
		MaxK:            cfg.MaxK,
		MaxBatchQueries: cfg.MaxBatchQueries,
		WriteTimeout:    server.DefaultWriteTimeout,
	}, c.source)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// ListenAndServe serves on addr until ctx is cancelled, then shuts down
// gracefully (see server.Serve).
func (c *Coordinator) ListenAndServe(ctx context.Context, addr string) error {
	return server.Serve(ctx, &http.Server{
		Addr:              addr,
		Handler:           c.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       server.DefaultReadTimeout,
		WriteTimeout:      server.DefaultWriteTimeout,
	})
}

// source is the coordinator's server.Resolver: the fleet, queried for the
// {sketch} path segment when present (named routes), else the configured
// fleet-wide name ("" = each shard's default). The shards resolve the name;
// an unknown one comes back as their 404 from the first scatter.
func (c *Coordinator) source(r *http.Request) (server.Source, func(), error) {
	sketch := r.PathValue("sketch")
	if sketch == "" {
		sketch = c.cfg.Sketch
	}
	return fleet{c: c, sketch: sketch}, func() {}, nil
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
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
