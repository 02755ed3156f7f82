package server

// The public query API — influence, influence:batch, seeds and top, under
// /v1 and /v1/sketches/{sketch} — written once, over a Source: a loaded
// sketch (entrySource) in a single process, the shard fleet behind a cluster
// coordinator (internal/cluster). Both front ends therefore answer every
// request with the same bytes, checking it in the same order:
//
//  1. decode the body and run every sketch-independent check (k bounds,
//     empty or too many seeds, batch size): 413 or 400;
//  2. resolve the sketch: 404 (a fleet passes its shards' 404 through);
//  3. check every seed id against the sketch's vertex range, on the ints as
//     sent, before any conversion to graph.VertexID or cache key: 400, or a
//     per-item error in a batch.
//
// A batch with no item left after step 1 answers 200 without step 2.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"imdist/internal/core"
	"imdist/internal/graph"
	"imdist/internal/stats"
)

// Identity names the sketch a Source counted on: its vertex count, build,
// and the RR-set total every count is divided by. Its two methods are the
// only float arithmetic of the query API, so equal counts on equal
// identities answer with equal bits, from one process or from a fleet.
type Identity struct {
	Vertices  int
	Model     string
	BuildSeed uint64
	TotalSets int
}

// influence converts a coverage count to influence units, n·hits/R — the
// expression core.Oracle evaluates.
func (id Identity) influence(hits int64) float64 {
	return float64(id.Vertices) * float64(hits) / float64(id.TotalSets)
}

// ci99 is the 99% confidence half-width, as
// core.Oracle.ConfidenceHalfWidth(2.576) computes it.
func (id Identity) ci99() float64 {
	return float64(id.Vertices) * stats.BinomialCI(0.5, id.TotalSets, 2.576)
}

// Source answers the query API's counting questions on one resolved sketch.
type Source interface {
	// Coverage counts, for every seed set, the RR sets it covers. Seed sets
	// arrive as the client sent them; one holding an id outside
	// [0, Identity.Vertices) is not counted, and msgs (nil when every set is
	// valid) carries its error.
	Coverage(ctx context.Context, seedSets [][]int) (id Identity, counts []int64, msgs []string, err error)
	// Marginal is core.MarginalSource's MarginalCoverage, plus the identity
	// the gains were counted on.
	Marginal(ctx context.Context, seeds, candidates []graph.VertexID) (Identity, []int64, error)
}

// Resolver resolves the sketch a request names — its {sketch} path segment,
// or the default for the unnamed routes — to a Source, which the request
// holds until it calls release. A *StatusError sets the failed request's
// status; any other error answers 500.
type Resolver func(r *http.Request) (src Source, release func(), err error)

// StatusError is a query failure answered with Status and an ErrorResponse
// holding Msg.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string { return e.Msg }

// errIdentityChanged fails a seed selection whose rounds were counted on
// different sketches. A loaded sketch stays pinned for the whole request, so
// only a fleet whose shard reloads mid-selection trips it.
var errIdentityChanged = &StatusError{http.StatusBadGateway,
	"fleet identity changed during seed selection (sketch reloaded mid-query); retry"}

// Result-cache key prefixes of the memoized routes.
const (
	seedsKeyPrefix = "g:"
	topKeyPrefix   = "t:"
)

// memoizer is a Source that memoizes whole /v1/seeds and /v1/top answers
// under key: a loaded sketch, through its LRU and single-flight group. A
// fleet caches nothing, so a reloaded shard shows on the next request.
type memoizer interface {
	memo(key string, compute func() (any, error)) (any, error)
}

func memo(src Source, key string, compute func() (any, error)) (any, error) {
	if m, ok := src.(memoizer); ok {
		return m.memo(key, compute)
	}
	return compute()
}

// queries serves the public query routes within cfg's request limits.
type queries struct {
	cfg     Config
	resolve Resolver
}

// HandleQueries registers the public query routes, unnamed and named, on
// mux, answering each request from the Source resolve returns. Of cfg it
// reads the request limits (MaxBodyBytes, MaxSeeds, MaxK, MaxBatchQueries),
// which must already hold their defaults, and WriteTimeout.
func HandleQueries(mux *http.ServeMux, cfg Config, resolve Resolver) {
	q := &queries{cfg: cfg, resolve: resolve}
	for _, prefix := range []string{"/v1", "/v1/sketches/{sketch}"} {
		mux.HandleFunc("POST "+prefix+"/influence", q.handleInfluence)
		mux.HandleFunc("POST "+prefix+"/influence:batch", q.handleBatchInfluence)
		mux.HandleFunc("POST "+prefix+"/seeds", q.handleSeeds)
		mux.HandleFunc("GET "+prefix+"/top", q.handleTop)
	}
}

// open resolves the request's Source; on failure it has written the error.
func (q *queries) open(w http.ResponseWriter, r *http.Request) (Source, func(), bool) {
	src, release, err := q.resolve(r)
	if err != nil {
		writeQueryError(w, err)
		return nil, nil, false
	}
	return src, release, true
}

// answer resolves the request's Source and writes what compute derives from
// it, memoized under key when the Source is a memoizer.
func (q *queries) answer(w http.ResponseWriter, r *http.Request, key string, compute func(Source) (any, error)) {
	src, release, ok := q.open(w, r)
	if !ok {
		return
	}
	defer release()
	v, err := memo(src, key, func() (any, error) { return compute(src) })
	if err != nil {
		writeQueryError(w, err)
		return
	}
	extendWriteDeadline(w, q.cfg.WriteTimeout)
	writeJSON(w, http.StatusOK, v)
}

func writeQueryError(w http.ResponseWriter, err error) {
	var se *StatusError
	if errors.As(err, &se) {
		writeError(w, se.Status, "%s", se.Msg)
		return
	}
	writeError(w, http.StatusInternalServerError, "%v", err)
}

// seedsShapeError is the sketch-independent check of an influence query's
// seed list, or "" when it passes.
func seedsShapeError(seeds []int, maxSeeds int) string {
	if len(seeds) == 0 {
		return "seeds must be non-empty"
	}
	if len(seeds) > maxSeeds {
		return fmt.Sprintf("too many seeds: %d > %d", len(seeds), maxSeeds)
	}
	return ""
}

// seedsRangeError checks seed ids against a sketch of n vertices, on the
// ints as sent: converting first could wrap an id into range.
func seedsRangeError(seeds []int, n int) string {
	for _, v := range seeds {
		if v < 0 || v >= n {
			return fmt.Sprintf("seed vertex %d not in [0, %d)", v, n)
		}
	}
	return ""
}

// canonicalInts returns seeds sorted and deduplicated, leaving seeds as is.
func canonicalInts(seeds []int) []int {
	out := slices.Clone(seeds)
	slices.Sort(out)
	return slices.Compact(out)
}

func toInts(vs []graph.VertexID) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}

type influenceRequest struct {
	Seeds []int `json:"seeds"`
}

// InfluenceResponse is the body of a /v1/influence answer.
type InfluenceResponse struct {
	Influence float64 `json:"influence"`
	CI99      float64 `json:"ci99"`
	Seeds     int     `json:"seeds"`
}

func (q *queries) handleInfluence(w http.ResponseWriter, r *http.Request) {
	var req influenceRequest
	if !decodeBody(w, r, q.cfg.MaxBodyBytes, &req) {
		return
	}
	if msg := seedsShapeError(req.Seeds, q.cfg.MaxSeeds); msg != "" {
		writeError(w, http.StatusBadRequest, "%s", msg)
		return
	}
	src, release, ok := q.open(w, r)
	if !ok {
		return
	}
	defer release()
	id, counts, msgs, err := src.Coverage(r.Context(), [][]int{req.Seeds})
	if err != nil {
		writeQueryError(w, err)
		return
	}
	if msgs != nil && msgs[0] != "" {
		writeError(w, http.StatusBadRequest, "%s", msgs[0])
		return
	}
	writeJSON(w, http.StatusOK, InfluenceResponse{
		Influence: id.influence(counts[0]),
		CI99:      id.ci99(),
		Seeds:     len(canonicalInts(req.Seeds)),
	})
}

// BatchItem is one element of a /v1/influence:batch response. A valid item
// carries the same fields as a /v1/influence response; an invalid one carries
// only an error message, so a single bad query never fails the whole batch.
// Repeated queries in one batch share a single *InfluenceResponse, which
// encodes identically either way.
type BatchItem struct {
	*InfluenceResponse
	Error string `json:"error,omitempty"`
}

func (q *queries) handleBatchInfluence(w http.ResponseWriter, r *http.Request) {
	var reqs []influenceRequest
	if !decodeBody(w, r, q.cfg.MaxBodyBytes, &reqs) {
		return
	}
	if len(reqs) == 0 {
		writeError(w, http.StatusBadRequest, "batch must be a non-empty JSON array of influence requests")
		return
	}
	if len(reqs) > q.cfg.MaxBatchQueries {
		writeError(w, http.StatusBadRequest, "too many batch queries: %d > %d", len(reqs), q.cfg.MaxBatchQueries)
		return
	}
	// Items naming the same seed set share one evaluation and one response.
	// The key is built from the ints as sent, so an id beyond the VertexID
	// range never aliases a valid one.
	type group struct {
		items []int
		seeds int // distinct seeds
	}
	items := make([]BatchItem, len(reqs))
	var (
		groups   []group
		seedSets [][]int
		key      []byte
	)
	groupByKey := make(map[string]int)
	for i, req := range reqs {
		if msg := seedsShapeError(req.Seeds, q.cfg.MaxSeeds); msg != "" {
			items[i].Error = msg
			continue
		}
		canon := canonicalInts(req.Seeds)
		key = key[:0]
		for _, v := range canon {
			key = strconv.AppendInt(key, int64(v), 10)
			key = append(key, ',')
		}
		if j, ok := groupByKey[string(key)]; ok {
			groups[j].items = append(groups[j].items, i)
			continue
		}
		groupByKey[string(key)] = len(groups)
		groups = append(groups, group{items: []int{i}, seeds: len(canon)})
		seedSets = append(seedSets, req.Seeds)
	}
	if len(groups) > 0 {
		src, release, ok := q.open(w, r)
		if !ok {
			return
		}
		defer release()
		id, counts, msgs, err := src.Coverage(r.Context(), seedSets)
		if err != nil {
			writeQueryError(w, err)
			return
		}
		ci := id.ci99()
		for j, g := range groups {
			if msgs != nil && msgs[j] != "" {
				for _, i := range g.items {
					items[i].Error = msgs[j]
				}
				continue
			}
			resp := &InfluenceResponse{Influence: id.influence(counts[j]), CI99: ci, Seeds: g.seeds}
			for _, i := range g.items {
				items[i].InfluenceResponse = resp
			}
		}
	}
	// Large batches can spend a while in evaluation; give the response write
	// its full configured budget instead of whatever the evaluation left.
	extendWriteDeadline(w, q.cfg.WriteTimeout)
	writeJSON(w, http.StatusOK, items)
}

// sameSketch is the core.MarginalSource one /v1/seeds selection runs on:
// one Marginal call per round, every round counted on the sketch round 0
// was. Merging gains across two builds would select a wrong seed set, so a
// change fails the selection instead; the client's retry starts clean.
type sameSketch struct {
	ctx context.Context
	src Source
	id  *Identity
}

func (s *sameSketch) MarginalCoverage(seeds, candidates []graph.VertexID) ([]int64, error) {
	id, gains, err := s.src.Marginal(s.ctx, seeds, candidates)
	switch {
	case err != nil:
		return nil, err
	case s.id == nil:
		s.id = &id
	case id != *s.id:
		return nil, errIdentityChanged
	}
	return gains, nil
}

type seedsRequest struct {
	K int `json:"k"`
}

// SeedsResponse is the body of a /v1/seeds answer.
type SeedsResponse struct {
	Seeds     []int   `json:"seeds"`
	Influence float64 `json:"influence"`
}

func (q *queries) handleSeeds(w http.ResponseWriter, r *http.Request) {
	var req seedsRequest
	if !decodeBody(w, r, q.cfg.MaxBodyBytes, &req) {
		return
	}
	if req.K < 1 || req.K > q.cfg.MaxK {
		writeError(w, http.StatusBadRequest, "k must be in [1, %d], got %d", q.cfg.MaxK, req.K)
		return
	}
	q.answer(w, r, seedsKeyPrefix+strconv.Itoa(req.K), func(src Source) (any, error) {
		// LazyGreedy clamps k to the vertex count; the covered count
		// telescopes to the coverage of the selected seeds.
		rounds := &sameSketch{ctx: r.Context(), src: src}
		seeds, covered, err := core.LazyGreedy(rounds, req.K)
		if err != nil {
			return nil, err
		}
		return SeedsResponse{Seeds: toInts(seeds), Influence: rounds.id.influence(covered)}, nil
	})
}

// TopResponse is the body of a /v1/top answer.
type TopResponse struct {
	Vertices   []int     `json:"vertices"`
	Influences []float64 `json:"influences"`
}

func (q *queries) handleTop(w http.ResponseWriter, r *http.Request) {
	// The default must respect MaxK, or a bare GET /v1/top would 400 on
	// servers configured with MaxK < 10.
	k := min(10, q.cfg.MaxK)
	if s := r.URL.Query().Get("k"); s != "" {
		parsed, err := strconv.Atoi(s)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid k %q", s)
			return
		}
		k = parsed
	}
	if k < 1 || k > q.cfg.MaxK {
		writeError(w, http.StatusBadRequest, "k must be in [1, %d], got %d", q.cfg.MaxK, k)
		return
	}
	q.answer(w, r, topKeyPrefix+strconv.Itoa(k), func(src Source) (any, error) {
		id, counts, err := src.Marginal(r.Context(), nil, nil)
		if err != nil {
			return nil, err
		}
		top := core.RankCounts(counts, k)
		resp := TopResponse{Vertices: toInts(top), Influences: make([]float64, len(top))}
		for i, v := range top {
			resp.Influences[i] = id.influence(counts[v])
		}
		return resp, nil
	})
}

// entrySource is the Source of one loaded sketch, pinned for the request.
// It range-checks and canonicalizes seed sets, answers repeats from the
// sketch's LRU, and counts the rest with the oracle's kernels.
type entrySource struct {
	e       *sketchEntry
	workers int // batch engine workers (Config.BatchWorkers)
}

func (s entrySource) Coverage(_ context.Context, seedSets [][]int) (Identity, []int64, []string, error) {
	e := s.e
	counts := make([]int64, len(seedSets))
	var msgs []string
	flag := func(i int, msg string) {
		if msgs == nil {
			msgs = make([]string, len(seedSets))
		}
		msgs[i] = msg
	}
	var (
		misses []int
		keys   []string
		sets   [][]graph.VertexID
	)
	for i, raw := range seedSets {
		if msg := seedsRangeError(raw, e.id.Vertices); msg != "" {
			flag(i, msg)
			continue
		}
		seeds := CanonicalSeeds(raw)
		key := e.keyPrefix + seedsKey(seeds)
		if v, ok := e.cache.Get(key); ok {
			counts[i] = v.(int64)
			continue
		}
		misses = append(misses, i)
		keys = append(keys, key)
		sets = append(sets, seeds)
	}
	var (
		got  []int64
		errs []error
	)
	switch len(sets) {
	case 0:
	case 1:
		// A lone seed set skips the batch engine's sharding.
		n, err := e.oracle.Coverage(sets[0])
		got, errs = []int64{n}, []error{err}
	default:
		got, errs = e.oracle.BatchCoverage(sets, s.workers)
	}
	for j, i := range misses {
		if errs[j] != nil {
			// Unreachable after the range check, but the oracle's own
			// validation is the final authority.
			flag(i, errs[j].Error())
			continue
		}
		counts[i] = got[j]
		e.cache.Put(keys[j], got[j])
	}
	return e.id, counts, msgs, nil
}

func (s entrySource) Marginal(_ context.Context, seeds, candidates []graph.VertexID) (Identity, []int64, error) {
	gains, err := s.e.oracle.MarginalCoverage(seeds, candidates)
	return s.e.id, gains, err
}

// memo serves key from the sketch's LRU, single-flighting a cold key:
// concurrent identical requests compute once and share the answer.
func (s entrySource) memo(key string, compute func() (any, error)) (any, error) {
	e := s.e
	full := e.keyPrefix + key
	if v, ok := e.cache.Get(full); ok {
		return v, nil
	}
	return e.flight.Do(full, func() (any, error) {
		if v, ok := e.cache.Get(full); ok {
			return v, nil
		}
		if strings.HasPrefix(key, seedsKeyPrefix) {
			e.seedRuns.Add(1)
		}
		v, err := compute()
		if err == nil {
			e.cache.Put(full, v)
		}
		return v, err
	})
}
