package cluster

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"imdist/internal/core"
	"imdist/internal/data"
	"imdist/internal/diffusion"
	"imdist/internal/server"
	"imdist/internal/sketchio"
	"imdist/internal/workload"
)

// buildSketchFile builds a Karate sketch and writes it as a v1 sketch file.
// numSets is chosen per test: SplitSketch partitions on 64Ki-set block
// boundaries, so a sketch meant to split S ways needs at least S blocks.
func buildSketchFile(t testing.TB, model diffusion.Model, numSets int, seed uint64) string {
	t.Helper()
	ig, err := workload.Assign(data.Karate(), workload.IWC, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.NewOracleParallelSeeded(ig, model, numSets, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("%s-%d.imsk", model, seed))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sketchio.Encode(f, o); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// serveSketchFile launches one shard server on the sketch file at path.
func serveSketchFile(t testing.TB, path string) *httptest.Server {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	o, err := sketchio.Decode(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Oracle: o})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts
}

// launchFleet splits the sketch at path into `shards` shard files (1 shard
// serves the unsplit file directly — the degenerate fleet) and launches one
// shard server per file, returning the coordinator target list.
func launchFleet(t testing.TB, path string, shards int) []string {
	t.Helper()
	paths := []string{path}
	if shards > 1 {
		var err error
		paths, err = sketchio.SplitSketch(path, filepath.Join(t.TempDir(), "fleet"), shards)
		if err != nil {
			t.Fatal(err)
		}
	}
	targets := make([]string, len(paths))
	for i, p := range paths {
		targets[i] = serveSketchFile(t, p).URL
	}
	return targets
}

func newCoordinator(t testing.TB, cfg Config) *httptest.Server {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func postJSON(t testing.TB, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// equivalenceQueries is the byte-identity matrix: every public query the
// coordinator serves, including invalid ones, whose status and raw response
// bytes must match a single process on the unsplit sketch exactly.
var equivalenceQueries = []struct {
	name, method, path, body string
}{
	{"influence", "POST", "/v1/influence", `{"seeds":[0]}`},
	{"influence-multi", "POST", "/v1/influence", `{"seeds":[33,0,5,9]}`},
	{"influence-dup", "POST", "/v1/influence", `{"seeds":[7,7,7]}`},
	{"influence-empty", "POST", "/v1/influence", `{"seeds":[]}`},
	{"influence-range", "POST", "/v1/influence", `{"seeds":[99]}`},
	{"influence-negative", "POST", "/v1/influence", `{"seeds":[-1]}`},
	{"batch", "POST", "/v1/influence:batch",
		`[{"seeds":[0]},{"seeds":[33]},{"seeds":[0,33]},{"seeds":[0]},{"seeds":[99]},{"seeds":[]}]`},
	{"seeds", "POST", "/v1/seeds", `{"k":5}`},
	{"seeds-clamped", "POST", "/v1/seeds", `{"k":34}`},
	{"seeds-bad-k", "POST", "/v1/seeds", `{"k":0}`},
	{"top", "GET", "/v1/top?k=10", ""},
	{"top-default", "GET", "/v1/top", ""},
	{"top-all", "GET", "/v1/top?k=34", ""},
	{"top-bad-k", "GET", "/v1/top?k=oops", ""},
	// 2^32 and 2^32+33 must be rejected, not wrapped to vertices 0 and 33,
	// and must not share an evaluation with them.
	{"influence-wrap", "POST", "/v1/influence", `{"seeds":[4294967296]}`},
	{"batch-wrap", "POST", "/v1/influence:batch",
		`[{"seeds":[0]},{"seeds":[4294967296]},{"seeds":[33,4294967329]}]`},
	{"batch-wrap-reversed", "POST", "/v1/influence:batch",
		`[{"seeds":[33,4294967329]},{"seeds":[4294967296]},{"seeds":[0]}]`},
	// Check order: the body and every sketch-independent check come before
	// resolving the sketch, so these answer 400 (or 200 for a batch with no
	// evaluable item) even for a sketch that does not exist.
	{"unknown-sketch-empty-seeds", "POST", "/v1/sketches/nope/influence", `{"seeds":[]}`},
	{"unknown-sketch-malformed", "POST", "/v1/sketches/nope/influence", `{"seeds":[0]`},
	{"unknown-sketch-unknown-field", "POST", "/v1/sketches/nope/influence", `{"seedz":[0]}`},
	{"unknown-sketch-top-oops", "GET", "/v1/sketches/nope/top?k=oops", ""},
	{"unknown-sketch-top-negative", "GET", "/v1/sketches/nope/top?k=-1", ""},
	{"unknown-sketch-seeds-k0", "POST", "/v1/sketches/nope/seeds", `{"k":0}`},
	{"unknown-sketch-batch-all-invalid", "POST", "/v1/sketches/nope/influence:batch", `[{"seeds":[]},{"seeds":[]}]`},
	{"unknown-sketch-batch-over-limit", "POST", "/v1/sketches/nope/influence:batch",
		"[" + strings.Repeat(`{"seeds":[0]},`, server.DefaultMaxBatchQueries) + `{"seeds":[0]}]`},
	{"unknown-sketch-valid", "POST", "/v1/sketches/nope/influence:batch", `[{"seeds":[0]}]`},
}

func runQuery(t testing.TB, base string, q struct{ name, method, path, body string }) (int, []byte) {
	t.Helper()
	if q.method == "GET" {
		return get(t, base+q.path)
	}
	return postJSON(t, base+q.path, q.body)
}

// TestCoordinatorEquivalence is the acceptance gate of the distributed tier:
// a coordinator over 1-, 2- and 4-shard fleets answers every public query
// byte-identically to one process serving the unsplit sketch, for both
// diffusion models.
func TestCoordinatorEquivalence(t *testing.T) {
	cases := []struct {
		model   diffusion.Model
		numSets int
		shards  []int
	}{
		// 4 blocks: splits 1, 2 and 4 ways (2-shard split is uneven-free; the
		// 4-way split exercises one block per shard).
		{diffusion.IC, 4 * core.DefaultBatchShardSize, []int{1, 2, 4}},
		// 2 blocks under LT: a second model through the same merge path.
		{diffusion.LT, 2 * core.DefaultBatchShardSize, []int{2}},
	}
	for _, tc := range cases {
		t.Run(tc.model.String(), func(t *testing.T) {
			path := buildSketchFile(t, tc.model, tc.numSets, 7)
			single := serveSketchFile(t, path)
			for _, shards := range tc.shards {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					coord := newCoordinator(t, Config{Targets: launchFleet(t, path, shards)})
					for _, q := range equivalenceQueries {
						wantStatus, wantBody := runQuery(t, single.URL, q)
						gotStatus, gotBody := runQuery(t, coord.URL, q)
						if gotStatus != wantStatus {
							t.Errorf("%s: status %d, single process %d (%s)", q.name, gotStatus, wantStatus, gotBody)
							continue
						}
						if string(gotBody) != string(wantBody) {
							t.Errorf("%s: coordinator answer diverges\n got: %s\nwant: %s", q.name, gotBody, wantBody)
						}
					}
				})
			}
		})
	}
}

// TestCoordinatorReloadMidFlight hot-reloads the shard servers through their
// own admin API while the coordinator keeps serving: a half-reloaded fleet
// (mixed build seeds) is rejected as misassembled, and once every shard has
// swapped, answers are byte-identical to a single process on the new sketch —
// with no coordinator restart and no coordinator-side cache to invalidate.
func TestCoordinatorReloadMidFlight(t *testing.T) {
	const shards = 2
	pathA := buildSketchFile(t, diffusion.IC, 2*core.DefaultBatchShardSize, 7)
	pathB := buildSketchFile(t, diffusion.IC, 2*core.DefaultBatchShardSize, 8)
	shardsB, err := sketchio.SplitSketch(pathB, filepath.Join(t.TempDir(), "b"), shards)
	if err != nil {
		t.Fatal(err)
	}
	targets := launchFleet(t, pathA, shards)
	coord := newCoordinator(t, Config{Targets: targets})

	const query = `{"seeds":[0,33]}`
	singleA := serveSketchFile(t, pathA)
	wantStatus, wantA := postJSON(t, singleA.URL+"/v1/influence", query)
	if gotStatus, got := postJSON(t, coord.URL+"/v1/influence", query); gotStatus != wantStatus || string(got) != string(wantA) {
		t.Fatalf("pre-reload answer diverges: %d %s, want %d %s", gotStatus, got, wantStatus, wantA)
	}

	reload := func(target, shardPath string) {
		t.Helper()
		body := fmt.Sprintf(`{"name":%q,"path":%q,"replace":true}`, server.DefaultSketchName, shardPath)
		if status, raw := postJSON(t, target+"/v1/admin/sketches", body); status != http.StatusOK {
			t.Fatalf("admin reload of %s: status %d: %s", target, status, raw)
		}
	}

	// Half-reloaded: shard 0 now serves build B, shard 1 still build A. The
	// per-query identity check must refuse to merge across builds.
	reload(targets[0], shardsB[0])
	if status, raw := postJSON(t, coord.URL+"/v1/influence", query); status != http.StatusBadGateway {
		t.Fatalf("mixed-build fleet: status %d (%s), want %d", status, raw, http.StatusBadGateway)
	} else if !strings.Contains(string(raw), "does not match") {
		t.Errorf("mixed-build fleet error does not name the mismatch: %s", raw)
	}

	// Fully reloaded: the coordinator serves build B immediately.
	reload(targets[1], shardsB[1])
	singleB := serveSketchFile(t, pathB)
	wantStatus, wantB := postJSON(t, singleB.URL+"/v1/influence", query)
	if string(wantA) == string(wantB) {
		t.Fatal("builds A and B answer identically; reload test proves nothing")
	}
	if gotStatus, got := postJSON(t, coord.URL+"/v1/influence", query); gotStatus != wantStatus || string(got) != string(wantB) {
		t.Fatalf("post-reload answer = %d %s, want %d %s", gotStatus, got, wantStatus, wantB)
	}
	for _, q := range equivalenceQueries {
		wantStatus, want := runQuery(t, singleB.URL, q)
		gotStatus, got := runQuery(t, coord.URL, q)
		if gotStatus != wantStatus || string(got) != string(want) {
			t.Errorf("%s after reload: got %d %s, want %d %s", q.name, gotStatus, got, wantStatus, want)
		}
	}
}

// TestCoordinatorDegraded kills one shard of a fleet and checks that every
// query degrades to a 503 naming the missing target, and healthz reports the
// fleet as degraded, until the shard returns.
func TestCoordinatorDegraded(t *testing.T) {
	path := buildSketchFile(t, diffusion.IC, 2*core.DefaultBatchShardSize, 7)
	paths, err := sketchio.SplitSketch(path, filepath.Join(t.TempDir(), "fleet"), 2)
	if err != nil {
		t.Fatal(err)
	}
	alive := serveSketchFile(t, paths[0])
	dead := serveSketchFile(t, paths[1])
	coord := newCoordinator(t, Config{Targets: []string{alive.URL, dead.URL}})
	dead.Close()

	for _, q := range []struct{ name, method, path, body string }{
		{"influence", "POST", "/v1/influence", `{"seeds":[0]}`},
		{"batch", "POST", "/v1/influence:batch", `[{"seeds":[0]}]`},
		{"seeds", "POST", "/v1/seeds", `{"k":2}`},
		{"top", "GET", "/v1/top?k=3", ""},
	} {
		status, raw := runQuery(t, coord.URL, q)
		if status != http.StatusServiceUnavailable {
			t.Errorf("%s on degraded fleet: status %d (%s), want 503", q.name, status, raw)
			continue
		}
		if !strings.Contains(string(raw), dead.URL) {
			t.Errorf("%s degraded error does not name the missing target %s: %s", q.name, dead.URL, raw)
		}
	}

	status, raw := get(t, coord.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	var hz healthzResponse
	if err := json.Unmarshal(raw, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || hz.Mode != "coordinator" || hz.Shards != 2 {
		t.Errorf("healthz = %+v, want degraded coordinator over 2 shards", hz)
	}
	sawUnreachable := false
	for _, ht := range hz.Targets {
		if ht.Target == dead.URL && ht.Status == "unreachable" {
			sawUnreachable = true
		}
		if ht.Target == alive.URL && (ht.Status != "ok" || ht.ShardIndex == nil || *ht.ShardIndex != 0) {
			t.Errorf("healthy shard entry = %+v", ht)
		}
	}
	if !sawUnreachable {
		t.Errorf("healthz does not flag the dead target: %s", raw)
	}
}

// TestCoordinatorMisassembledFleet points a coordinator at wrongly assembled
// fleets — the same shard twice, and an unsplit sketch inside a 2-target
// fleet — and checks both are rejected as 502s naming the offender.
func TestCoordinatorMisassembledFleet(t *testing.T) {
	path := buildSketchFile(t, diffusion.IC, 2*core.DefaultBatchShardSize, 7)
	paths, err := sketchio.SplitSketch(path, filepath.Join(t.TempDir(), "fleet"), 2)
	if err != nil {
		t.Fatal(err)
	}

	dup0a := serveSketchFile(t, paths[0])
	dup0b := serveSketchFile(t, paths[0])
	coord := newCoordinator(t, Config{Targets: []string{dup0a.URL, dup0b.URL}})
	status, raw := postJSON(t, coord.URL+"/v1/influence", `{"seeds":[0]}`)
	if status != http.StatusBadGateway || !strings.Contains(string(raw), "already served by") {
		t.Errorf("duplicated shard: status %d: %s, want 502 naming the duplicate", status, raw)
	}

	shard0 := serveSketchFile(t, paths[0])
	unsplit := serveSketchFile(t, path)
	coord2 := newCoordinator(t, Config{Targets: []string{shard0.URL, unsplit.URL}})
	status, raw = postJSON(t, coord2.URL+"/v1/influence", `{"seeds":[0]}`)
	if status != http.StatusBadGateway || !strings.Contains(string(raw), "coordinator has 2 targets") {
		t.Errorf("unsplit sketch in fleet: status %d: %s, want 502 naming the fleet-size mismatch", status, raw)
	}
}

// TestCoordinatorNamedRoutes exercises the /v1/sketches/{name}/... variants:
// the coordinator forwards the path's sketch name to the shard fleet, and an
// unknown name passes the shards' 404 through byte-identically.
func TestCoordinatorNamedRoutes(t *testing.T) {
	path := buildSketchFile(t, diffusion.IC, 2*core.DefaultBatchShardSize, 7)
	paths, err := sketchio.SplitSketch(path, filepath.Join(t.TempDir(), "fleet"), 2)
	if err != nil {
		t.Fatal(err)
	}
	single := serveSketchFile(t, path)
	targets := make([]string, len(paths))
	for i, p := range paths {
		targets[i] = serveSketchFile(t, p).URL
	}
	coord := newCoordinator(t, Config{Targets: targets})

	// The default sketch is also reachable by its registered name.
	for _, route := range []string{"/v1/influence", "/v1/sketches/" + server.DefaultSketchName + "/influence"} {
		wantStatus, want := postJSON(t, single.URL+route, `{"seeds":[0]}`)
		gotStatus, got := postJSON(t, coord.URL+route, `{"seeds":[0]}`)
		if gotStatus != wantStatus || string(got) != string(want) {
			t.Errorf("%s: got %d %s, want %d %s", route, gotStatus, got, wantStatus, want)
		}
	}

	wantStatus, want := postJSON(t, single.URL+"/v1/sketches/nope/influence", `{"seeds":[0]}`)
	gotStatus, got := postJSON(t, coord.URL+"/v1/sketches/nope/influence", `{"seeds":[0]}`)
	if gotStatus != http.StatusNotFound || gotStatus != wantStatus || string(got) != string(want) {
		t.Errorf("unknown sketch: got %d %s, want %d %s", gotStatus, got, wantStatus, want)
	}
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no targets should fail")
	}
	if _, err := New(Config{Targets: []string{"127.0.0.1:8080"}}); err == nil {
		t.Error("New with a schemeless target should fail")
	}
	c, err := New(Config{Targets: []string{"http://127.0.0.1:8080/"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.cfg.Targets[0]; got != "http://127.0.0.1:8080" {
		t.Errorf("target not normalized: %q", got)
	}
	if c.cfg.MaxK != DefaultMaxK {
		t.Errorf("defaults not applied: %+v", c.cfg)
	}
}

// TestNewLeavesCallerTargetsUnchanged checks that New trims a copy of the
// target list, not the caller's slice.
func TestNewLeavesCallerTargetsUnchanged(t *testing.T) {
	targets := []string{"http://x/"}
	c, err := New(Config{Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if targets[0] != "http://x/" {
		t.Errorf("caller's target rewritten to %q", targets[0])
	}
	if got := c.cfg.Targets[0]; got != "http://x" {
		t.Errorf("coordinator target = %q, want %q", got, "http://x")
	}
}

// flipSeedTransport rewrites build_seed in the flipAt-th /v1/shard/marginal
// response it carries, as if the shard had been reloaded to another build
// between two greedy rounds.
type flipSeedTransport struct {
	base   http.RoundTripper
	flipAt int
	mu     sync.Mutex
	seen   int
}

func (f *flipSeedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.base.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/shard/marginal") {
		return resp, err
	}
	f.mu.Lock()
	f.seen++
	flip := f.seen == f.flipAt
	f.mu.Unlock()
	if !flip {
		return resp, nil
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return nil, err
	}
	fields["build_seed"] = json.RawMessage("12345")
	if raw, err = json.Marshal(fields); err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	resp.ContentLength = int64(len(raw))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// TestCoordinatorIdentityFlipMidSelection changes the fleet's build identity
// between the first and second greedy rounds: /v1/seeds must refuse to merge
// the rounds and answer 502 asking for a retry.
func TestCoordinatorIdentityFlipMidSelection(t *testing.T) {
	path := buildSketchFile(t, diffusion.IC, core.DefaultBatchShardSize, 7)
	transport := &flipSeedTransport{base: http.DefaultTransport, flipAt: 2}
	coord := newCoordinator(t, Config{Targets: launchFleet(t, path, 1), Transport: transport})
	status, raw := postJSON(t, coord.URL+"/v1/seeds", `{"k":5}`)
	if status != http.StatusBadGateway {
		t.Fatalf("identity flip: status %d (%s), want 502", status, raw)
	}
	if !strings.Contains(string(raw), "fleet identity changed during seed selection") ||
		!strings.Contains(string(raw), "retry") {
		t.Errorf("identity flip error does not ask for a retry: %s", raw)
	}
	transport.mu.Lock()
	defer transport.mu.Unlock()
	if transport.seen < 2 {
		t.Errorf("selection made %d marginal scatters, the flip needs 2", transport.seen)
	}
}

// corruptCountsTransport rewrites the packed count vector named field in
// every response the shard at target sends on a route ending in suffix.
type corruptCountsTransport struct {
	base          http.RoundTripper
	target        string
	suffix, field string
	corrupt       func(packed string) string
}

func (c *corruptCountsTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil || "http://"+req.URL.Host != c.target || !strings.HasSuffix(req.URL.Path, c.suffix) {
		return resp, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return nil, err
	}
	var packed string
	if err := json.Unmarshal(fields[c.field], &packed); err != nil {
		return nil, fmt.Errorf("%s is not a packed string: %w", c.field, err)
	}
	if fields[c.field], err = json.Marshal(c.corrupt(packed)); err != nil {
		return nil, err
	}
	if raw, err = json.Marshal(fields); err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	resp.ContentLength = int64(len(raw))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// TestCoordinatorCorruptPackedCounts corrupts the packed count vector in one
// shard's responses: every query that gathers it must fail with a 5xx naming
// that shard, never answer 200 from wrong counts.
func TestCoordinatorCorruptPackedCounts(t *testing.T) {
	path := buildSketchFile(t, diffusion.IC, 2*core.DefaultBatchShardSize, 7)
	targets := launchFleet(t, path, 2)
	truncateLast := func(packed string) string {
		raw, err := base64.StdEncoding.DecodeString(packed)
		if err != nil {
			t.Error(err)
		}
		return base64.StdEncoding.EncodeToString(append(raw, 0x80))
	}
	dropLast := func(packed string) string {
		var c server.Counts
		if err := c.UnmarshalText([]byte(packed)); err != nil {
			t.Error(err)
		}
		out, err := c[:len(c)-1].MarshalText()
		if err != nil {
			t.Error(err)
		}
		return string(out)
	}
	greedyAndTop := []struct{ name, method, path, body string }{
		{"seeds", "POST", "/v1/seeds", `{"k":5}`},
		{"top", "GET", "/v1/top?k=10", ""},
	}
	influence := []struct{ name, method, path, body string }{
		{"batch", "POST", "/v1/influence:batch", `[{"seeds":[0]},{"seeds":[33]},{"seeds":[0,33]}]`},
		{"influence", "POST", "/v1/influence", `{"seeds":[0,33]}`},
	}
	for _, tc := range []struct {
		name, suffix, field string
		corrupt             func(string) string
		queries             []struct{ name, method, path, body string }
	}{
		{"gains with a truncated varint", "/shard/marginal", "gains", truncateLast, greedyAndTop},
		{"gains one entry short", "/shard/marginal", "gains", dropLast, greedyAndTop},
		{"counts one entry short", "/shard/coverage", "counts", dropLast, influence},
	} {
		transport := &corruptCountsTransport{
			base: http.DefaultTransport, target: targets[1],
			suffix: tc.suffix, field: tc.field, corrupt: tc.corrupt,
		}
		coord := newCoordinator(t, Config{Targets: targets, Transport: transport})
		for _, q := range tc.queries {
			status, raw := runQuery(t, coord.URL, q)
			if status < 500 || !strings.Contains(string(raw), targets[1]) {
				t.Errorf("%s, %s: status %d (%s), want a 5xx naming %s", tc.name, q.name, status, raw, targets[1])
			}
		}
	}
}
