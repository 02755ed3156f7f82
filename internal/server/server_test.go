package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"imdist/internal/core"
	"imdist/internal/data"
	"imdist/internal/diffusion"
	"imdist/internal/sketchio"
	"imdist/internal/workload"
)

func karateOracle(t testing.TB) *core.Oracle {
	t.Helper()
	ig, err := workload.Assign(data.Karate(), workload.IWC, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.NewOracleParallelSeeded(ig, diffusion.IC, 20000, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// loadedKarateOracle round-trips the oracle through the sketch codec, so the
// server tests exercise exactly what imserve serves: a loaded sketch.
func loadedKarateOracle(t testing.TB) *core.Oracle {
	t.Helper()
	var buf bytes.Buffer
	if err := sketchio.Encode(&buf, karateOracle(t)); err != nil {
		t.Fatal(err)
	}
	o, err := sketchio.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func newTestServer(t testing.TB, cfg Config) *httptest.Server {
	t.Helper()
	if cfg.Oracle == nil {
		cfg.Oracle = loadedKarateOracle(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
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

func TestInfluenceEndpoint(t *testing.T) {
	oracle := loadedKarateOracle(t)
	ts := newTestServer(t, Config{Oracle: oracle})

	status, raw := postJSON(t, ts.URL+"/v1/influence", `{"seeds":[33,0,33]}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, raw)
	}
	var got InfluenceResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Influence(CanonicalSeeds([]int{0, 33}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Influence != want {
		t.Errorf("influence = %v, want %v", got.Influence, want)
	}
	if got.Seeds != 2 {
		t.Errorf("canonical seed count = %d, want 2 (deduplicated)", got.Seeds)
	}

	// A permutation of the same seed set must hit the cache (same canonical
	// key) and return the identical response.
	status, raw2 := postJSON(t, ts.URL+"/v1/influence", `{"seeds":[0,33]}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !bytes.Equal(raw, raw2) {
		t.Errorf("permuted seed set got different response: %s vs %s", raw, raw2)
	}
}

func TestInfluenceRejectsBadInput(t *testing.T) {
	ts := newTestServer(t, Config{MaxSeeds: 4})
	cases := []struct {
		name, body string
		wantStatus int
	}{
		{"empty seeds", `{"seeds":[]}`, http.StatusBadRequest},
		{"missing seeds", `{}`, http.StatusBadRequest},
		{"out of range high", `{"seeds":[34]}`, http.StatusBadRequest},
		{"out of range negative", `{"seeds":[-1]}`, http.StatusBadRequest},
		{"overflowing id", `{"seeds":[4294967296]}`, http.StatusBadRequest},
		{"too many seeds", `{"seeds":[0,1,2,3,4]}`, http.StatusBadRequest},
		{"unknown field", `{"seedz":[1]}`, http.StatusBadRequest},
		{"not json", `seeds=1`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, raw := postJSON(t, ts.URL+"/v1/influence", c.body)
			if status != c.wantStatus {
				t.Errorf("status = %d, want %d (body %s)", status, c.wantStatus, raw)
			}
			var e ErrorResponse
			if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
				t.Errorf("expected JSON error body, got %s", raw)
			}
		})
	}
}

func TestInfluenceBodyLimit(t *testing.T) {
	ts := newTestServer(t, Config{MaxBodyBytes: 64})
	big := `{"seeds":[` + strings.Repeat("1,", 100) + `1]}`
	status, _ := postJSON(t, ts.URL+"/v1/influence", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", status)
	}
}

// batchItemResult is the client-side view of one /v1/influence:batch item:
// valid items carry influence/ci99/seeds, invalid ones only an error. The
// Influence pointer distinguishes "present" from "zero".
type batchItemResult struct {
	Influence *float64 `json:"influence"`
	CI99      float64  `json:"ci99"`
	Seeds     int      `json:"seeds"`
	Error     string   `json:"error"`
}

func TestBatchInfluenceEndpoint(t *testing.T) {
	oracle := loadedKarateOracle(t)
	ts := newTestServer(t, Config{Oracle: oracle})

	body := `[{"seeds":[33,0,33]},{"seeds":[1]},{"seeds":[0,33]},{"seeds":[5,11,17]}]`
	status, raw := postJSON(t, ts.URL+"/v1/influence:batch", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, raw)
	}
	var items []batchItemResult
	if err := json.Unmarshal(raw, &items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 {
		t.Fatalf("got %d items, want 4", len(items))
	}
	for i, seeds := range [][]int{{33, 0, 33}, {1}, {0, 33}, {5, 11, 17}} {
		if items[i].Error != "" {
			t.Fatalf("item %d: unexpected error %q", i, items[i].Error)
		}
		want, err := oracle.Influence(CanonicalSeeds(seeds))
		if err != nil {
			t.Fatal(err)
		}
		if items[i].Influence == nil || *items[i].Influence != want {
			t.Errorf("item %d = %+v, want influence %v", i, items[i], want)
		}
	}
	// Items 0 and 2 are permutations of the same seed set and must agree.
	if *items[0].Influence != *items[2].Influence || items[0].Seeds != 2 {
		t.Errorf("canonicalization mismatch: %+v vs %+v", items[0], items[2])
	}

	// A follow-up single request for a batched seed set must agree with the
	// batch answer (batch results land in the shared cache under the same
	// canonical keys).
	status, raw = postJSON(t, ts.URL+"/v1/influence", `{"seeds":[17,5,11]}`)
	if status != http.StatusOK {
		t.Fatalf("single after batch: status = %d", status)
	}
	var single InfluenceResponse
	if err := json.Unmarshal(raw, &single); err != nil {
		t.Fatal(err)
	}
	if single.Influence != *items[3].Influence {
		t.Errorf("single after batch = %v, want %v", single.Influence, *items[3].Influence)
	}
}

func TestBatchInfluencePerItemErrors(t *testing.T) {
	oracle := loadedKarateOracle(t)
	ts := newTestServer(t, Config{Oracle: oracle, MaxSeeds: 3})

	body := `[{"seeds":[0]},{"seeds":[]},{"seeds":[99]},{"seeds":[-1]},{"seeds":[0,1,2,3]},{"seeds":[33]}]`
	status, raw := postJSON(t, ts.URL+"/v1/influence:batch", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, raw)
	}
	var items []batchItemResult
	if err := json.Unmarshal(raw, &items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 6 {
		t.Fatalf("got %d items, want 6", len(items))
	}
	for _, bad := range []int{1, 2, 3, 4} {
		if items[bad].Error == "" {
			t.Errorf("item %d: expected per-item error, got %+v", bad, items[bad])
		}
		if items[bad].Influence != nil {
			t.Errorf("item %d: error item should omit influence, got %+v", bad, items[bad])
		}
	}
	for _, good := range []int{0, 5} {
		if items[good].Error != "" || items[good].Influence == nil {
			t.Errorf("item %d: expected success, got %+v", good, items[good])
		}
	}
}

func TestBatchInfluenceRejectsBadBatches(t *testing.T) {
	ts := newTestServer(t, Config{MaxBatchQueries: 2})
	cases := []struct {
		name, body string
		wantStatus int
	}{
		{"empty array", `[]`, http.StatusBadRequest},
		{"not an array", `{"seeds":[0]}`, http.StatusBadRequest},
		{"too many queries", `[{"seeds":[0]},{"seeds":[1]},{"seeds":[2]}]`, http.StatusBadRequest},
		{"unknown field", `[{"seedz":[0]}]`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, raw := postJSON(t, ts.URL+"/v1/influence:batch", c.body)
			if status != c.wantStatus {
				t.Errorf("status = %d, want %d (body %s)", status, c.wantStatus, raw)
			}
		})
	}
}

// TestBatchMatchesSingleAcrossWorkerCounts is the server-level half of the
// batch determinism guarantee: whatever BatchWorkers is configured, the batch
// endpoint returns exactly the single-endpoint values.
func TestBatchMatchesSingleAcrossWorkerCounts(t *testing.T) {
	oracle := loadedKarateOracle(t)
	queries := [][]int{{0}, {0, 33}, {1, 2, 3}, {32, 33}, {5, 11, 17, 23}}
	raw, err := json.Marshal(func() []influenceRequest {
		reqs := make([]influenceRequest, len(queries))
		for i, q := range queries {
			reqs[i].Seeds = q
		}
		return reqs
	}())
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for _, q := range queries {
		inf, err := oracle.Influence(CanonicalSeeds(q))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, inf)
	}
	for _, workers := range []int{1, 2, -1} {
		// CacheSize -1 disables caching so every request exercises the engine.
		ts := newTestServer(t, Config{Oracle: oracle, BatchWorkers: workers, CacheSize: -1})
		status, body := postJSON(t, ts.URL+"/v1/influence:batch", string(raw))
		if status != http.StatusOK {
			t.Fatalf("workers=%d: status = %d", workers, status)
		}
		var items []batchItemResult
		if err := json.Unmarshal(body, &items); err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			if items[i].Error != "" || items[i].Influence == nil || *items[i].Influence != want[i] {
				t.Errorf("workers=%d item %d = %+v, want %v", workers, i, items[i], want[i])
			}
		}
	}
}

// TestBatchDeduplicatesRepeatedQueries checks that repeated canonical seed
// sets inside one batch are evaluated once and fanned out, even with the
// cache disabled (the dedup is per-request, not LRU-dependent).
func TestBatchDeduplicatesRepeatedQueries(t *testing.T) {
	oracle := loadedKarateOracle(t)
	ts := newTestServer(t, Config{Oracle: oracle, CacheSize: -1})
	body := `[{"seeds":[5]},{"seeds":[5]},{"seeds":[5,5]},{"seeds":[0,33]},{"seeds":[33,0]}]`
	status, raw := postJSON(t, ts.URL+"/v1/influence:batch", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, raw)
	}
	var items []batchItemResult
	if err := json.Unmarshal(raw, &items); err != nil {
		t.Fatal(err)
	}
	want5, err := oracle.Influence(CanonicalSeeds([]int{5}))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2} {
		if items[i].Influence == nil || *items[i].Influence != want5 {
			t.Errorf("item %d = %+v, want influence %v", i, items[i], want5)
		}
	}
	if *items[3].Influence != *items[4].Influence {
		t.Errorf("permuted duplicates disagree: %v vs %v", *items[3].Influence, *items[4].Influence)
	}
}

func TestTopDefaultRespectsMaxK(t *testing.T) {
	// A bare GET /v1/top must not 400 just because MaxK < 10.
	ts := newTestServer(t, Config{MaxK: 5})
	resp, err := http.Get(ts.URL + "/v1/top")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var got TopResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Vertices) != 5 {
		t.Errorf("default k returned %d vertices, want 5 (min(10, MaxK))", len(got.Vertices))
	}
}

func TestSeedsEndpoint(t *testing.T) {
	oracle := loadedKarateOracle(t)
	ts := newTestServer(t, Config{Oracle: oracle})
	status, raw := postJSON(t, ts.URL+"/v1/seeds", `{"k":4}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, raw)
	}
	var got SeedsResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	wantSeeds := oracle.GreedySeeds(4)
	if len(got.Seeds) != 4 {
		t.Fatalf("seeds = %v", got.Seeds)
	}
	for i := range wantSeeds {
		if got.Seeds[i] != int(wantSeeds[i]) {
			t.Errorf("seeds = %v, want %v", got.Seeds, wantSeeds)
			break
		}
	}

	for _, body := range []string{`{"k":0}`, `{"k":-3}`, `{"k":1000000}`} {
		if status, _ := postJSON(t, ts.URL+"/v1/seeds", body); status != http.StatusBadRequest {
			t.Errorf("body %s: status = %d, want 400", body, status)
		}
	}
}

func TestTopEndpoint(t *testing.T) {
	oracle := loadedKarateOracle(t)
	ts := newTestServer(t, Config{Oracle: oracle})
	resp, err := http.Get(ts.URL + "/v1/top?k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got TopResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	wantV, wantI := oracle.TopSingleVertices(3)
	if len(got.Vertices) != 3 || !reflect.DeepEqual(got.Influences, wantI) {
		t.Errorf("top = %v/%v, want %v/%v", got.Vertices, got.Influences, wantV, wantI)
	}

	for _, q := range []string{"?k=0", "?k=abc", "?k=99999999"} {
		resp, err := http.Get(ts.URL + "/v1/top" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("k query %q: status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "ok" || got.Vertices != 34 || got.RRSets != 20000 || got.Model != "IC" || got.BuildSeed != 7 {
		t.Errorf("healthz = %+v", got)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/influence")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/influence status = %d, want 405", resp.StatusCode)
	}
}

// TestConcurrentInfluence is the acceptance test: many goroutines hammer
// /v1/influence (plus /v1/seeds and /v1/top) against one loaded sketch under
// -race, and every response must equal the serial answer.
func TestConcurrentInfluence(t *testing.T) {
	oracle := loadedKarateOracle(t)
	ts := newTestServer(t, Config{Oracle: oracle, CacheSize: 8})

	type want struct {
		body string
		inf  float64
	}
	var wants []want
	for _, seeds := range [][]int{{0}, {0, 33}, {1, 2, 3}, {32, 33}, {5, 11, 17, 23}} {
		inf, err := oracle.Influence(CanonicalSeeds(seeds))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(influenceRequest{Seeds: seeds})
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, want{body: string(raw), inf: inf})
	}

	const goroutines = 16
	const iters = 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < iters; i++ {
				w := wants[(g+i)%len(wants)]
				resp, err := client.Post(ts.URL+"/v1/influence", "application/json", strings.NewReader(w.body))
				if err != nil {
					t.Error(err)
					return
				}
				var got InfluenceResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if got.Influence != w.inf {
					t.Errorf("concurrent influence for %s = %v, want %v", w.body, got.Influence, w.inf)
					return
				}
				if i%20 == 0 {
					resp, err := client.Post(ts.URL+"/v1/seeds", "application/json", strings.NewReader(fmt.Sprintf(`{"k":%d}`, 1+g%4)))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					resp, err = client.Get(ts.URL + "/v1/top?k=5")
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNewRequiresOracle(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without oracle succeeded")
	}
}

func TestLRUCache(t *testing.T) {
	c := newLRUCache(2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("c", 3) // evicts b (a was just used)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted out of LRU order")
	}
	c.Put("a", 10)
	if v, _ := c.Get("a"); v.(int) != 10 {
		t.Error("Put did not update existing entry")
	}
	hits, misses, size := c.Stats()
	if size != 2 || hits == 0 || misses == 0 {
		t.Errorf("Stats = %d hits, %d misses, size %d", hits, misses, size)
	}

	// Disabled cache never stores, but still counts every Get as a miss so
	// /healthz reflects uncached traffic.
	d := newLRUCache(0)
	d.Put("x", 1)
	if _, ok := d.Get("x"); ok {
		t.Error("disabled cache returned a value")
	}
	d.Get("y")
	if hits, misses, size := d.Stats(); hits != 0 || misses != 2 || size != 0 {
		t.Errorf("disabled cache Stats = %d hits, %d misses, size %d; want 0, 2, 0", hits, misses, size)
	}
}

// TestHealthzCountsMissesWithoutCache pins the lruCache stats fix end to end:
// a server with caching disabled must still report its misses.
func TestHealthzCountsMissesWithoutCache(t *testing.T) {
	ts := newTestServer(t, Config{CacheSize: -1})
	for i := 0; i < 3; i++ {
		if status, _ := postJSON(t, ts.URL+"/v1/influence", `{"seeds":[0]}`); status != http.StatusOK {
			t.Fatalf("status = %d", status)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.CacheHits != 0 || got.CacheMisses != 3 {
		t.Errorf("healthz cache stats = %d/%d, want 0 hits / 3 misses", got.CacheHits, got.CacheMisses)
	}
}
