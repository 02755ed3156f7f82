package server

import (
	"encoding/base64"
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"testing"

	"imdist/internal/core"
	"imdist/internal/graph"
)

func TestShardCoverageEndpoint(t *testing.T) {
	oracle := loadedKarateOracle(t)
	ts := newTestServer(t, Config{Oracle: oracle})

	status, raw := postJSON(t, ts.URL+"/v1/shard/coverage", `{"seed_sets":[[0],[33,0,33],[],[99]]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var resp ShardCoverageResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	// An unsharded sketch reports itself as the whole 1-shard fleet.
	if resp.ShardIndex != 0 || resp.ShardCount != 1 || resp.TotalSets != oracle.NumSets() {
		t.Errorf("identity = %+v, want shard 0 of 1 over %d sets", resp.ShardIdentity, oracle.NumSets())
	}
	if resp.NumSets != oracle.NumSets() || resp.Vertices != oracle.NumVertices() {
		t.Errorf("identity shape = %+v", resp.ShardIdentity)
	}
	want0, err := oracle.Coverage([]graph.VertexID{0})
	if err != nil {
		t.Fatal(err)
	}
	want1, err := oracle.Coverage([]graph.VertexID{0, 33})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Counts[0] != want0 || resp.Counts[1] != want1 || resp.Counts[2] != 0 {
		t.Errorf("counts = %v, want [%d %d 0 _]", resp.Counts, want0, want1)
	}
	if len(resp.Errors) != 4 || resp.Errors[3] == "" || resp.Errors[0] != "" {
		t.Errorf("errors = %q, want item 3 flagged only", resp.Errors)
	}

	// Empty batch and oversized batches are rejected outright.
	if status, _ := postJSON(t, ts.URL+"/v1/shard/coverage", `{"seed_sets":[]}`); status != http.StatusBadRequest {
		t.Errorf("empty seed_sets status = %d", status)
	}
}

func TestShardMarginalEndpoint(t *testing.T) {
	oracle := loadedKarateOracle(t)
	ts := newTestServer(t, Config{Oracle: oracle})

	// Explicit candidates, in request order.
	status, raw := postJSON(t, ts.URL+"/v1/shard/marginal", `{"seeds":[0],"candidates":[33,0,5]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var resp ShardMarginalResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	wantGains, err := oracle.MarginalCoverage([]graph.VertexID{0}, []graph.VertexID{33, 0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Gains) != 3 || resp.Gains[0] != wantGains[0] || resp.Gains[1] != 0 || resp.Gains[2] != wantGains[2] {
		t.Errorf("gains = %v, want %v", resp.Gains, wantGains)
	}

	// Null candidates = all vertices; empty seeds = membership counts.
	status, raw = postJSON(t, ts.URL+"/v1/shard/marginal", `{"seeds":[]}`)
	if status != http.StatusOK {
		t.Fatalf("all-vertices status %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Gains) != oracle.NumVertices() {
		t.Fatalf("all-vertices gains = %d entries, want %d", len(resp.Gains), oracle.NumVertices())
	}
	all, err := oracle.MarginalCoverage(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range all {
		if resp.Gains[v] != all[v] {
			t.Fatalf("gain[%d] = %d, want %d", v, resp.Gains[v], all[v])
		}
	}

	// Out-of-range seeds and candidates are a 400, not a partial answer.
	if status, _ := postJSON(t, ts.URL+"/v1/shard/marginal", `{"seeds":[99]}`); status != http.StatusBadRequest {
		t.Errorf("bad seed status = %d", status)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/shard/marginal", `{"seeds":[0],"candidates":[99]}`); status != http.StatusBadRequest {
		t.Errorf("bad candidate status = %d", status)
	}
}

func TestShardEndpointsNamedRoutes(t *testing.T) {
	oracle := loadedKarateOracle(t)
	ts := newTestServer(t, Config{Sketches: map[string]*core.Oracle{"k": oracle}})
	status, raw := postJSON(t, ts.URL+"/v1/sketches/k/shard/coverage", `{"seed_sets":[[0]]}`)
	if status != http.StatusOK {
		t.Fatalf("named route status %d: %s", status, raw)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/sketches/nope/shard/marginal", `{"seeds":[0]}`); status != http.StatusNotFound {
		t.Errorf("unknown sketch status = %d", status)
	}
}

func TestLineageSurfacedInListAndHealthz(t *testing.T) {
	oracle := loadedKarateOracle(t)
	if err := oracle.SetShardLineage(core.ShardLineage{Index: 2, Count: 4, TotalSets: 80000}); err != nil {
		t.Fatal(err)
	}
	plain := loadedKarateOracle(t)
	ts := newTestServer(t, Config{
		Oracle:   oracle,
		Sketches: map[string]*core.Oracle{"plain": plain},
	})

	resp, err := http.Get(ts.URL + "/v1/sketches")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list listSketchesResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	byName := map[string]sketchInfo{}
	for _, si := range list.Sketches {
		byName[si.Name] = si
	}
	sharded := byName[DefaultSketchName]
	if sharded.ShardIndex == nil || *sharded.ShardIndex != 2 || sharded.ShardCount != 4 || sharded.TotalSets != 80000 {
		t.Errorf("sharded sketch info = %+v, want shard 2 of 4 over 80000", sharded)
	}
	if p := byName["plain"]; p.ShardIndex != nil || p.ShardCount != 0 || p.TotalSets != 0 {
		t.Errorf("plain sketch leaked lineage: %+v", p)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hz healthzResponse
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.ShardIndex == nil || *hz.ShardIndex != 2 || hz.ShardCount != 4 || hz.TotalSets != 80000 {
		t.Errorf("healthz lineage = index %v count %d total %d", hz.ShardIndex, hz.ShardCount, hz.TotalSets)
	}
}

// packCounts is the wire form of raw varint bytes, for hand-built hostile
// inputs.
func packCounts(raw ...byte) string { return base64.StdEncoding.EncodeToString(raw) }

func TestCountsWireForm(t *testing.T) {
	for _, c := range []Counts{
		nil,
		{},
		{0},
		{1, 127, 128},
		{1 << 40, math.MaxInt64, 0},
	} {
		raw, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal %v: %v", c, err)
		}
		var got Counts
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		if !slices.Equal(got, c) {
			t.Errorf("round trip of %v via %s = %v", c, raw, got)
		}
	}
	// 128 is the first two-byte varint.
	if raw, _ := json.Marshal(Counts{0, 1, 127, 128}); string(raw) != `"AAF/gAE="` {
		t.Errorf("wire form of [0 1 127 128] = %s", raw)
	}

	if _, err := json.Marshal(Counts{3, -1}); err == nil {
		t.Error("marshalled a negative count")
	}

	for _, tc := range []struct{ name, text string }{
		{"invalid base64", "!!!!"},
		{"non-canonical base64 padding bits", "AB=="},
		{"base64 with a line break", "AAF/\ngAE="},
		{"truncated varint", packCounts(0x80)},
		{"truncated varint after a count", packCounts(0x05, 0xff, 0xff)},
		{"overlong varint", packCounts(0x80, 0x00)},
		{"varint longer than 10 bytes", packCounts(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)},
		{"varint above MaxInt64", packCounts(0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)},
		{"trailing garbage", packCounts(0x05, 0x06) + "x"},
	} {
		var got Counts
		if err := got.UnmarshalText([]byte(tc.text)); err == nil {
			t.Errorf("%s: %q accepted as %v", tc.name, tc.text, got)
		}
	}
	// A JSON number array is not a Counts: a shard from an older build fails
	// the decode instead of being half understood.
	var got Counts
	if err := json.Unmarshal([]byte(`[1,2]`), &got); err == nil {
		t.Errorf("number array accepted as %v", got)
	}
}

// FuzzCounts feeds arbitrary text to the Counts decoder: it never panics,
// and whatever it accepts re-encodes to exactly the same text.
func FuzzCounts(f *testing.F) {
	f.Add("")
	f.Add("AAF/gAE=")
	f.Add(packCounts(0x80, 0x00))
	f.Add(packCounts(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f))
	f.Fuzz(func(t *testing.T, text string) {
		var c Counts
		if err := c.UnmarshalText([]byte(text)); err != nil {
			return
		}
		again, err := c.MarshalText()
		if err != nil {
			t.Fatalf("accepted %q as %v, which does not re-encode: %v", text, c, err)
		}
		if string(again) != text {
			t.Fatalf("accepted %q as %v, which re-encodes to %q", text, c, again)
		}
	})
}
