package server

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"

	"imdist/internal/core"
	"imdist/internal/graph"
)

// Shard endpoints: the integer-count primitives a cluster coordinator
// scatter-gathers over a partitioned sketch fleet (internal/cluster). Unlike
// the public /v1 query endpoints, which answer in influence units, these
// return raw per-shard RR-set counts — pure merge-able integers. The single
// float division by the fleet-wide total happens once, at the coordinator,
// which is what keeps distributed answers byte-identical to a single process
// on the unsplit sketch.
//
//	POST /v1/shard/coverage  {"seed_sets":[[0,5],[3]]} -> {"counts":"<packed>","shard_index":..,...}
//	POST /v1/shard/marginal  {"seeds":[..],"candidates":[..]} -> {"gains":"<packed>",...}
//
// The count vectors travel packed, as a base64 string of varints (Counts),
// not as JSON number arrays: the round-0 marginal answer holds one count per
// vertex, and encoding/json took far longer to decode that array at the
// coordinator than the shard took to compute it. There is one wire form, so
// a coordinator and its shards must come from the same build; a number array
// from an older shard fails the decode, and the coordinator answers 503
// naming that shard.
//
// Both also exist as named routes (/v1/sketches/{name}/shard/...). Every
// response carries the sketch's shard identity so the coordinator can verify,
// per query, that the fleet is assembled from the shards it thinks it is; an
// unsharded sketch reports itself as shard 0 of a 1-shard fleet, making a
// plain single sketch a degenerate—but valid—fleet.

// ShardIdentity names the sketch a shard response was computed on: the build
// identity shared by every shard of a split, plus this shard's slice of the
// fleet.
type ShardIdentity struct {
	Vertices   int    `json:"vertices"`
	Model      string `json:"model"`
	BuildSeed  uint64 `json:"build_seed"`
	NumSets    int    `json:"num_sets"`
	ShardIndex int    `json:"shard_index"`
	ShardCount int    `json:"shard_count"`
	TotalSets  int    `json:"total_sets"`
}

// shardIdentity describes o for a shard response, synthesizing the 1-shard
// fleet view for unsharded sketches.
func shardIdentity(o *core.Oracle) ShardIdentity {
	l := o.ShardLineage()
	if !l.Sharded() {
		l = core.ShardLineage{Index: 0, Count: 1, TotalSets: o.NumSets()}
	}
	return ShardIdentity{
		Vertices:   o.NumVertices(),
		Model:      o.Model().String(),
		BuildSeed:  o.BuildSeed(),
		NumSets:    o.NumSets(),
		ShardIndex: l.Index,
		ShardCount: l.Count,
		TotalSets:  l.TotalSets,
	}
}

// Counts is a vector of non-negative integer counts in the shard wire form:
// a JSON string holding the standard base64 of the counts as consecutive
// unsigned varints. Decoding accepts exactly what encoding produces — strict
// base64 without line breaks, minimal varints, no value above MaxInt64 — so
// every accepted string re-encodes to itself.
type Counts []int64

var countsEncoding = base64.StdEncoding.Strict()

// MarshalText packs c. A negative count has no varint form and is an error.
func (c Counts) MarshalText() ([]byte, error) {
	buf := make([]byte, 0, 2*len(c))
	for i, n := range c {
		if n < 0 {
			return nil, fmt.Errorf("count %d is negative: %d", i, n)
		}
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	return countsEncoding.AppendEncode(nil, buf), nil
}

// UnmarshalText unpacks text as written by MarshalText.
func (c *Counts) UnmarshalText(text []byte) error {
	raw, err := countsEncoding.AppendDecode(nil, text)
	if err != nil {
		return fmt.Errorf("counts: %w", err)
	}
	if countsEncoding.EncodedLen(len(raw)) != len(text) {
		// The decoder skips \r and \n; nothing else may be skipped.
		return errors.New("counts: line breaks in base64")
	}
	n := 0
	for _, b := range raw {
		if b < 0x80 {
			n++
		}
	}
	out := make(Counts, 0, n)
	for len(raw) > 0 {
		v, k := binary.Uvarint(raw)
		switch {
		case k <= 0:
			return fmt.Errorf("counts: entry %d: truncated or overflowing varint", len(out))
		case k > 1 && raw[k-1] == 0:
			return fmt.Errorf("counts: entry %d: overlong varint", len(out))
		case v > math.MaxInt64:
			return fmt.Errorf("counts: entry %d: %d exceeds the int64 range", len(out), v)
		}
		out = append(out, int64(v))
		raw = raw[k:]
	}
	*c = out
	return nil
}

// ShardCoverageRequest evaluates many seed sets against this shard's slice of
// the RR-set pool.
type ShardCoverageRequest struct {
	SeedSets [][]int `json:"seed_sets"`
}

// ShardCoverageResponse carries one exact coverage count per requested seed
// set. Errors, when present, is item-parallel ("" for valid items), so one
// bad seed set never fails the scatter.
type ShardCoverageResponse struct {
	ShardIdentity
	Counts Counts   `json:"counts"`
	Errors []string `json:"errors,omitempty"`
}

func (s *Server) handleShardCoverage(w http.ResponseWriter, r *http.Request) {
	e, err := s.acquire(r)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	defer e.release()
	var req ShardCoverageRequest
	if !decodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if len(req.SeedSets) == 0 {
		writeError(w, http.StatusBadRequest, "seed_sets must be non-empty")
		return
	}
	if len(req.SeedSets) > s.cfg.MaxBatchQueries {
		writeError(w, http.StatusBadRequest, "too many seed sets: %d > %d", len(req.SeedSets), s.cfg.MaxBatchQueries)
		return
	}
	resp := ShardCoverageResponse{
		ShardIdentity: shardIdentity(e.oracle),
		Counts:        make([]int64, len(req.SeedSets)),
	}
	seedSets := make([][]graph.VertexID, len(req.SeedSets))
	var msgs []string
	for i, seeds := range req.SeedSets {
		if msg := s.validateShardSeeds(e.oracle, seeds); msg != "" {
			if msgs == nil {
				msgs = make([]string, len(req.SeedSets))
			}
			msgs[i] = msg
			continue
		}
		seedSets[i] = CanonicalSeeds(seeds)
	}
	counts, errs := e.oracle.BatchCoverage(seedSets, s.cfg.BatchWorkers)
	for i := range counts {
		if msgs != nil && msgs[i] != "" {
			continue
		}
		if errs[i] != nil {
			// Unreachable after validateShardSeeds, but the oracle's own
			// validation is the final authority.
			if msgs == nil {
				msgs = make([]string, len(req.SeedSets))
			}
			msgs[i] = errs[i].Error()
			continue
		}
		resp.Counts[i] = counts[i]
	}
	resp.Errors = msgs
	extendWriteDeadline(w, s.cfg.WriteTimeout)
	writeJSON(w, http.StatusOK, resp)
}

// validateShardSeeds checks a shard query's seed list as the public routes
// do, except that the empty list is valid (coverage 0, and the greedy
// protocol's round-0 marginal call).
func (s *Server) validateShardSeeds(oracle *core.Oracle, seeds []int) string {
	if len(seeds) == 0 {
		return ""
	}
	if msg := seedsShapeError(seeds, s.cfg.MaxSeeds); msg != "" {
		return msg
	}
	return seedsRangeError(seeds, oracle.NumVertices())
}

// ShardMarginalRequest asks for the marginal coverage gain of every candidate
// on top of seeds. A null/absent candidates list means every vertex, in
// ascending id order; an empty list is an empty answer.
type ShardMarginalRequest struct {
	Seeds      []int `json:"seeds"`
	Candidates []int `json:"candidates"`
}

// ShardMarginalResponse carries one exact marginal count per candidate.
type ShardMarginalResponse struct {
	ShardIdentity
	Gains Counts `json:"gains"`
}

func (s *Server) handleShardMarginal(w http.ResponseWriter, r *http.Request) {
	e, err := s.acquire(r)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	defer e.release()
	var req ShardMarginalRequest
	if !decodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if msg := s.validateShardSeeds(e.oracle, req.Seeds); msg != "" {
		writeError(w, http.StatusBadRequest, "seeds: %s", msg)
		return
	}
	if msg := s.validateShardSeeds(e.oracle, req.Candidates); msg != "" {
		writeError(w, http.StatusBadRequest, "candidates: %s", msg)
		return
	}
	seeds := CanonicalSeeds(req.Seeds)
	// Candidates keep their request order (the coordinator matches gains back
	// by position) and their nil-ness: null means "all vertices".
	var candidates []graph.VertexID
	if req.Candidates != nil {
		candidates = make([]graph.VertexID, len(req.Candidates))
		for i, v := range req.Candidates {
			candidates[i] = graph.VertexID(v)
		}
	}
	gains, err := e.oracle.MarginalCoverage(seeds, candidates)
	if err != nil {
		// Unreachable after the range checks above, but the oracle's own
		// validation is the final authority.
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	extendWriteDeadline(w, s.cfg.WriteTimeout)
	writeJSON(w, http.StatusOK, ShardMarginalResponse{
		ShardIdentity: shardIdentity(e.oracle),
		Gains:         gains,
	})
}
