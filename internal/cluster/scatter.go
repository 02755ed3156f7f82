package cluster

// Scatter-gather plumbing: fan a shard request out to every target over the
// pooled transport, verify from the identity echoes that the responses really
// assemble the fleet the coordinator fronts, and merge the integer counts.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"

	"imdist/internal/server"
	"imdist/internal/stats"
)

// shardError is a scatter failure attributed to one shard target.
// unreachable marks transport failures and shard-side error statuses — the
// degraded-fleet case, served as 503 until the shard returns — while
// assembly errors (wrong lineage, mixed builds) stay 502s. status and
// shardMsg hold the shard's own HTTP status and error body when there was
// one, letting not-found answers pass through verbatim.
type shardError struct {
	target      string
	err         error
	unreachable bool
	status      int
	shardMsg    string
}

func (e *shardError) Error() string { return fmt.Sprintf("shard target %s: %v", e.target, e.err) }
func (e *shardError) Unwrap() error { return e.err }

// fleetView is the verified fleet-wide identity of a gather, plus the merge
// arithmetic every handler shares.
type fleetView struct {
	vertices  int
	model     string
	buildSeed uint64
	totalSets int
}

// influence converts a fleet-wide merged RR-set count to influence units —
// the single float division of the whole distributed computation, the exact
// expression core.Oracle evaluates on the unsplit sketch. Byte-identity
// hinges on everything before this line being integer arithmetic.
func (f fleetView) influence(hits int64) float64 {
	return float64(f.vertices) * float64(hits) / float64(f.totalSets)
}

// ci99 is the fleet-wide 99% confidence half-width, as
// core.Oracle.ConfidenceHalfWidth(2.576) computes it from the RR-set total.
func (f fleetView) ci99() float64 {
	return float64(f.vertices) * stats.BinomialCI(0.5, f.totalSets, 2.576)
}

// shardPath builds the request path for a shard primitive against the named
// sketch ("" = the shard server's default sketch).
func shardPath(sketch, kind string) string {
	if sketch == "" {
		return "/v1/shard/" + kind
	}
	return "/v1/sketches/" + url.PathEscape(sketch) + "/shard/" + kind
}

// postShardJSON posts body to one shard target and decodes the 200 response
// into out. Any failure — transport, non-200 status, undecodable body — is a
// *shardError naming the target.
func (c *Coordinator) postShardJSON(ctx context.Context, target, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("cluster: encoding shard request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+path, bytes.NewReader(payload))
	if err != nil {
		return &shardError{target: target, err: err, unreachable: true}
	}
	req.Header.Set("Content-Type", "application/json")
	return c.doShard(target, req, out)
}

// getJSON fetches url from a shard target and decodes the 200 response.
func (c *Coordinator) getJSON(ctx context.Context, target string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Coordinator) doShard(target string, req *http.Request, out any) error {
	resp, err := c.client.Do(req)
	if err != nil {
		return &shardError{target: target, err: err, unreachable: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg := fmt.Sprintf("status %d", resp.StatusCode)
		var er server.ErrorResponse
		if b, rerr := io.ReadAll(io.LimitReader(resp.Body, 4096)); rerr == nil {
			if json.Unmarshal(b, &er) == nil && er.Error != "" {
				msg = fmt.Sprintf("status %d: %s", resp.StatusCode, er.Error)
			}
		}
		return &shardError{
			target: target, err: errors.New(msg), unreachable: true,
			status: resp.StatusCode, shardMsg: er.Error,
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return &shardError{target: target, err: fmt.Errorf("decoding response: %w", err), unreachable: true}
	}
	return nil
}

// verifyFleet checks that the per-shard identity echoes assemble exactly the
// fleet this coordinator fronts: every response claims a fleet of
// len(targets) shards, the shard indexes are a permutation of 0..count-1
// (no duplicated or missing slices), every shard reports the same build
// identity, and the per-shard RR-set counts sum to the lineage total.
func verifyFleet(targets []string, ids []server.ShardIdentity) (fleetView, error) {
	want := len(targets)
	owner := make([]int, want) // 1-based target index by shard index
	setSum := 0
	for i, id := range ids {
		if id.ShardCount != want {
			return fleetView{}, &shardError{target: targets[i],
				err: fmt.Errorf("reports a %d-shard fleet, coordinator has %d targets", id.ShardCount, want)}
		}
		if id.ShardIndex < 0 || id.ShardIndex >= want {
			return fleetView{}, &shardError{target: targets[i],
				err: fmt.Errorf("reports shard index %d, out of range for a %d-shard fleet", id.ShardIndex, want)}
		}
		if prev := owner[id.ShardIndex]; prev != 0 {
			return fleetView{}, &shardError{target: targets[i],
				err: fmt.Errorf("serves shard %d already served by %s", id.ShardIndex, targets[prev-1])}
		}
		owner[id.ShardIndex] = i + 1
		if id.Vertices != ids[0].Vertices || id.Model != ids[0].Model ||
			id.BuildSeed != ids[0].BuildSeed || id.TotalSets != ids[0].TotalSets {
			return fleetView{}, &shardError{target: targets[i],
				err: fmt.Errorf("sketch identity (%d vertices, %s, seed %d, %d total sets) does not match %s (%d vertices, %s, seed %d, %d total sets)",
					id.Vertices, id.Model, id.BuildSeed, id.TotalSets,
					targets[0], ids[0].Vertices, ids[0].Model, ids[0].BuildSeed, ids[0].TotalSets)}
		}
		setSum += id.NumSets
	}
	if setSum != ids[0].TotalSets {
		return fleetView{}, fmt.Errorf("fleet holds %d RR sets, lineage expects %d", setSum, ids[0].TotalSets)
	}
	return fleetView{
		vertices:  ids[0].Vertices,
		model:     ids[0].Model,
		buildSeed: ids[0].BuildSeed,
		totalSets: ids[0].TotalSets,
	}, nil
}

// coverageGather is the merged result of one /v1/shard/coverage scatter:
// exact fleet-wide coverage counts, one per requested seed set.
type coverageGather struct {
	fleetView
	counts []int64
	errs   []string // item-parallel validation errors, nil when all valid
}

// itemError returns the validation error the shards flagged item i with, or
// "" when the item is valid. The message text is the shards' shared
// validation — identical to what a single process would have answered.
func (g *coverageGather) itemError(i int) string {
	if g.errs == nil {
		return ""
	}
	return g.errs[i]
}

// scatter posts req to path on every target concurrently, waits for all of
// them, and returns their responses in target order with the fleet view
// verified from the identity echoes that id extracts. A failed call wins over
// the fleet check, and the first failure in target order is the one
// reported.
func scatter[R any](ctx context.Context, c *Coordinator, path string, req any, id func(*R) server.ShardIdentity) ([]R, fleetView, error) {
	resps := make([]R, len(c.cfg.Targets))
	errs := make([]error, len(c.cfg.Targets))
	var wg sync.WaitGroup
	for i, target := range c.cfg.Targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.postShardJSON(ctx, target, path, req, &resps[i])
		}()
	}
	wg.Wait()
	ids := make([]server.ShardIdentity, len(resps))
	for i := range resps {
		if errs[i] != nil {
			return nil, fleetView{}, errs[i]
		}
		ids[i] = id(&resps[i])
	}
	fleet, err := verifyFleet(c.cfg.Targets, ids)
	return resps, fleet, err
}

func (c *Coordinator) scatterCoverage(ctx context.Context, sketch string, seedSets [][]int) (*coverageGather, error) {
	resps, fleet, err := scatter(ctx, c, shardPath(sketch, "coverage"),
		server.ShardCoverageRequest{SeedSets: seedSets},
		func(r *server.ShardCoverageResponse) server.ShardIdentity { return r.ShardIdentity })
	if err != nil {
		return nil, err
	}
	g := &coverageGather{fleetView: fleet, counts: make([]int64, len(seedSets))}
	for i := range resps {
		if len(resps[i].Counts) != len(seedSets) {
			return nil, &shardError{target: c.cfg.Targets[i],
				err: fmt.Errorf("returned %d counts for %d seed sets", len(resps[i].Counts), len(seedSets))}
		}
		for j, n := range resps[i].Counts {
			g.counts[j] += n
		}
		if resps[i].Errors == nil {
			continue
		}
		if g.errs == nil {
			g.errs = make([]string, len(seedSets))
		}
		for j, msg := range resps[i].Errors {
			if g.errs[j] == "" {
				g.errs[j] = msg
			}
		}
	}
	return g, nil
}

// marginalGather is the merged result of one /v1/shard/marginal scatter:
// exact fleet-wide marginal gains, one per candidate (every vertex in
// ascending id order when candidates was nil).
type marginalGather struct {
	fleetView
	gains []int64
}

func (c *Coordinator) scatterMarginal(ctx context.Context, sketch string, seeds, candidates []int) (*marginalGather, error) {
	resps, fleet, err := scatter(ctx, c, shardPath(sketch, "marginal"),
		server.ShardMarginalRequest{Seeds: seeds, Candidates: candidates},
		func(r *server.ShardMarginalResponse) server.ShardIdentity { return r.ShardIdentity })
	if err != nil {
		return nil, err
	}
	wantLen := len(candidates)
	if candidates == nil {
		wantLen = fleet.vertices
	}
	g := &marginalGather{fleetView: fleet, gains: make([]int64, wantLen)}
	for i := range resps {
		if len(resps[i].Gains) != wantLen {
			return nil, &shardError{target: c.cfg.Targets[i],
				err: fmt.Errorf("returned %d gains for %d candidates", len(resps[i].Gains), wantLen)}
		}
		for j, n := range resps[i].Gains {
			g.gains[j] += n
		}
	}
	return g, nil
}
