package cluster

// Scatter-gather plumbing: fan a shard request out to every target over the
// pooled transport, verify from the identity echoes that the responses really
// assemble the fleet the coordinator fronts, and merge the integer counts —
// the fleet's server.Source.

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

	"imdist/internal/graph"
	"imdist/internal/server"
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

// fleetError maps a scatter failure to the degraded-mode answer the query
// handlers give: a shard's "sketch not loaded" passes through verbatim as
// the shard's own 404, so unknown-sketch requests read exactly as on a
// single process; an unreachable or erroring shard is a 503 naming the
// missing target; a misassembled fleet (wrong lineage) a 502 naming the
// offender.
func fleetError(err error) error {
	status := http.StatusBadGateway
	var se *shardError
	if errors.As(err, &se) {
		if se.status == http.StatusNotFound && se.shardMsg != "" {
			return &server.StatusError{Status: http.StatusNotFound, Msg: se.shardMsg}
		}
		if se.unreachable {
			status = http.StatusServiceUnavailable
		}
	}
	return &server.StatusError{Status: status, Msg: err.Error()}
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
func verifyFleet(targets []string, ids []server.ShardIdentity) (server.Identity, error) {
	want := len(targets)
	owner := make([]int, want) // 1-based target index by shard index
	setSum := 0
	for i, id := range ids {
		if id.ShardCount != want {
			return server.Identity{}, &shardError{target: targets[i],
				err: fmt.Errorf("reports a %d-shard fleet, coordinator has %d targets", id.ShardCount, want)}
		}
		if id.ShardIndex < 0 || id.ShardIndex >= want {
			return server.Identity{}, &shardError{target: targets[i],
				err: fmt.Errorf("reports shard index %d, out of range for a %d-shard fleet", id.ShardIndex, want)}
		}
		if prev := owner[id.ShardIndex]; prev != 0 {
			return server.Identity{}, &shardError{target: targets[i],
				err: fmt.Errorf("serves shard %d already served by %s", id.ShardIndex, targets[prev-1])}
		}
		owner[id.ShardIndex] = i + 1
		if id.Vertices != ids[0].Vertices || id.Model != ids[0].Model ||
			id.BuildSeed != ids[0].BuildSeed || id.TotalSets != ids[0].TotalSets {
			return server.Identity{}, &shardError{target: targets[i],
				err: fmt.Errorf("sketch identity (%d vertices, %s, seed %d, %d total sets) does not match %s (%d vertices, %s, seed %d, %d total sets)",
					id.Vertices, id.Model, id.BuildSeed, id.TotalSets,
					targets[0], ids[0].Vertices, ids[0].Model, ids[0].BuildSeed, ids[0].TotalSets)}
		}
		setSum += id.NumSets
	}
	if setSum != ids[0].TotalSets {
		return server.Identity{}, fmt.Errorf("fleet holds %d RR sets, lineage expects %d", setSum, ids[0].TotalSets)
	}
	return server.Identity{
		Vertices:  ids[0].Vertices,
		Model:     ids[0].Model,
		BuildSeed: ids[0].BuildSeed,
		TotalSets: ids[0].TotalSets,
	}, nil
}

// scatter posts req to path on every target concurrently, waits for all of
// them, and returns their responses in target order with the fleet identity
// verified from the identity echoes that id extracts. A failed call wins over
// the fleet check, and the first failure in target order is the one
// reported.
func scatter[R any](ctx context.Context, c *Coordinator, path string, req any, id func(*R) server.ShardIdentity) ([]R, server.Identity, error) {
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
			return nil, server.Identity{}, errs[i]
		}
		ids[i] = id(&resps[i])
	}
	fleet, err := verifyFleet(c.cfg.Targets, ids)
	return resps, fleet, err
}

// fleet is the server.Source of one request on the shard fleet: each call
// is one scatter to every shard, verified and summed. Errors are
// *server.StatusError (fleetError).
type fleet struct {
	c      *Coordinator
	sketch string
}

// Coverage sums the shards' coverage counts. The shards range-check every
// seed set as a single process would and flag the invalid ones per item;
// the first flag in target order is the item's error.
func (f fleet) Coverage(ctx context.Context, seedSets [][]int) (server.Identity, []int64, []string, error) {
	resps, id, err := scatter(ctx, f.c, shardPath(f.sketch, "coverage"),
		server.ShardCoverageRequest{SeedSets: seedSets},
		func(r *server.ShardCoverageResponse) server.ShardIdentity { return r.ShardIdentity })
	if err != nil {
		return server.Identity{}, nil, nil, fleetError(err)
	}
	counts := make([]int64, len(seedSets))
	var msgs []string
	for i := range resps {
		if len(resps[i].Counts) != len(seedSets) {
			return server.Identity{}, nil, nil, fleetError(&shardError{target: f.c.cfg.Targets[i],
				err: fmt.Errorf("returned %d counts for %d seed sets", len(resps[i].Counts), len(seedSets))})
		}
		for j, n := range resps[i].Counts {
			counts[j] += n
		}
		if resps[i].Errors == nil {
			continue
		}
		if msgs == nil {
			msgs = make([]string, len(seedSets))
		}
		for j, msg := range resps[i].Errors {
			if msgs[j] == "" {
				msgs[j] = msg
			}
		}
	}
	return id, counts, msgs, nil
}

// Marginal sums the shards' marginal gains, one per candidate (every vertex
// in ascending id order when candidates is nil).
func (f fleet) Marginal(ctx context.Context, seeds, candidates []graph.VertexID) (server.Identity, []int64, error) {
	resps, id, err := scatter(ctx, f.c, shardPath(f.sketch, "marginal"),
		server.ShardMarginalRequest{Seeds: toInts(seeds), Candidates: toInts(candidates)},
		func(r *server.ShardMarginalResponse) server.ShardIdentity { return r.ShardIdentity })
	if err != nil {
		return server.Identity{}, nil, fleetError(err)
	}
	wantLen := len(candidates)
	if candidates == nil {
		wantLen = id.Vertices
	}
	gains := make([]int64, wantLen)
	for i := range resps {
		if len(resps[i].Gains) != wantLen {
			return server.Identity{}, nil, fleetError(&shardError{target: f.c.cfg.Targets[i],
				err: fmt.Errorf("returned %d gains for %d candidates", len(resps[i].Gains), wantLen)})
		}
		for j, n := range resps[i].Gains {
			gains[j] += n
		}
	}
	return id, gains, nil
}

// toInts converts vertex ids to the shard wire format, keeping nil as nil
// (nil candidates mean every vertex).
func toInts(vs []graph.VertexID) []int {
	if vs == nil {
		return nil
	}
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}
