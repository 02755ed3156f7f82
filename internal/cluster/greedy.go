package cluster

// Distributed greedy seed selection: core.LazyGreedy over fleet-wide
// marginal coverage counts, which selects, vertex for vertex, what
// core.Oracle.GreedySeeds selects on the unsplit sketch.

import (
	"context"
	"errors"

	"imdist/internal/core"
	"imdist/internal/graph"
	"imdist/internal/server"
)

// errFleetChanged fails a seed selection whose rounds saw different fleets.
var errFleetChanged = errors.New("fleet identity changed during seed selection (sketch reloaded mid-query); retry")

// fleetMarginals is the coordinator's core.MarginalSource for one seed
// selection: each call is one /v1/shard/marginal scatter. It remembers the
// round-0 fleet identity, which every later round must match.
type fleetMarginals struct {
	ctx    context.Context
	c      *Coordinator
	sketch string
	first  *fleetView
}

func (f *fleetMarginals) MarginalCoverage(seeds, candidates []graph.VertexID) ([]int64, error) {
	mg, err := f.c.scatterMarginal(f.ctx, f.sketch, toInts(seeds), toInts(candidates))
	if err != nil {
		return nil, err
	}
	if f.first == nil {
		f.first = &mg.fleetView
		return mg.gains, nil
	}
	// A shard hot-reloaded to a different sketch mid-selection would make
	// the rounds' gains incomparable; rather than merge counts from two
	// different builds, fail the query — the client's retry starts clean.
	if mg.fleetView != *f.first {
		return nil, errFleetChanged
	}
	return mg.gains, nil
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

// greedySeeds answers /v1/seeds for the fleet: the same seed sequence and
// influence a single process computes with GreedySeeds + Influence on the
// unsplit sketch. LazyGreedy clamps k to the vertex count, as GreedySeeds
// does.
func (c *Coordinator) greedySeeds(ctx context.Context, sketch string, k int) (server.SeedsResponse, error) {
	src := &fleetMarginals{ctx: ctx, c: c, sketch: sketch}
	seeds, covered, err := core.LazyGreedy(src, k)
	if err != nil {
		return server.SeedsResponse{}, err
	}
	return server.SeedsResponse{Seeds: toInts(seeds), Influence: src.first.influence(covered)}, nil
}
