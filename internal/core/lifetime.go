package core

import (
	"fmt"
	"math/rand"
	"sort"

	"dcc/internal/graph"
	"dcc/internal/runner"
	"dcc/internal/vpt"
)

// streamBiasedShuffle is the DeriveSeed stream of the duty-biased
// scheduler's tie-breaking shuffle (one derivation per rotation epoch; the
// epoch number rides in the run slot). The value spells "bias" in ASCII and
// stays far away from the experiment stream table in
// internal/experiments/streams.go.
const streamBiasedShuffle uint64 = 0x62696173

// ThinEdges applies the edge-deletion operator of the void-preserving
// transformation (Definition 5 covers both vertices and edges): it removes
// edges whose deletion keeps the neighbourhood graph connected and its
// irreducible cycles bounded by τ. Scheduling itself works at vertex
// granularity (a node is on or off), but edge thinning is useful after
// vertex scheduling to reduce the links that must be maintained — e.g. to
// cut idle-listening schedules or interference — without affecting the
// coverage guarantee.
//
// Boundary-to-boundary edges are preserved (they may carry the boundary
// cycles). The reduced graph is returned together with the removed edges.
func ThinEdges(net Network, g *graph.Graph, tau int, seed int64) (*graph.Graph, []graph.Edge, error) {
	if tau < 3 {
		return nil, nil, fmt.Errorf("core: tau %d: %w", tau, ErrTauTooSmall)
	}
	rng := rand.New(rand.NewSource(seed))
	cur := g
	var removed []graph.Edge
	for {
		edges := cur.Edges()
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		progressed := false
		for _, e := range edges {
			if net.Boundary[e.U] && net.Boundary[e.V] {
				continue
			}
			if !cur.HasEdge(e.U, e.V) {
				continue
			}
			if vpt.EdgeDeletable(cur, e.U, e.V, tau) {
				cur = cur.DeleteEdges([]graph.Edge{e})
				removed = append(removed, e)
				progressed = true
			}
		}
		if !progressed {
			return cur, removed, nil
		}
	}
}

// RotationResult describes one sleep-rotation epoch.
type RotationResult struct {
	// Epoch numbers start at 1.
	Epoch int
	// Active is the coverage set on duty during the epoch.
	Active []graph.NodeID
	// Result is the full scheduling outcome for the epoch.
	Result Result
}

// Rotate computes successive coverage sets for sleep rotation, the
// energy-efficiency application motivating partial coverage in the paper
// (§III-B): in each epoch a sparse τ-confine coverage set stays awake
// while the rest sleep; across epochs duty is shifted to the nodes that
// have worked the least so far, extending network lifetime.
//
// Rotation biases the deletion order — nodes with higher accumulated duty
// are offered for deletion first — so the scheduler (which deletes
// greedily) preferentially retires tired nodes while the coverage
// guarantee of every epoch is identical to a fresh Schedule run.
func Rotate(net Network, opts Options, epochs int) ([]RotationResult, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if epochs <= 0 {
		return nil, fmt.Errorf("core: epochs %d <= 0", epochs)
	}
	duty := make(map[graph.NodeID]int, net.G.NumNodes())
	var out []RotationResult
	for epoch := 1; epoch <= epochs; epoch++ {
		res, err := scheduleBiased(net, opts, duty, int64(epoch))
		if err != nil {
			return nil, err
		}
		for _, v := range res.KeptInternal {
			duty[v]++
		}
		out = append(out, RotationResult{
			Epoch:  epoch,
			Active: append([]graph.NodeID(nil), res.Kept...),
			Result: res,
		})
	}
	return out, nil
}

// scheduleBiased is the sequential engine with a duty-aware deletion order:
// high-duty nodes are tested (and thus deleted) first, ties broken by a
// seeded shuffle.
func scheduleBiased(net Network, opts Options, duty map[graph.NodeID]int, salt int64) (Result, error) {
	if opts.Tau < 3 {
		return Result{}, fmt.Errorf("core: tau %d: %w", opts.Tau, ErrTauTooSmall)
	}
	rng := rand.New(rand.NewSource(runner.DeriveSeed(opts.Seed, streamBiasedShuffle, int(salt))))
	cache := vpt.NewCache(net.G, opts.Tau)
	order := net.InternalNodes()
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	sort.SliceStable(order, func(i, j int) bool {
		return duty[order[i]] > duty[order[j]]
	})
	return electResult(net, cache, newFIFOQueue(order)), nil
}
