package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"dcc/internal/graph"
	"dcc/internal/vpt"
)

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
// cycles). The reduced graph is returned together with the removed edges;
// a nil g is an error.
func ThinEdges(net Network, g *graph.Graph, tau int, seed int64) (*graph.Graph, []graph.Edge, error) {
	if tau < 3 {
		return nil, nil, fmt.Errorf("core: tau %d: %w", tau, ErrTauTooSmall)
	}
	if g == nil {
		return nil, nil, errNilGraph
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
// Rotation biases the deletion order — higher accumulated duty first, then
// canonical order — so the greedy scheduler preferentially retires tired
// nodes while every epoch's coverage guarantee equals a fresh Schedule's.
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
		res, err := scheduleBiased(net, opts, duty)
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

// scheduleBiased is the greedy election on a duty-aware order: the
// canonical queue's (CanonicalPriority, ID) order, stable-sorted by
// descending duty, so high-duty nodes are tested (and thus deleted) first.
func scheduleBiased(net Network, opts Options, duty map[graph.NodeID]int) (Result, error) {
	if opts.Tau < 3 {
		return Result{}, fmt.Errorf("core: tau %d: %w", opts.Tau, ErrTauTooSmall)
	}
	cache := vpt.NewCache(net.G, opts.Tau)
	cache.Instrument(opts.Telemetry)
	q := newCanonicalQueue(cache.View().Base(), opts.Seed, net.InternalNodes())
	slices.SortStableFunc(q.q, func(a, b graph.NodeID) int { return cmp.Compare(duty[b], duty[a]) })
	return electResult(net, cache, q), nil
}
