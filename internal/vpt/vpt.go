// Package vpt implements the paper's Void Preserving Transformation
// (Definition 5): the purely local test that decides whether a vertex or an
// edge can be deleted without breaking τ-confine coverage.
//
// A vertex v of H is τ-deletable when its k-hop neighbourhood graph
// Γ^k_H(v) (k = ⌈τ/2⌉, v excluded) is connected and the maximum
// irreducible cycle in Γ^k_H(v) is bounded by τ. The second condition is
// evaluated as "cycles of length ≤ τ span the whole cycle space of
// Γ^k_H(v)", which is equivalent (see internal/cycles) and allows early
// termination.
//
// Theorem 5 of the paper guarantees that maximal vertex deletion under this
// test preserves τ-partitionability of the boundary; Theorem 6 guarantees
// non-redundancy of the result when the original graph's irreducible cycles
// are bounded by τ.
package vpt

import (
	"sort"

	"dcc/internal/cycles"
	"dcc/internal/graph"
)

// NeighborhoodRadius returns k = ⌈τ/2⌉, the radius of local connectivity a
// node must gather to run the deletability test for parameter τ.
func NeighborhoodRadius(tau int) int { return (tau + 1) / 2 }

// IndependenceRadius returns m = ⌈τ/2⌉ + 1, the hop separation at which two
// candidate deletions are independent (paper §V-B).
func IndependenceRadius(tau int) int { return NeighborhoodRadius(tau) + 1 }

// VertexDeletable reports whether v may be deleted from g under the τ-void
// preserving transformation:
//
//  1. Γ^k(v) (k = ⌈τ/2⌉, v excluded) is connected;
//  2. the cycle space of Γ^k(v) is spanned by cycles of length ≤ τ
//     (equivalently, its maximum irreducible cycle is ≤ τ); and
//  3. the void v leaves behind is confined: v lies on at least one cycle
//     of length ≤ τ, i.e. two of its direct neighbours are joined by a
//     path of length ≤ τ−2 inside Γ^k(v).
//
// Condition 3 makes Definition 5's rope-net semantics explicit: a vertex
// whose neighbourhood is acyclic satisfies condition 2 vacuously, yet
// nothing would confine the hole its deletion opens, so sparse tree-like
// regions would cascade-delete and silently void the confine guarantee.
// The stricter test only ever deletes less, so Theorem 5 (criterion
// preservation) is unaffected, and Theorem 6's precondition (all
// irreducible cycles of G bounded by τ) rules out unconfined vertices
// anyway.
func VertexDeletable(g *graph.Graph, v graph.NodeID, tau int) bool {
	if tau < 3 {
		return false
	}
	k := NeighborhoodRadius(tau)
	nbrs := g.KHopNeighbors(v, k)
	if len(nbrs) == 0 {
		return false // an isolated node's void is confined by nothing
	}
	sub := g.InducedSubgraph(nbrs)
	return NeighborhoodDeletable(sub, g.Neighbors(v), tau)
}

// NeighborhoodDeletable runs the deletability test on an already-extracted
// neighbourhood graph Γ^k(x) given the candidate's direct (1-hop)
// neighbours. It is the primitive the distributed runtime calls after a
// node has gathered its k-hop connectivity; Tester.NeighborhoodDeletable
// is the same test on reusable storage.
func NeighborhoodDeletable(neighborhood *graph.Graph, directNeighbors []graph.NodeID, tau int) bool {
	return NewTester().NeighborhoodDeletable(neighborhood, directNeighbors, tau)
}

// EdgeDeletable reports whether the edge {u,v} may be deleted from g under
// the τ-void preserving transformation. The neighbourhood graph of an edge
// is induced by the union of the endpoints' k-hop neighbourhoods plus the
// endpoints themselves, with the edge itself removed. The void-confinement
// analogue of the vertex rule requires the edge to lie on a cycle of
// length ≤ τ: its endpoints must remain within τ−1 hops of each other
// once the edge is gone.
func EdgeDeletable(g *graph.Graph, u, v graph.NodeID, tau int) bool {
	if tau < 3 || !g.HasEdge(u, v) {
		return false
	}
	k := NeighborhoodRadius(tau)
	set := make(map[graph.NodeID]struct{})
	for _, w := range g.KHopNeighbors(u, k) {
		set[w] = struct{}{}
	}
	for _, w := range g.KHopNeighbors(v, k) {
		set[w] = struct{}{}
	}
	set[u] = struct{}{}
	set[v] = struct{}{}
	nodes := make([]graph.NodeID, 0, len(set))
	for w := range set {
		nodes = append(nodes, w)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	sub := g.InducedSubgraph(nodes).DeleteEdges([]graph.Edge{graph.NormEdge(u, v)})
	if !sub.IsConnected() {
		return false
	}
	if d := sub.BFS(u, tau-1).Depth(v); d < 0 {
		return false // edge on no cycle of length ≤ τ: void unconfined
	}
	return cycles.SpannedByShort(sub, tau)
}
