//go:build dccdebug

package graph

import (
	"fmt"
	"slices"
)

// debugChecks gates the deep structural invariant assertions; this build
// has them on (-tags dccdebug).
const debugChecks = true

// debugCheckGraph panics unless g satisfies every structural invariant the
// rest of the repository relies on: node IDs strictly sorted, edges
// normalized (U < V), strictly sorted and uniquely indexed (no duplicates),
// dense endpoint arrays consistent with the edge list, adjacency lists
// strictly sorted with a consistent parallel edge-index list, and the
// handshake sum matching the edge count. The static maprange analyzer can
// only approximate these properties; dccdebug builds check them on every
// construction.
func debugCheckGraph(g *Graph) {
	for i, v := range g.ids {
		if i > 0 && g.ids[i-1] >= v {
			panic(fmt.Sprintf("graph debug: ids not strictly sorted at %d: %d >= %d", i, g.ids[i-1], v))
		}
	}
	if len(g.edgeU) != len(g.edges) || len(g.edgeV) != len(g.edges) {
		panic(fmt.Sprintf("graph debug: %d edges but %d/%d endpoint entries", len(g.edges), len(g.edgeU), len(g.edgeV)))
	}
	for i, e := range g.edges {
		if e.U >= e.V {
			panic(fmt.Sprintf("graph debug: edge %d not normalized: {%d,%d}", i, e.U, e.V))
		}
		if i > 0 {
			p := g.edges[i-1]
			if p.U > e.U || (p.U == e.U && p.V >= e.V) {
				panic(fmt.Sprintf("graph debug: edges not strictly sorted at %d: {%d,%d} then {%d,%d}", i, p.U, p.V, e.U, e.V))
			}
		}
		ui, uok := g.index(e.U)
		vi, vok := g.index(e.V)
		if !uok || !vok {
			panic(fmt.Sprintf("graph debug: edge %d endpoint missing from id list: {%d,%d}", i, e.U, e.V))
		}
		if int(g.edgeU[i]) != ui || int(g.edgeV[i]) != vi {
			panic(fmt.Sprintf("graph debug: edge %d endpoint arrays say (%d,%d), want (%d,%d)",
				i, g.edgeU[i], g.edgeV[i], ui, vi))
		}
	}
	total := 0
	for i := range g.adj {
		a, ae := g.adj[i], g.adjEdge[i]
		if len(a) != len(ae) {
			panic(fmt.Sprintf("graph debug: node %d: %d neighbours but %d edge indices", g.ids[i], len(a), len(ae)))
		}
		for j, w := range a {
			if j > 0 && a[j-1] >= w {
				panic(fmt.Sprintf("graph debug: adjacency of %d not strictly sorted at %d (duplicate edge?)", g.ids[i], j))
			}
			if int(ae[j]) < 0 || int(ae[j]) >= len(g.edges) {
				panic(fmt.Sprintf("graph debug: node %d: edge index %d out of range", g.ids[i], ae[j]))
			}
			if got, want := g.edges[ae[j]], NormEdge(g.ids[i], g.ids[w]); got != want {
				panic(fmt.Sprintf("graph debug: node %d neighbour %d: adjEdge says {%d,%d}, want {%d,%d}",
					g.ids[i], g.ids[w], got.U, got.V, want.U, want.V))
			}
		}
		total += len(a)
	}
	if total != 2*len(g.edges) {
		panic(fmt.Sprintf("graph debug: handshake sum %d != 2·%d edges", total, len(g.edges)))
	}
}

// debugScratch is a Scratch's storage for the checks below, reused so that
// a warm Scratch stays allocation-free with them armed.
type debugScratch struct {
	s *Scratch
	b *GraphBuf
}

// debugCheckBall panics unless the adjacency-only Γ^k(v) that BallInto
// built on s, with v's direct neighbours, equals ExtractNeighborhood's node
// IDs, adjacency lists and neighbours (an empty list matching a nil one).
func debugCheckBall(d *DeleteView, v NodeID, k int, s *Scratch, nb *Adjacency, direct []NodeID) {
	if s.dbg.s == nil {
		s.dbg.s, s.dbg.b = NewScratch(d.g), new(GraphBuf)
	}
	want, wantDirect := d.ExtractNeighborhoodInto(v, k, s.dbg.s, s.dbg.b)
	if !slices.Equal(nb.ids, want.ids) || !slices.Equal(direct, wantDirect) {
		panic(fmt.Sprintf("graph debug: ball of %d (k=%d): ids %v and neighbours %v, extraction has %v and %v",
			v, k, nb.ids, direct, want.ids, wantDirect))
	}
	for i := range nb.adj {
		if !slices.Equal(nb.adj[i], want.adj[i]) {
			panic(fmt.Sprintf("graph debug: ball of %d (k=%d): node %d adjacency %v, extraction has %v",
				v, k, nb.ids[i], nb.adj[i], want.adj[i]))
		}
	}
}
