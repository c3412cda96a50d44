package shard

import (
	"dcc/internal/core"
	"dcc/internal/graph"
)

// The coordinator runs core's one greedy loop (core.CanonicalElectOver)
// with the engine as its residual, so the sharded election is the
// canonical election by construction:
//
//   - a popped node is tested on its owner region's cache, which by the
//     halo invariant (DESIGN.md §15.2) holds the node's whole k-hop ball,
//     so the verdict is the global one;
//   - a deletion is committed to every region holding a replica — owner
//     and halo copies alike, so every region's residual view stays
//     consistent with the global one — and the owner's dirty set, which
//     already is the global k-hop dirty ball, re-enters the queue.

// elect runs the canonical election to fixpoint over the regions and
// returns the deleted nodes in deletion order plus the test count — both
// byte-identical to core.CanonicalElect on the global topology.
func (e *engine) elect() ([]graph.NodeID, int) {
	internal := make([]graph.NodeID, 0, e.n)
	for i := 0; i < e.n; i++ {
		if !e.in.Boundary[i] {
			internal = append(internal, graph.NodeID(i))
		}
	}
	return core.CanonicalElectOver(e, e.opts.Seed, internal, e.deletable)
}

// deletable tests v on its owner region's cache.
func (e *engine) deletable(v graph.NodeID) bool {
	return e.regions[e.owner[v]].cache.Deletable(v)
}

// Alive reports whether v is still live (core.Residual).
func (e *engine) Alive(v graph.NodeID) bool { return e.alive[v] }

// Commit deletes the election's node from every region holding a replica
// and returns the owner's dirty set (core.Residual). The election commits
// one node per call, so the owner's set is the global dirty ball as it
// is; the replicas' sets are subsets of it and are dropped.
func (e *engine) Commit(deleted []graph.NodeID) []graph.NodeID {
	if len(deleted) != 1 {
		panic("shard: the election commits one node at a time")
	}
	v := deleted[0]
	e.alive[v] = false
	x0, x1, y0, y1 := e.gr.memberRange(e.in.Points[v])
	own := e.owner[v]
	var dirty []graph.NodeID
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			s := int32(cy*e.gr.gx + cx)
			d := e.regions[s].cache.Commit(deleted)
			if s == own {
				dirty = d
			} else {
				e.stats.HaloDeltas++
			}
		}
	}
	return dirty
}
