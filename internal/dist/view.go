package dist

import (
	"dcc/internal/graph"
)

// localView is the connectivity knowledge a node accumulates: the adjacency
// lists of every node it has heard about, the set of nodes it knows to be
// deleted, and the set it merely suspects crashed.
//
// dead and suspect differ in reversibility. A DELETE announcement is a
// fact — deleted nodes never come back, and stale gossip cannot resurrect
// them. A suspicion is the reliability layer's local guess after an ACK
// timeout (the suspect may be crashed, or just on the far side of a
// partition), so it is erased by any proof of life: crashed and deleted
// nodes never transmit, hence every received frame proves its sender
// alive. Suspected nodes keep their adjacency records so that a
// resurrection restores the old view unchanged.
type localView struct {
	self    graph.NodeID
	records map[graph.NodeID][]graph.NodeID
	dead    map[graph.NodeID]bool
	suspect map[graph.NodeID]bool
	// changed is set when the view changed since the last deletability
	// test; deletable is that test's verdict.
	changed, deletable bool
}

func newLocalView(self graph.NodeID, ownNbrs []graph.NodeID) *localView {
	v := &localView{
		self:    self,
		records: make(map[graph.NodeID][]graph.NodeID),
		dead:    make(map[graph.NodeID]bool),
		suspect: make(map[graph.NodeID]bool),
		changed: true,
	}
	v.records[self] = append([]graph.NodeID(nil), ownNbrs...)
	return v
}

// learn stores a gossiped adjacency record: owner's 1-hop neighbours. A
// learned record is never replaced; deletions are tracked separately so
// that stale gossip cannot resurrect a dead node. It returns true when the
// record was new (and should be forwarded).
func (v *localView) learn(owner graph.NodeID, nbrs []graph.NodeID) bool {
	if _, known := v.records[owner]; known {
		return false
	}
	v.records[owner] = append([]graph.NodeID(nil), nbrs...)
	v.changed = true
	return true
}

// markDead records a node deletion and drops the node from the owner's own
// adjacency list (the radio link is gone). It returns true when the
// deletion was previously unknown (and should be forwarded). An announced
// death supersedes any suspicion.
func (v *localView) markDead(n graph.NodeID) bool {
	if v.dead[n] {
		return false
	}
	v.dead[n] = true
	delete(v.suspect, n)
	v.changed = true
	own := v.records[v.self]
	out := own[:0]
	for _, w := range own {
		if w != n {
			out = append(out, w)
		}
	}
	v.records[v.self] = out
	return true
}

// markSuspect records an ACK-timeout suspicion. Returns true when the node
// was not already dead or suspected.
func (v *localView) markSuspect(n graph.NodeID) bool {
	if v.dead[n] || v.suspect[n] {
		return false
	}
	v.suspect[n] = true
	v.changed = true
	return true
}

// resurrect clears a suspicion after proof of life. Announced deaths are
// irreversible and stay.
func (v *localView) resurrect(n graph.NodeID) {
	if !v.suspect[n] {
		return
	}
	delete(v.suspect, n)
	v.changed = true
}

// neighborhoodGraph extracts Γ^k(self): the subgraph induced by the nodes
// within k hops of self in the view (dead nodes excluded), with self
// removed — exactly the input of the void-preserving transformation.
func (v *localView) neighborhoodGraph(k int) *graph.Graph {
	// BFS from self over known, live adjacency; the queue, self excepted,
	// is the member list.
	depth := map[graph.NodeID]int{v.self: 0}
	queue := []graph.NodeID{v.self}
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		if depth[u] >= k {
			continue
		}
		for _, w := range v.liveNeighbors(u) {
			if _, seen := depth[w]; !seen {
				depth[w] = depth[u] + 1
				queue = append(queue, w)
			}
		}
	}
	// The Builder sorts and deduplicates, so neither the member order nor
	// an edge seen from both ends changes the graph.
	b := graph.NewBuilder()
	for _, n := range queue[1:] {
		b.AddNode(n)
		for _, w := range v.liveNeighbors(n) {
			if _, in := depth[w]; in && w != v.self {
				b.AddEdge(n, w)
			}
		}
	}
	return b.MustBuild()
}

// liveNeighbors returns the known adjacency of n restricted to nodes
// believed alive (neither dead nor suspected). An edge is believed present
// only if n's record lists it; symmetric records keep this consistent.
func (v *localView) liveNeighbors(n graph.NodeID) []graph.NodeID {
	rec, ok := v.records[n]
	if !ok || v.dead[n] || v.suspect[n] {
		return nil
	}
	out := make([]graph.NodeID, 0, len(rec))
	for _, w := range rec {
		if !v.dead[w] && !v.suspect[w] {
			out = append(out, w)
		}
	}
	return out
}
