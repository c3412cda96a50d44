package stream

import (
	"sort"

	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/telemetry"
)

// topology is the engine's authoritative picture of the deployment: the
// universe of every node ever seen (departed nodes stay, flagged dead, so a
// rejoin can take the O(1) DeleteView.Restore fast path), the universe edge
// set, and a compiled CSR base graph with a liveness overlay.
//
// Two mutation tiers keep the hot path hot. Liveness-only changes (leave,
// crash, rejoin-in-place) flip the overlay without touching the CSR.
// Structural changes (new node, edge churn, geometric moves) edit the
// universe slices and recompile the base — O(n+m), amortized fine at event
// granularity and batched under backpressure.
type topology struct {
	radius float64 // > 0: unit-disk edges derived from positions

	ids   []graph.NodeID // sorted universe ids
	pos   []geom.Point   // parallel to ids
	dead  []bool         // parallel to ids
	edges []graph.Edge   // normalized (U < V), sorted

	base    *graph.Graph
	view    *graph.DeleteView
	scratch *graph.Scratch

	stats *Stats              // rebuild / fast-restore counters, owned by the engine
	tel   *telemetry.Registry // rebuild span source; nil when telemetry is off
}

func newTopology(g *graph.Graph, radius float64, pos []geom.Point, stats *Stats) *topology {
	t := &topology{
		radius: radius,
		ids:    g.Nodes(),
		pos:    pos,
		dead:   make([]bool, g.NumNodes()),
		edges:  g.Edges(),
		stats:  stats,
	}
	// The genesis graph is its own compilation: Nodes() and Edges() come
	// back sorted, so recompiling would reproduce g exactly.
	t.base = g
	t.view = graph.NewDeleteView(g)
	t.scratch = graph.NewScratch(g)
	return t
}

// find locates v in the sorted universe.
func (t *topology) find(v graph.NodeID) (int, bool) {
	i := sort.Search(len(t.ids), func(i int) bool { return t.ids[i] >= v })
	return i, i < len(t.ids) && t.ids[i] == v
}

func (t *topology) alive(v graph.NodeID) bool {
	i, ok := t.find(v)
	return ok && !t.dead[i]
}

// liveGraph materializes the live induced subgraph.
func (t *topology) liveGraph() *graph.Graph { return t.view.Materialize() }

func (t *topology) liveCount() int { return t.view.NumLive() }

// rebuild recompiles the CSR base from the universe slices and replays the
// dead flags onto a fresh overlay.
func (t *topology) rebuild() {
	sp := t.tel.StartSpan("stream.rebuild")
	defer sp.End()
	b := graph.NewBuilder()
	for _, v := range t.ids {
		b.AddNode(v)
	}
	for _, e := range t.edges {
		b.AddEdge(e.U, e.V)
	}
	t.base = b.MustBuild()
	t.view = graph.NewDeleteView(t.base)
	t.scratch = graph.NewScratch(t.base)
	for i, d := range t.dead {
		if d {
			t.view.Delete(t.ids[i])
		}
	}
	t.stats.Rebuilds++
}

// edgeIndex locates the normalized edge in the sorted universe edge list.
func (t *topology) edgeIndex(e graph.Edge) (int, bool) {
	i := sort.Search(len(t.edges), func(i int) bool {
		if t.edges[i].U != e.U {
			return t.edges[i].U >= e.U
		}
		return t.edges[i].V >= e.V
	})
	return i, i < len(t.edges) && t.edges[i] == e
}

func (t *topology) hasEdge(u, v graph.NodeID) bool {
	_, ok := t.edgeIndex(graph.NormEdge(u, v))
	return ok
}

// insertEdge splices e into the sorted universe edge list; the caller
// guarantees it is absent.
func (t *topology) insertEdge(e graph.Edge) {
	i, _ := t.edgeIndex(e)
	t.edges = append(t.edges, graph.Edge{})
	copy(t.edges[i+1:], t.edges[i:])
	t.edges[i] = e
}

// removeEdge deletes e from the universe edge list if present.
func (t *topology) removeEdge(e graph.Edge) bool {
	i, ok := t.edgeIndex(e)
	if !ok {
		return false
	}
	t.edges = append(t.edges[:i], t.edges[i+1:]...)
	return true
}

// removeIncident drops every universe edge touching v.
func (t *topology) removeIncident(v graph.NodeID) {
	kept := t.edges[:0]
	for _, e := range t.edges {
		if e.U != v && e.V != v {
			kept = append(kept, e)
		}
	}
	t.edges = kept
}

// deriveNeighbors returns, sorted, the live nodes within the unit-disk
// radius of p (excluding v itself) — the edge set a geometric join or move
// of v must end up with.
func (t *topology) deriveNeighbors(v graph.NodeID, p geom.Point) []graph.NodeID {
	var out []graph.NodeID
	for j, w := range t.ids {
		if w == v || t.dead[j] {
			continue
		}
		if geom.Dist(p, t.pos[j]) <= t.radius {
			out = append(out, w)
		}
	}
	return out
}

// retainedLiveNeighbors returns, sorted, the live universe neighbors v
// would reconnect to if revived in place — the Restore fast-path candidate
// set.
func (t *topology) retainedLiveNeighbors(v graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, w := range t.base.Neighbors(v) {
		if j, ok := t.find(w); ok && !t.dead[j] {
			out = append(out, w)
		}
	}
	return out
}

func sameNodeList(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// join places node v at p, either as a brand-new universe member or as a
// revival of a departed one. Revival in place — identical position and, in
// geometric mode, a derived neighbor set identical to the retained one —
// takes the O(1) overlay Restore; everything else is structural.
func (t *topology) join(v graph.NodeID, p geom.Point) {
	i, ok := t.find(v)
	if ok {
		// Revival of a departed node. In explicit-topology mode the node
		// always comes back with its retained universe edges (position is
		// metadata), so revival is always the O(1) overlay flip; in
		// geometric mode only an in-place revival whose derived neighbor
		// set still matches the retained one can skip the recompile.
		if t.radius <= 0 {
			t.pos[i] = p
			t.view.Restore(v)
			t.dead[i] = false
			t.stats.FastRestores++
			return
		}
		if t.pos[i] == p &&
			sameNodeList(t.deriveNeighbors(v, p), t.retainedLiveNeighbors(v)) {
			t.view.Restore(v)
			t.dead[i] = false
			t.stats.FastRestores++
			return
		}
		t.pos[i] = p
		t.dead[i] = false
	} else {
		t.ids = append(t.ids, 0)
		copy(t.ids[i+1:], t.ids[i:])
		t.ids[i] = v
		t.pos = append(t.pos, geom.Point{})
		copy(t.pos[i+1:], t.pos[i:])
		t.pos[i] = p
		t.dead = append(t.dead, false)
		copy(t.dead[i+1:], t.dead[i:])
		t.dead[i] = false
	}
	t.removeIncident(v)
	if t.radius > 0 {
		for _, w := range t.deriveNeighbors(v, p) {
			t.insertEdge(graph.NormEdge(v, w))
		}
	}
	t.rebuild()
}

// depart marks a live node dead: an O(1) overlay flip. Its universe edges
// are retained for a potential in-place revival.
func (t *topology) depart(v graph.NodeID) {
	i, _ := t.find(v)
	t.dead[i] = true
	t.view.Delete(v)
}

// move updates v's position. In explicit-topology mode position is pure
// metadata; in geometric mode every incident edge of v is dropped, those to
// departed nodes included, and re-derived against the live nodes' current
// positions. So v's edges depend on which nodes are live at the move, not
// only on positions, which is why the engine coalesces ticks only across
// other moves.
func (t *topology) move(v graph.NodeID, p geom.Point) {
	i, _ := t.find(v)
	t.pos[i] = p
	if t.radius <= 0 {
		return
	}
	t.removeIncident(v)
	for _, w := range t.deriveNeighbors(v, p) {
		t.insertEdge(graph.NormEdge(v, w))
	}
	t.rebuild()
}

// edgeUp / edgeDown edit the explicit universe edge set; the engine has
// already validated liveness, existence and mode.
func (t *topology) edgeUp(u, v graph.NodeID) {
	t.insertEdge(graph.NormEdge(u, v))
	t.rebuild()
}

func (t *topology) edgeDown(u, v graph.NodeID) {
	t.removeEdge(graph.NormEdge(u, v))
	t.rebuild()
}
