package stream

import (
	"fmt"
	"math"
	"slices"

	"dcc/internal/geom"
	"dcc/internal/graph"
)

// topology is the engine's authoritative picture of the deployment: the
// universe of every node ever seen, in ascending ID order, with each
// node's position, liveness and neighbour list. Departed nodes stay in
// the universe, flagged dead, and so do their edges, so a rejoin can
// revive them in place.
//
// Every event edits the lists in place: a liveness change flips a flag,
// and a structural change (a join other than a revival in place, a
// geometric move, an edge event) rewrites the touched node's list and its
// neighbours' entries for it. An event therefore costs its own node's
// lists plus, in geometric mode, the O(n) scan that derives its
// neighbours, never a recompile of the whole graph. The live graph an
// election runs on is built from the lists in one linear pass
// (graph.LiveInduced).
type topology struct {
	radius float64 // > 0: unit-disk edges derived from positions

	ids  []graph.NodeID // sorted universe ids
	pos  []geom.Point   // parallel to ids
	dead []bool         // parallel to ids
	// adj[i] holds the indices into ids of node i's neighbours, ascending,
	// departed ones included. The lists are symmetric and loop-free.
	adj     [][]int32
	numDead int

	// Reused buffers: the derived neighbour list and the ball search's
	// visit stamps, queue and result.
	derived   []int32
	stamp     []uint32
	epoch     uint32
	queue     []int32
	ballNodes []graph.NodeID

	stats *Stats // Rebuilds / FastRestores counters, owned by the engine
}

// newTopology takes the genesis graph as the universe, every node live.
// Its dense indices are universe indices, so its adjacency is copied
// list for list, in O(n + m).
func newTopology(g *graph.Graph, radius float64, pos []geom.Point, stats *Stats) *topology {
	n := g.NumNodes()
	t := &topology{
		radius: radius,
		ids:    g.Nodes(),
		pos:    pos,
		dead:   make([]bool, n),
		adj:    make([][]int32, n),
		stats:  stats,
	}
	back := make([]int32, 0, 2*g.NumEdges())
	for i := range n {
		at := len(back)
		back = append(back, g.NeighborIndices(i)...)
		t.adj[i] = back[at:len(back):len(back)] // capped: growing a list copies it out
	}
	debugCheckTopology(t)
	return t
}

// install replaces the universe with a decoded snapshot's.
func (t *topology) install(s snapState) {
	t.ids, t.pos, t.dead, t.adj = s.ids, s.pos, s.dead, s.adj
	t.numDead = 0
	for _, d := range t.dead {
		if d {
			t.numDead++
		}
	}
	debugCheckTopology(t)
}

// adjacencyOf builds the neighbour lists of the universe ids (strictly
// ascending) from its edge list, refusing an edge list that is not
// normalized, strictly (U,V)-ascending and over ids. Filling the lists in
// edge order keeps each one ascending: a node's lower neighbours arrive
// first, in increasing U, then its higher ones in increasing V.
func adjacencyOf(ids []graph.NodeID, edges []graph.Edge) ([][]int32, error) {
	adj := make([][]int32, len(ids))
	for k, e := range edges {
		if e.U >= e.V || (k > 0 && !edgeLess(edges[k-1], e)) {
			return nil, fmt.Errorf("edge %d-%d out of order", e.U, e.V)
		}
		u, uok := slices.BinarySearch(ids, e.U)
		v, vok := slices.BinarySearch(ids, e.V)
		if !uok || !vok {
			return nil, fmt.Errorf("edge %d-%d leaves the universe", e.U, e.V)
		}
		adj[u] = append(adj[u], int32(v))
		adj[v] = append(adj[v], int32(u))
	}
	return adj, nil
}

func edgeLess(a, b graph.Edge) bool { return a.U < b.U || (a.U == b.U && a.V < b.V) }

// edges returns the universe edges in (U,V) order, or with liveOnly just
// those between live nodes.
func (t *topology) edges(liveOnly bool) []graph.Edge {
	var out []graph.Edge
	for i, nb := range t.adj {
		if liveOnly && t.dead[i] {
			continue
		}
		for _, j := range nb {
			if int(j) > i && !(liveOnly && t.dead[j]) {
				out = append(out, graph.Edge{U: t.ids[i], V: t.ids[j]})
			}
		}
	}
	return out
}

// find locates v in the sorted universe.
func (t *topology) find(v graph.NodeID) (int, bool) { return slices.BinarySearch(t.ids, v) }

func (t *topology) alive(v graph.NodeID) bool {
	i, ok := t.find(v)
	return ok && !t.dead[i]
}

// liveGraph builds the live induced subgraph; the caller owns it.
func (t *topology) liveGraph() *graph.Graph {
	g := graph.LiveInduced(t.ids, t.adj, t.dead)
	debugCheckLiveGraph(t, g)
	return g
}

func (t *topology) liveCount() int { return len(t.ids) - t.numDead }

func (t *topology) hasEdge(u, v graph.NodeID) bool {
	i, iok := t.find(u)
	j, jok := t.find(v)
	if !iok || !jok {
		return false
	}
	_, ok := slices.BinarySearch(t.adj[i], int32(j))
	return ok
}

// ball returns the live nodes within k hops of v over live nodes, v
// excluded, or nil when v is dead or absent: the k-ball an event at v
// starts from. The slice is reused by the next call.
func (t *topology) ball(v graph.NodeID, k int) []graph.NodeID {
	vi, ok := t.find(v)
	if !ok || t.dead[vi] {
		return nil
	}
	if len(t.stamp) < len(t.ids) {
		t.stamp = make([]uint32, len(t.ids)+len(t.ids)/4)
	}
	if t.epoch == math.MaxUint32 {
		clear(t.stamp)
		t.epoch = 0
	}
	t.epoch++
	ep := t.epoch
	t.stamp[vi] = ep
	q := append(t.queue[:0], int32(vi))
	for depth, head := 0, 0; depth < k && head < len(q); depth++ {
		for tail := len(q); head < tail; head++ {
			for _, w := range t.adj[q[head]] {
				if !t.dead[w] && t.stamp[w] != ep {
					t.stamp[w] = ep
					q = append(q, w)
				}
			}
		}
	}
	t.queue = q
	out := t.ballNodes[:0]
	for _, w := range q[1:] {
		out = append(out, t.ids[w])
	}
	t.ballNodes = out
	return out
}

// deriveNeighbors returns, ascending, the indices of the live nodes
// within the unit-disk radius of p, node i excluded: the neighbour list a
// geometric join or move of node i must end up with. The slice is reused
// by the next call.
func (t *topology) deriveNeighbors(i int, p geom.Point) []int32 {
	out := t.derived[:0]
	for j, q := range t.pos {
		if j != i && !t.dead[j] && geom.Dist(p, q) <= t.radius {
			out = append(out, int32(j))
		}
	}
	t.derived = out
	return out
}

// keepsLiveNeighbors reports whether the live entries of node i's list
// are exactly want.
func (t *topology) keepsLiveNeighbors(i int, want []int32) bool {
	k := 0
	for _, j := range t.adj[i] {
		if t.dead[j] {
			continue
		}
		if k == len(want) || want[k] != j {
			return false
		}
		k++
	}
	return k == len(want)
}

func insertSorted(s []int32, x int32) []int32 {
	k, _ := slices.BinarySearch(s, x)
	return slices.Insert(s, k, x)
}

func removeSorted(s []int32, x int32) []int32 {
	k, _ := slices.BinarySearch(s, x)
	return slices.Delete(s, k, k+1)
}

// rewire replaces every edge of node i, those to departed nodes included,
// with edges to nbrs (ascending, i excluded).
func (t *topology) rewire(i int, nbrs []int32) {
	for _, j := range t.adj[i] {
		t.adj[j] = removeSorted(t.adj[j], int32(i))
	}
	t.adj[i] = append(t.adj[i][:0], nbrs...)
	for _, j := range nbrs {
		t.adj[j] = insertSorted(t.adj[j], int32(i))
	}
	t.stats.Rebuilds++
}

// insertNode adds the absent node v at universe index i, live and
// unconnected. Every index at or above i shifts up by one, so unless v
// sorts last the lists are renumbered in O(m).
func (t *topology) insertNode(i int, v graph.NodeID, p geom.Point) {
	t.ids = slices.Insert(t.ids, i, v)
	t.pos = slices.Insert(t.pos, i, p)
	t.dead = slices.Insert(t.dead, i, false)
	t.adj = slices.Insert(t.adj, i, nil)
	if i == len(t.ids)-1 {
		return
	}
	for _, nb := range t.adj {
		for k, j := range nb {
			if j >= int32(i) {
				nb[k] = j + 1
			}
		}
	}
}

// join places node v at p, as a new universe member or as a revival of a
// departed one. A revival keeps the node's retained edges, those to
// departed nodes included, when it is in place: always in explicit mode,
// where edges change only through edge events and position is metadata,
// and in geometric mode when the node rejoins at its old position and
// would derive exactly the live neighbours it retained. Any other join
// drops the node's edges and, in geometric mode, derives them anew.
func (t *topology) join(v graph.NodeID, p geom.Point) {
	i, ok := t.find(v)
	if !ok {
		t.insertNode(i, v, p)
	} else {
		inPlace := t.radius <= 0 || (t.pos[i] == p && t.keepsLiveNeighbors(i, t.deriveNeighbors(i, p)))
		t.pos[i] = p
		t.dead[i] = false
		t.numDead--
		if inPlace {
			t.stats.FastRestores++
			debugCheckTopology(t)
			return
		}
	}
	var nbrs []int32
	if t.radius > 0 {
		nbrs = t.deriveNeighbors(i, p)
	}
	t.rewire(i, nbrs)
	debugCheckTopology(t)
}

// depart marks a live node dead. Its edges are retained for a revival in
// place.
func (t *topology) depart(v graph.NodeID) {
	i, _ := t.find(v)
	t.dead[i] = true
	t.numDead++
	debugCheckTopology(t)
}

// move updates v's position. In explicit-topology mode position is pure
// metadata; in geometric mode every incident edge of v is dropped, those to
// departed nodes included, and re-derived against the live nodes' current
// positions. So v's edges depend on which nodes are live at the move, not
// only on positions.
func (t *topology) move(v graph.NodeID, p geom.Point) {
	i, _ := t.find(v)
	t.pos[i] = p
	if t.radius <= 0 {
		return
	}
	t.rewire(i, t.deriveNeighbors(i, p))
	debugCheckTopology(t)
}

// edgeUp / edgeDown add an absent edge to, or remove a present one from,
// both endpoints' lists; the engine has already validated liveness,
// existence and mode.
func (t *topology) edgeUp(u, v graph.NodeID) {
	i, _ := t.find(u)
	j, _ := t.find(v)
	t.adj[i] = insertSorted(t.adj[i], int32(j))
	t.adj[j] = insertSorted(t.adj[j], int32(i))
	t.stats.Rebuilds++
	debugCheckTopology(t)
}

func (t *topology) edgeDown(u, v graph.NodeID) {
	i, _ := t.find(u)
	j, _ := t.find(v)
	t.adj[i] = removeSorted(t.adj[i], int32(j))
	t.adj[j] = removeSorted(t.adj[j], int32(i))
	t.stats.Rebuilds++
	debugCheckTopology(t)
}
