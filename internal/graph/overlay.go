package graph

import "math/bits"

// DeleteView is a deletion overlay over an immutable base Graph: vertices
// are marked dead in O(1) instead of rebuilding the graph after every
// deletion round. All queries see only the live subgraph. The overlay is
// the substrate of the incremental deletability engine (internal/vpt
// Cache): scheduling deletes thousands of vertices one independent set at
// a time, and rebuilding a Graph per round was the dominant allocation
// cost of the hot loop.
//
// Materialize produces a real Graph of the live remainder (structurally
// identical to Base().DeleteVertices(everything currently dead)).
//
// The zero value is not usable; construct with NewDeleteView. A DeleteView
// is not safe for concurrent mutation; concurrent read-only queries (with
// distinct Scratch instances) are safe.
type DeleteView struct {
	g       *Graph
	gone    []bool // by base index
	numGone int
}

// NewDeleteView returns an overlay on g with every vertex live.
func NewDeleteView(g *Graph) *DeleteView {
	return &DeleteView{g: g, gone: make([]bool, len(g.ids))}
}

// Base returns the underlying immutable graph.
func (d *DeleteView) Base() *Graph { return d.g }

// NumLive returns the number of live vertices.
func (d *DeleteView) NumLive() int { return len(d.g.ids) - d.numGone }

// Alive reports whether v is a live vertex of the view.
func (d *DeleteView) Alive(v NodeID) bool {
	i, ok := d.g.index(v)
	return ok && !d.gone[i]
}

// AliveAt reports whether the vertex with base dense index i (see
// Graph.IndexOf) is live: Alive for a caller that already holds the index.
func (d *DeleteView) AliveAt(i int) bool { return !d.gone[i] }

// Delete marks v dead and reports whether it was live. Absent or
// already-dead vertices are a no-op.
func (d *DeleteView) Delete(v NodeID) bool {
	i, ok := d.g.index(v)
	if !ok || d.gone[i] {
		return false
	}
	d.gone[i] = true
	d.numGone++
	return true
}

// LiveNodes returns the live vertices in increasing ID order (fresh copy).
func (d *DeleteView) LiveNodes() []NodeID {
	out := make([]NodeID, 0, d.NumLive())
	for i, v := range d.g.ids {
		if !d.gone[i] {
			out = append(out, v)
		}
	}
	return out
}

// ballIdx runs a depth-bounded BFS from base index vi over live vertices
// and returns the visited base indices excluding vi, sorted ascending. The
// result aliases s.ball and is valid until the next use of s.
func (d *DeleteView) ballIdx(vi int, k int, s *Scratch) []int32 {
	s.ensure(len(d.g.ids))
	ep := s.nextEpoch()
	queue := s.queue[:0]
	queue = append(queue, int32(vi))
	s.stamp[vi] = ep
	head := 0
	for depth := 0; depth < k && head < len(queue); depth++ {
		tail := len(queue)
		for ; head < tail; head++ {
			u := queue[head]
			for _, w := range d.g.adj[u] {
				if d.gone[w] || s.stamp[w] == ep {
					continue
				}
				s.stamp[w] = ep
				queue = append(queue, w)
			}
		}
	}
	s.queue = queue[:0]
	s.ball = append(s.ball[:0], queue[1:]...)
	return sortDedupIndices(s.ball)
}

// KHopBallIndices returns the base indices of the live vertices within k
// hops of v (via live paths), excluding v, sorted ascending — the dirty
// region of a deletion at v. Returns nil when v is dead or absent. The
// slice aliases s and is only valid until s is next used.
func (d *DeleteView) KHopBallIndices(v NodeID, k int, s *Scratch) []int32 {
	vi, ok := d.g.index(v)
	if !ok || d.gone[vi] {
		return nil
	}
	return d.ballIdx(vi, k, s)
}

// KHopBall is KHopBallIndices resolved to node IDs (fresh copy). It equals
// Materialize().KHopNeighbors(v, k).
func (d *DeleteView) KHopBall(v NodeID, k int, s *Scratch) []NodeID {
	idx := d.KHopBallIndices(v, k, s)
	if idx == nil {
		return nil
	}
	out := make([]NodeID, len(idx))
	for i, bi := range idx {
		out[i] = d.g.ids[bi]
	}
	return out
}

// ExtractNeighborhood builds the neighbourhood graph Γ^k(v) of the live
// view — the subgraph induced by the live vertices within k hops of v, v
// itself excluded — together with v's live direct neighbours (ascending).
// This is exactly what the void-preserving-transformation test consumes;
// the graph is structurally identical to
// Materialize().InducedSubgraph(Materialize().KHopNeighbors(v, k)) but
// costs two passes over the ball. Returns (nil, nil) when v is dead or
// absent. Both results are freshly allocated; ExtractNeighborhoodInto is
// the allocation-free form.
func (d *DeleteView) ExtractNeighborhood(v NodeID, k int, s *Scratch) (*Graph, []NodeID) {
	return d.ExtractNeighborhoodInto(v, k, s, new(GraphBuf))
}

// ExtractNeighborhoodInto is ExtractNeighborhood built into b: the graph
// and the direct-neighbour slice both live in b and stay valid until the
// next build into it. Allocation-free once b is warm.
func (d *DeleteView) ExtractNeighborhoodInto(v NodeID, k int, s *Scratch, b *GraphBuf) (*Graph, []NodeID) {
	vi, ok := d.g.index(v)
	if !ok || d.gone[vi] {
		return nil, nil
	}
	ball := d.ballIdx(vi, k, s)
	sub := d.g.compactInducedInto(b, ball, s)
	b.direct = b.direct[:0]
	for _, w := range d.g.adj[vi] {
		if !d.gone[w] {
			b.direct = append(b.direct, d.g.ids[w])
		}
	}
	return sub, b.direct
}

// Mixing constants for NeighborhoodFingerprint: the seed and the two odd
// multipliers of xxHash64's accumulator round.
const (
	mixSeed   = 0xcbf29ce484222325
	mixPrime1 = 0x9e3779b185ebca87
	mixPrime2 = 0xc2b2ae3d27d4eb4f
)

// mix folds one 64-bit word into the running hash h with one
// multiply-rotate round. For a fixed h it is a bijection of x, and for a
// fixed x a bijection of h, so two word sequences that differ anywhere
// collide only by a 64-bit accident.
func mix(h, x uint64) uint64 {
	return bits.RotateLeft64(h^x*mixPrime2, 31) * mixPrime1
}

// NeighborhoodFingerprint hashes the structure the deletability verdict of
// v depends on — Γ^k(v) plus v's own live adjacency: the live vertices
// within k hops of v in increasing ID order, and for each of them (v
// included, v first) its live adjacency restricted to the ball. Everything
// is hashed over node IDs, never base indices, so fingerprints are
// comparable across views over structurally different base graphs: two
// views agree on the fingerprint iff v's k-hop neighbourhood is identical
// as a labelled graph (modulo 64-bit hash collisions). Returns 0 when v
// is dead or absent — 0 is reserved and never produced for a live vertex.
//
// This is the memo key of the streaming engine's verdict cache
// (internal/stream): every re-election builds a fresh live graph, but a
// vertex whose fingerprint is unchanged provably has an unchanged verdict.
func (d *DeleteView) NeighborhoodFingerprint(v NodeID, k int, s *Scratch) uint64 {
	vi, ok := d.g.index(v)
	if !ok || d.gone[vi] {
		return 0
	}
	// ballIdx stamps every visited vertex (vi included) with the current
	// epoch; the stamps stay valid until s is next used, which is exactly
	// the membership test the restriction needs.
	ball := d.ballIdx(vi, k, s)
	ep := s.epoch
	h := mix(mixSeed, uint64(len(ball))+1)
	hashAdj := func(xi int32) uint64 {
		h = mix(h, uint64(d.g.ids[xi]))
		for _, w := range d.g.adj[xi] {
			if !d.gone[w] && s.stamp[w] == ep {
				h = mix(h, uint64(d.g.ids[w])^0x9e3779b97f4a7c15)
			}
		}
		return mix(h, 0xfe)
	}
	h = hashAdj(int32(vi))
	for _, bi := range ball {
		h = hashAdj(bi)
	}
	if h == 0 {
		h = 1 // keep 0 as the dead/absent sentinel
	}
	return h
}

// LiveInduced builds the subgraph of a node universe induced by its live
// nodes: ids holds the universe's node IDs strictly ascending, adj[i] the
// indices into ids of node i's neighbours, strictly ascending, symmetric
// and free of self-loops, and dead[i] marks node i departed. The result is
// structurally identical to the Graph a Builder makes of the live nodes
// and the edges between them, but costs two passes over the live nodes'
// lists, with no sort and no ID search. It owns its arrays.
func LiveInduced(ids []NodeID, adj [][]int32, dead []bool) *Graph {
	s := getScratch(len(ids))
	defer putScratch(s)
	keep := s.ball[:0]
	for i, d := range dead {
		if !d {
			keep = append(keep, int32(i))
		}
	}
	// compactInduced reads only a graph's ids and adj.
	sub := (&Graph{ids: ids, adj: adj}).compactInduced(keep, s)
	s.ball = keep[:0]
	return sub
}

// Materialize builds the live remainder as a real Graph, structurally
// identical to applying DeleteVertices for every deleted vertex at once.
func (d *DeleteView) Materialize() *Graph { return LiveInduced(d.g.ids, d.g.adj, d.gone) }
