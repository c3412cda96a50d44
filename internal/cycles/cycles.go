// Package cycles implements the cycle-space algebra of the paper: incidence
// vectors over GF(2), Horton candidate cycles, minimum cycle bases,
// Algorithm 1 (minimum and maximum irreducible-cycle sizes) and the
// τ-partitionability tests behind the coverage criterion (Propositions 2
// and 3 of the paper).
//
// Terminology (paper §IV-A and §V-A):
//   - The cycle space C_H of a graph H is the GF(2) vector space spanned by
//     the incidence vectors of simple cycles; its dimension is
//     ν = m − n + c.
//   - A minimum cycle basis (MCB) is a basis of minimum total length.
//   - A cycle is irreducible (a.k.a. relevant, Vismara 1997) if it cannot
//     be written as a sum of strictly shorter cycles; the irreducible
//     cycles are exactly the cycles appearing in some MCB, and every MCB
//     has the same multiset of cycle lengths (Chickering et al. 1995) —
//     which is why Algorithm 1 may read the min/max irreducible sizes off
//     any single MCB.
//   - A cycle set C is a cycle partition of a target cycle (set) when the
//     GF(2) sum of C equals the target sum; the target is τ-partitionable
//     when a partition using only cycles of length ≤ τ exists.
package cycles

import (
	"errors"
	"fmt"
	"sort"

	"dcc/internal/bitvec"
	"dcc/internal/graph"
)

// ErrNotPartitionable is returned when no cycle partition within the
// requested length bound exists.
var ErrNotPartitionable = errors.New("cycles: target is not partitionable within the length bound")

// Cycle is a set of edges of a specific graph, identified by edge indices.
// It usually represents a simple cycle but, as an element of the cycle
// space, may also be a disjoint union of simple cycles (e.g. a cycle sum).
type Cycle struct {
	edges []int32 // sorted edge indices
}

// NewCycle builds a Cycle from edge indices (copied, sorted, deduplicated).
func NewCycle(edgeIdx []int) Cycle {
	es := make([]int32, 0, len(edgeIdx))
	for _, e := range edgeIdx {
		es = append(es, int32(e))
	}
	sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
	out := es[:0]
	for i, e := range es {
		if i > 0 && es[i-1] == e {
			continue
		}
		out = append(out, e)
	}
	return Cycle{edges: out}
}

// Len returns the number of edges in the cycle.
func (c Cycle) Len() int { return len(c.edges) }

// EdgeIndices returns the sorted edge indices. The slice is a copy.
func (c Cycle) EdgeIndices() []int {
	out := make([]int, len(c.edges))
	for i, e := range c.edges {
		out[i] = int(e)
	}
	return out
}

// Vector returns the GF(2) incidence vector of the cycle over a graph with
// m edges.
func (c Cycle) Vector(m int) bitvec.Vector {
	v := bitvec.New(m)
	for _, e := range c.edges {
		v.Set(int(e), true)
	}
	return v
}

// FromVertices builds the cycle passing through the given vertices in
// order, closing back from the last to the first. It errors if any required
// edge is missing or the sequence is shorter than 3 vertices.
func FromVertices(g *graph.Graph, verts []graph.NodeID) (Cycle, error) {
	if len(verts) < 3 {
		return Cycle{}, fmt.Errorf("cycles: need at least 3 vertices, got %d", len(verts))
	}
	idx := make([]int, 0, len(verts))
	for i := range verts {
		u, v := verts[i], verts[(i+1)%len(verts)]
		e, ok := g.EdgeIndex(u, v)
		if !ok {
			return Cycle{}, fmt.Errorf("cycles: edge {%d,%d} not in graph", u, v)
		}
		idx = append(idx, e)
	}
	return NewCycle(idx), nil
}

// Sum returns the GF(2) sum of the given cycles as an incidence vector over
// a graph with m edges.
func Sum(m int, cs ...Cycle) bitvec.Vector {
	v := bitvec.New(m)
	for _, c := range cs {
		for _, e := range c.edges {
			v.Flip(int(e))
		}
	}
	return v
}

// VertexOrder returns the vertices of a simple cycle in traversal order, or
// an error if the edge set is not a single simple cycle in g.
func VertexOrder(g *graph.Graph, c Cycle) ([]graph.NodeID, error) {
	if len(c.edges) < 3 {
		return nil, fmt.Errorf("cycles: %d edges cannot form a simple cycle", len(c.edges))
	}
	next := make(map[graph.NodeID][]graph.NodeID, len(c.edges))
	for _, ei := range c.edges {
		e := g.EdgeAt(int(ei))
		next[e.U] = append(next[e.U], e.V)
		next[e.V] = append(next[e.V], e.U)
	}
	// Validate in sorted vertex order so the reported error (and the walk's
	// start vertex) never depend on map iteration order.
	verts := make([]graph.NodeID, 0, len(next))
	for v := range next {
		verts = append(verts, v)
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
	for _, v := range verts {
		if ns := next[v]; len(ns) != 2 {
			return nil, fmt.Errorf("cycles: vertex %d has degree %d in edge set", v, len(ns))
		}
	}
	// Walk from the smallest vertex.
	start := verts[0]
	order := make([]graph.NodeID, 0, len(c.edges))
	prev, cur := graph.NodeID(-1), start
	for {
		order = append(order, cur)
		ns := next[cur]
		nxt := ns[0]
		if nxt == prev {
			nxt = ns[1]
		}
		prev, cur = cur, nxt
		if cur == start {
			break
		}
		if len(order) > len(c.edges) {
			return nil, errors.New("cycles: edge set is not a single simple cycle")
		}
	}
	if len(order) != len(c.edges) {
		return nil, errors.New("cycles: edge set contains multiple disjoint cycles")
	}
	return order, nil
}

// Candidates generates the Horton candidate cycles of g, sorted by
// non-decreasing length. For each vertex v a BFS shortest-path tree is
// built; every non-tree edge (x,y) whose tree LCA is v yields the candidate
// C(v,x,y) = path(v,x) + path(v,y) + (x,y) (Algorithm 1, lines 2–6).
//
// maxLen > 0 restricts generation to candidates of length ≤ maxLen (the BFS
// is truncated to depth ⌊maxLen/2⌋, which is sufficient since the two tree
// paths of a candidate differ in depth by at most one). maxLen ≤ 0 means
// unbounded.
//
// Every minimum cycle basis is contained in the unbounded candidate set
// (Horton 1987), and every cycle of length ≤ L is a GF(2) sum of
// irreducible cycles of length ≤ L, so the candidates of length ≤ L span
// exactly the subspace generated by all cycles of length ≤ L.
func Candidates(g *graph.Graph, maxLen int) []Cycle {
	// Bucket by length: candidate lengths are small integers, so bucketing
	// replaces an O(c log c) sort and keeps generation order stable within
	// a length class.
	var buckets [][]Cycle
	count := 0
	g.ForEachHortonCandidate(maxLen, func(_ graph.NodeID, length int, edges []int32) bool {
		for length >= len(buckets) {
			buckets = append(buckets, nil)
		}
		es := make([]int32, len(edges))
		copy(es, edges)
		sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
		buckets[length] = append(buckets[length], Cycle{edges: es})
		count++
		return true
	})
	cands := make([]Cycle, 0, count)
	for _, b := range buckets {
		cands = append(cands, b...)
	}
	return cands
}

// MCB computes a minimum cycle basis of g by greedy Gaussian elimination
// over the Horton candidates (Algorithm 1, lines 7–14). The basis is
// returned sorted by non-decreasing length. A forest yields an empty basis.
func MCB(g *graph.Graph) ([]Cycle, error) {
	nu := g.CycleSpaceDim()
	if nu == 0 {
		return nil, nil
	}
	m := g.NumEdges()
	ech := bitvec.NewEchelon(m)
	basis := make([]Cycle, 0, nu)
	for _, c := range Candidates(g, -1) {
		if ech.Insert(c.Vector(m)) {
			basis = append(basis, c)
			if len(basis) == nu {
				return basis, nil
			}
		}
	}
	return nil, fmt.Errorf("cycles: candidate set spans rank %d, want %d (internal error)", len(basis), nu)
}

// MinMaxIrreducible implements Algorithm 1 of the paper: it returns the
// minimum and maximum sizes of irreducible cycles in g. For a forest (no
// cycles) it returns (0, 0).
func MinMaxIrreducible(g *graph.Graph) (minLen, maxLen int, err error) {
	basis, err := MCB(g)
	if err != nil {
		return 0, 0, err
	}
	if len(basis) == 0 {
		return 0, 0, nil
	}
	return basis[0].Len(), basis[len(basis)-1].Len(), nil
}

// SpannedByShort reports whether the cycle space of g is generated by
// cycles of length ≤ tau. This is the core test of the void-preserving
// transformation (Definition 5): it holds iff the maximum irreducible cycle
// of g is bounded by tau.
func SpannedByShort(g *graph.Graph, tau int) bool {
	return SpannedByShortWS(g, tau, NewWorkspace())
}

// Corank returns the codimension in g's cycle space of the span of its
// cycles of length ≤ tau: ν minus the union-find and residue ranks the
// span engine reaches in one pass. It is 0 exactly when
// SpannedByShort(g, tau) holds. At tau = 3 the span is that of the
// triangle boundaries, so Corank is the GF(2) rank of H1 of g's Rips
// 2-complex.
func Corank(g *graph.Graph, tau int) int {
	ws := NewWorkspace()
	r := 0
	if !ws.spansAll(g, tau) {
		r = ws.nu - ws.rank - ws.ech.Rank()
	}
	debugCheckCorank(ws, g, tau, r) // no-op unless built with -tags dccdebug
	return r
}

// Partitionable reports whether the target vector (typically the GF(2) sum
// of the boundary cycles) is expressible as a sum of cycles of length
// ≤ tau in g. This is the coverage criterion of Propositions 2 and 3. A tau
// below 3 admits no cycle, so only the zero target qualifies.
func Partitionable(g *graph.Graph, target bitvec.Vector, tau int) bool {
	ok := NewWorkspace().contains(g, target, tau)
	debugCheckPartition(g, target, tau, ok) // no-op unless built with -tags dccdebug
	return ok
}

// FindPartition returns an explicit cycle partition of the target using
// cycles of length ≤ tau, or ErrNotPartitionable. It tracks elimination
// coefficients, so it is heavier than Partitionable; use it for reporting
// and visualisation rather than in inner loops.
func FindPartition(g *graph.Graph, target bitvec.Vector, tau int) ([]Cycle, error) {
	m := g.NumEdges()
	cands := Candidates(g, tau)
	// Extended vectors: m edge bits followed by one coefficient bit per
	// candidate. Eliminating extended vectors keeps track of which
	// candidates sum to each echelon row.
	ext := m + len(cands)
	ech := bitvec.NewEchelon(ext)
	nu := g.CycleSpaceDim()
	rank := 0
	for i, c := range cands {
		v := bitvec.New(ext)
		for _, e := range c.edges {
			v.Set(int(e), true)
		}
		v.Set(m+i, true)
		// Only rows pivoted in the edge region grow the edge-space rank;
		// rows whose edge bits cancelled are dependency records.
		if p, ok := ech.InsertPivot(v); ok && p < m {
			rank++
			if rank == nu {
				break
			}
		}
	}
	tv := bitvec.New(ext)
	for _, e := range target.Indices() {
		tv.Set(e, true)
	}
	res := ech.Reduce(tv)
	for _, b := range res.Indices() {
		if b < m {
			return nil, ErrNotPartitionable
		}
	}
	var part []Cycle
	for _, b := range res.Indices() {
		part = append(part, cands[b-m])
	}
	// Sanity: the chosen cycles must sum exactly to the target.
	if !Sum(m, part...).Equal(target) {
		return nil, errors.New("cycles: internal error: partition does not sum to target")
	}
	return part, nil
}
