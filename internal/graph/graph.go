// Package graph provides the undirected-graph substrate used throughout the
// repository: adjacency queries, BFS shortest-path trees, k-hop
// neighbourhoods, connectivity, induced subgraphs and vertex deletion.
//
// Graphs are immutable after construction (build with a Builder; derive new
// graphs with InducedSubgraph or DeleteVertices). Immutability keeps the
// edge indexing stable, which the cycle-space algebra in internal/cycles
// relies on: a cycle in graph G is a GF(2) vector over G's edge indices.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a node. IDs are arbitrary non-negative integers chosen
// by the caller; they need not be contiguous.
type NodeID int

// Edge is an undirected edge between two nodes, stored with U < V.
type Edge struct {
	U, V NodeID
}

// NormEdge returns the edge (u,v) normalized so that U < V.
func NormEdge(u, v NodeID) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Builder accumulates nodes and edges and produces an immutable Graph.
// Adding an edge implicitly adds its endpoints. The records are two plain
// slices, with no maps: duplicate nodes and duplicate edges (in either
// orientation) are kept until Build sorts and deduplicates them, so a build
// costs O((n+m)·log(n+m)) time and the records plus the final arrays in
// memory. A self-loop is recorded and reported as an error by Build.
//
// A Builder is not safe for concurrent use.
type Builder struct {
	nodes []NodeID
	edges []Edge // normalized, U < V except for self-loops
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddNode adds an isolated node (no-op if present).
func (b *Builder) AddNode(v NodeID) { b.nodes = append(b.nodes, v) }

// AddEdge adds the undirected edge {u,v}, implicitly adding both endpoints.
// Duplicate additions are no-ops. Self-loops are recorded and reported as an
// error by Build.
func (b *Builder) AddEdge(u, v NodeID) { b.edges = append(b.edges, NormEdge(u, v)) }

// Build constructs the immutable Graph: node IDs ascending, edges indexed in
// (U,V) order so that logically equal graphs index identically, and
// ascending adjacency lists. It returns an error if a self-loop was added.
// Build sorts and deduplicates the records in place and leaves them valid,
// so the Builder can grow and build again; the Graph shares no memory with
// them.
func (b *Builder) Build() (*Graph, error) {
	for _, e := range b.edges {
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at node %d", e.U)
		}
	}
	slices.Sort(b.nodes)
	b.nodes = slices.Compact(b.nodes)
	slices.SortFunc(b.edges, func(x, y Edge) int {
		if c := cmp.Compare(x.U, y.U); c != 0 {
			return c
		}
		return cmp.Compare(x.V, y.V)
	})
	b.edges = slices.Compact(b.edges)

	m := len(b.edges)
	edgeU, edgeV := make([]int32, m), make([]int32, m)
	for i, e := range b.edges {
		u, uok := slices.BinarySearch(b.nodes, e.U)
		v, vok := slices.BinarySearch(b.nodes, e.V)
		if !uok || !vok {
			// An endpoint was never added as a node: every endpoint joins
			// the node records, and the build starts over.
			for _, e := range b.edges {
				b.nodes = append(b.nodes, e.U, e.V)
			}
			return b.Build()
		}
		edgeU[i], edgeV[i] = int32(u), int32(v)
	}
	n := len(b.nodes)
	g := &Graph{
		ids:     append(make([]NodeID, 0, n), b.nodes...),
		adj:     make([][]int32, n),
		adjEdge: make([][]int32, n),
		edgeU:   edgeU,
		edgeV:   edgeV,
	}
	if m > 0 {
		g.edges = append(make([]Edge, 0, m), b.edges...)
	}
	// One shared backing array per CSR side, the compactInduced layout;
	// an isolated node keeps nil lists.
	deg := make([]int32, n)
	for i := range edgeU {
		deg[edgeU[i]]++
		deg[edgeV[i]]++
	}
	nbrBack, edgeBack := make([]int32, 2*m), make([]int32, 2*m)
	off := int32(0)
	for i, d := range deg {
		if d > 0 {
			g.adj[i] = nbrBack[off : off : off+d]
			g.adjEdge[i] = edgeBack[off : off : off+d]
			off += d
		}
	}
	// Filling in edge order keeps every adjacency list ascending: a node's
	// lower neighbours arrive first, in increasing U, then its higher ones
	// in increasing V.
	for i := range edgeU {
		u, v := edgeU[i], edgeV[i]
		g.adj[u] = append(g.adj[u], v)
		g.adjEdge[u] = append(g.adjEdge[u], int32(i))
		g.adj[v] = append(g.adj[v], u)
		g.adjEdge[v] = append(g.adjEdge[v], int32(i))
	}
	debugCheckGraph(g) // no-op unless built with -tags dccdebug
	return g, nil
}

// MustBuild is Build that panics on error; intended for tests and for
// construction from inputs already known to be loop-free.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds a graph directly from an edge list plus optional isolated
// nodes.
func FromEdges(edges []Edge, isolated ...NodeID) (*Graph, error) {
	b := NewBuilder()
	for _, v := range isolated {
		b.AddNode(v)
	}
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// Graph is an immutable undirected simple graph.
//
// The representation is fully array-based (no maps): node IDs are kept
// sorted, so ID-to-index resolution is a binary search, and an edge's index
// is found by a binary search in the sorted adjacency list of an endpoint.
// Map-free construction is what makes the compact-subgraph path (compact.go)
// cheap enough to run inside the deletability hot loop.
type Graph struct {
	ids     []NodeID
	adj     [][]int32 // adjacency by internal index, sorted
	adjEdge [][]int32 // edge index parallel to adj
	edges   []Edge
	edgeU   []int32 // internal index of edges[i].U (dense, for scan loops)
	edgeV   []int32 // internal index of edges[i].V
}

// index returns the dense index of v via binary search over the sorted ID
// list, with ok reporting membership.
func (g *Graph) index(v NodeID) (int, bool) {
	lo, hi := 0, len(g.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.ids[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(g.ids) && g.ids[lo] == v {
		return lo, true
	}
	return 0, false
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.ids) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Nodes returns all node IDs in increasing order.
//
// The slice is a fresh copy on every call — callers may retain it, mutate
// it, or filter it in place without aliasing graph internals or the result
// of any other Nodes call. Code relies on this guarantee (e.g. the dist
// runtime's in-place live-node filter), so it must survive refactors.
func (g *Graph) Nodes() []NodeID {
	return append([]NodeID(nil), g.ids...)
}

// HasNode reports whether v is a node of the graph.
func (g *Graph) HasNode(v NodeID) bool {
	_, ok := g.index(v)
	return ok
}

// IndexOf returns the dense index of v in [0, NumNodes()) — the position of
// v in the sorted ID list — with ok reporting membership. Dense indices are
// stable for the graph's lifetime and are how overlay-aware callers (the
// vpt verdict cache) key per-node state without maps.
func (g *Graph) IndexOf(v NodeID) (int, bool) { return g.index(v) }

// NodeAt returns the node ID with dense index i (inverse of IndexOf).
func (g *Graph) NodeAt(i int) NodeID { return g.ids[i] }

// NeighborIndices returns the dense indices of the neighbours of the node
// with dense index i, ascending. The slice aliases the graph: callers must
// not modify it.
func (g *Graph) NeighborIndices(i int) []int32 { return g.adj[i] }

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.EdgeIndex(u, v)
	return ok
}

// EdgeIndex returns the stable index of edge {u,v} in [0, NumEdges()). It
// resolves the endpoints and binary-searches the sorted adjacency list of
// the lower-degree endpoint.
func (g *Graph) EdgeIndex(u, v NodeID) (int, bool) {
	ui, ok := g.index(u)
	if !ok {
		return 0, false
	}
	vi, ok := g.index(v)
	if !ok {
		return 0, false
	}
	if len(g.adj[vi]) < len(g.adj[ui]) {
		ui, vi = vi, ui
	}
	a := g.adj[ui]
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < int32(vi) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a) && a[lo] == int32(vi) {
		return int(g.adjEdge[ui][lo]), true
	}
	return 0, false
}

// EdgeAt returns the edge with the given index.
func (g *Graph) EdgeAt(i int) Edge { return g.edges[i] }

// Edges returns a copy of the edge list in index order.
func (g *Graph) Edges() []Edge {
	return append([]Edge(nil), g.edges...)
}

// Degree returns the degree of v (0 if v is not in the graph).
func (g *Graph) Degree(v NodeID) int {
	i, ok := g.index(v)
	if !ok {
		return 0
	}
	return len(g.adj[i])
}

// Neighbors returns the neighbours of v in increasing ID order. The slice is
// a copy. Returns nil if v is not in the graph.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	i, ok := g.index(v)
	if !ok {
		return nil
	}
	out := make([]NodeID, len(g.adj[i]))
	for j, w := range g.adj[i] {
		out[j] = g.ids[w]
	}
	return out
}

// internalIndex returns the dense index of v, panicking if absent. Reserved
// for internal callers that have already validated membership.
func (g *Graph) internalIndex(v NodeID) int {
	i, ok := g.index(v)
	if !ok {
		panic(fmt.Sprintf("graph: node %d not in graph", v))
	}
	return i
}

// BFSTree holds a breadth-first shortest-path tree rooted at Root. Parent
// and Depth are indexed by internal node index; unreachable nodes have
// Depth -1.
type BFSTree struct {
	g      *Graph
	Root   NodeID
	parent []int32
	depth  []int32
}

// BFS computes a shortest-path tree from root, visiting neighbours in
// increasing ID order (deterministic). maxDepth < 0 means unbounded.
func (g *Graph) BFS(root NodeID, maxDepth int) *BFSTree {
	r := g.internalIndex(root)
	t := &BFSTree{
		g:      g,
		Root:   root,
		parent: make([]int32, len(g.ids)),
		depth:  make([]int32, len(g.ids)),
	}
	for i := range t.depth {
		t.depth[i] = -1
		t.parent[i] = -1
	}
	t.depth[r] = 0
	queue := make([]int32, 0, len(g.ids))
	queue = append(queue, int32(r))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if maxDepth >= 0 && int(t.depth[u]) >= maxDepth {
			continue
		}
		for _, w := range g.adj[u] {
			if t.depth[w] < 0 {
				t.depth[w] = t.depth[u] + 1
				t.parent[w] = u
				queue = append(queue, w)
			}
		}
	}
	return t
}

// Depth returns the BFS depth of v, or -1 if unreachable (or outside the
// explored horizon).
func (t *BFSTree) Depth(v NodeID) int {
	i, ok := t.g.index(v)
	if !ok {
		return -1
	}
	return int(t.depth[i])
}

// Parent returns the BFS parent of v and true, or 0,false for the root and
// unreachable nodes.
func (t *BFSTree) Parent(v NodeID) (NodeID, bool) {
	i, ok := t.g.index(v)
	if !ok || t.parent[i] < 0 {
		return 0, false
	}
	return t.g.ids[t.parent[i]], true
}

// LCA returns the lowest common ancestor of u and v in the tree, or false if
// either is unreachable.
func (t *BFSTree) LCA(u, v NodeID) (NodeID, bool) {
	ui, uok := t.g.index(u)
	vi, vok := t.g.index(v)
	if !uok || !vok || t.depth[ui] < 0 || t.depth[vi] < 0 {
		return 0, false
	}
	a, b := int32(ui), int32(vi)
	for t.depth[a] > t.depth[b] {
		a = t.parent[a]
	}
	for t.depth[b] > t.depth[a] {
		b = t.parent[b]
	}
	for a != b {
		a = t.parent[a]
		b = t.parent[b]
	}
	return t.g.ids[a], true
}

// KHopNeighbors returns all nodes within k hops of v, excluding v itself,
// in increasing ID order.
func (g *Graph) KHopNeighbors(v NodeID, k int) []NodeID {
	if k <= 0 || !g.HasNode(v) {
		return nil
	}
	t := g.BFS(v, k)
	out := make([]NodeID, 0, 16)
	for i, d := range t.depth {
		if d > 0 {
			out = append(out, g.ids[i])
		}
	}
	return out
}

// InducedSubgraph returns the subgraph induced by the given node set. Nodes
// absent from g are ignored. Edge indices of the result are independent of
// g's.
func (g *Graph) InducedSubgraph(nodes []NodeID) *Graph {
	s := getScratch(len(g.ids))
	defer putScratch(s)
	keep := s.ball[:0]
	for _, v := range nodes {
		if i, ok := g.index(v); ok {
			keep = append(keep, int32(i))
		}
	}
	keep = sortDedupIndices(keep)
	sub := g.compactInduced(keep, s)
	s.ball = keep[:0]
	return sub
}

// DeleteVertices returns a new graph with the given vertices (and their
// incident edges) removed.
func (g *Graph) DeleteVertices(del []NodeID) *Graph {
	s := getScratch(len(g.ids))
	defer putScratch(s)
	ep := s.nextEpoch()
	for _, v := range del {
		if i, ok := g.index(v); ok {
			s.stamp[i] = ep
		}
	}
	keep := s.ball[:0]
	for i := range g.ids {
		if s.stamp[i] != ep {
			keep = append(keep, int32(i))
		}
	}
	sub := g.compactInduced(keep, s)
	s.ball = keep[:0]
	return sub
}

// DeleteEdges returns a new graph with the given edges removed (endpoints
// retained).
func (g *Graph) DeleteEdges(del []Edge) *Graph {
	drop := make(map[Edge]struct{}, len(del))
	for _, e := range del {
		drop[NormEdge(e.U, e.V)] = struct{}{}
	}
	b := NewBuilder()
	for _, v := range g.ids {
		b.AddNode(v)
	}
	for _, e := range g.edges {
		if _, gone := drop[e]; gone {
			continue
		}
		b.AddEdge(e.U, e.V)
	}
	return b.MustBuild()
}

// IsConnected reports whether the graph is connected. The empty graph and
// single-node graphs are connected. Runs on a pooled scratch;
// IsConnectedWith is the form for callers that own one.
func (g *Graph) IsConnected() bool {
	s := getScratch(len(g.ids))
	defer putScratch(s)
	return g.IsConnectedWith(s)
}

// IsConnectedWith is IsConnected on the caller's scratch, allocation-free
// once s is warm — it sits on the deletability hot path (every
// neighbourhood verdict starts with a connectivity check).
func (g *Graph) IsConnectedWith(s *Scratch) bool {
	if len(g.ids) <= 1 {
		return true
	}
	s.ensure(len(g.ids))
	return g.flood(s, 0, s.nextEpoch()) == len(g.ids)
}

// flood stamps every vertex reachable from start (by internal index) with
// epoch ep and returns the number of newly stamped vertices; already
// stamped regions are skipped, so repeated floods under one epoch
// enumerate components. The traversal borrows s.queue.
func (g *Graph) flood(s *Scratch, start int32, ep int32) int {
	if s.stamp[start] == ep {
		return 0
	}
	queue := s.queue[:0]
	s.stamp[start] = ep
	queue = append(queue, start)
	count := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		count++
		for _, w := range g.adj[u] {
			if s.stamp[w] != ep {
				s.stamp[w] = ep
				queue = append(queue, w)
			}
		}
	}
	s.queue = queue[:0]
	return count
}

// ConnectedComponents returns the node sets of all connected components,
// each sorted, ordered by their smallest node ID.
func (g *Graph) ConnectedComponents() [][]NodeID {
	seen := make([]bool, len(g.ids))
	var comps [][]NodeID
	for i := range g.ids {
		if seen[i] {
			continue
		}
		var comp []NodeID
		stack := []int32{int32(i)}
		seen[i] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, g.ids[u])
			for _, w := range g.adj[u] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		sort.Slice(comp, func(a, b int) bool { return comp[a] < comp[b] })
		comps = append(comps, comp)
	}
	return comps
}

// NumComponents returns the number of connected components. Unlike
// ConnectedComponents it does not materialize the node sets: the count
// comes from repeated floods on a pooled scratch.
func (g *Graph) NumComponents() int {
	s := getScratch(len(g.ids))
	defer putScratch(s)
	return g.numComponentsWith(s)
}

func (g *Graph) numComponentsWith(s *Scratch) int {
	n := len(g.ids)
	if n == 0 {
		return 0
	}
	s.ensure(n)
	ep := s.nextEpoch()
	comps := 0
	for i := range g.ids {
		if s.stamp[i] != ep {
			comps++
			g.flood(s, int32(i), ep)
		}
	}
	return comps
}

// CycleSpaceDim returns the dimension of the graph's cycle space,
// ν = m − n + c.
func (g *Graph) CycleSpaceDim() int {
	return g.NumEdges() - g.NumNodes() + g.NumComponents()
}

// CycleSpaceDimWith is CycleSpaceDim on the caller's scratch,
// allocation-free once s is warm (the short-cycle span test needs ν
// inside the deletability hot loop).
func (g *Graph) CycleSpaceDimWith(s *Scratch) int {
	return g.NumEdges() - g.NumNodes() + g.numComponentsWith(s)
}

// CoTreeInto numbers the co-tree of a BFS spanning forest of g whose roots
// are taken in index order. cot, which must hold at least NumEdges entries,
// receives −1 for every tree edge and the coordinates 0…ν−1, in edge-index
// order, for the other edges; the returned ν = m − n + c is the dimension
// of the cycle space. A cycle-space element is determined by its co-tree
// edges (each tree edge is then forced by even degree), so this numbering
// is an isomorphism of the cycle space onto GF(2)^ν. Runs on the caller's
// scratch, allocation-free once s is warm.
func (g *Graph) CoTreeInto(s *Scratch, cot []int32) (nu int) {
	n := len(g.ids)
	cot = cot[:len(g.edges)]
	for e := range cot {
		cot[e] = 0
	}
	s.ensure(n)
	ep := s.nextEpoch()
	stamp := s.stamp[:n]
	queue := s.queue[:0]
	for r := range stamp {
		if stamp[r] == ep {
			continue
		}
		stamp[r] = ep
		queue = append(queue[:0], int32(r))
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			adjE := g.adjEdge[u]
			for ai, w := range g.adj[u] {
				if stamp[w] != ep {
					stamp[w] = ep
					cot[adjE[ai]] = -1
					queue = append(queue, w)
				}
			}
		}
	}
	s.queue = queue[:0]
	for e, c := range cot {
		if c == 0 {
			cot[e] = int32(nu)
			nu++
		}
	}
	return nu
}

// TwoCore returns the subgraph obtained by repeatedly deleting vertices of
// degree < 2. The 2-core carries the entire cycle space of the graph, so
// cycle computations may be restricted to it. The result is freshly
// allocated; TwoCoreInto is the allocation-free form.
func (g *Graph) TwoCore() *Graph {
	s := getScratch(len(g.ids))
	defer putScratch(s)
	return g.TwoCoreInto(new(GraphBuf), s)
}

// TwoCoreInto is TwoCore built into b on the caller's scratch; the result
// stays valid until the next build into b, which must not hold g.
func (g *Graph) TwoCoreInto(b *GraphBuf, s *Scratch) *Graph {
	n := len(g.ids)
	s.ensure(n)
	deg := s.ensureDeg(n)
	dead := s.nextEpoch()
	stamp := s.stamp[:n]
	queue := s.queue[:0]
	for i := range g.ids {
		deg[i] = int32(len(g.adj[i]))
		if deg[i] < 2 {
			stamp[i] = dead
			queue = append(queue, int32(i))
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range g.adj[u] {
			if stamp[w] != dead {
				deg[w]--
				if deg[w] < 2 {
					stamp[w] = dead
					queue = append(queue, w)
				}
			}
		}
	}
	s.queue = queue[:0]
	keep := s.ball[:0]
	for i := range g.ids {
		if stamp[i] != dead {
			keep = append(keep, int32(i))
		}
	}
	s.ball = keep
	return g.compactInducedInto(b, keep, s)
}

// AnyPairWithin reports whether two distinct nodes of terminals are
// joined by a path of at most maxHops edges. Terminals absent from the
// graph are ignored. One multi-source search from every terminal at once
// replaces a BFS per terminal: each visited node records its depth and
// the terminal it was reached from, and an edge between nodes reached
// from different terminals closes a terminal-to-terminal walk of length
// depth(x) + 1 + depth(y). The shortest pair path contains such an edge
// with that sum at most its length, so the search is exact. Runs on the
// caller's scratch, allocation-free once s is warm.
func (g *Graph) AnyPairWithin(terminals []NodeID, maxHops int, s *Scratch) bool {
	n := len(g.ids)
	s.ensureTree(n)
	ep := s.nextEpoch()
	stamp, depth, src := s.stamp[:n], s.depth[:n], s.parent[:n]
	queue := s.queue[:0]
	for ti, t := range terminals {
		i, ok := g.index(t)
		if !ok || stamp[i] == ep {
			continue
		}
		stamp[i] = ep
		depth[i] = 0
		src[i] = int32(ti)
		queue = append(queue, int32(i))
	}
	found := false
	for qi := 0; qi < len(queue) && !found; qi++ {
		x := queue[qi]
		dx := depth[x]
		for _, y := range g.adj[x] {
			if stamp[y] != ep {
				// Only nodes with depth ≤ maxHops−1 can close a short pair.
				if int(dx)+1 <= maxHops-1 {
					stamp[y] = ep
					depth[y] = dx + 1
					src[y] = src[x]
					queue = append(queue, y)
				}
				continue
			}
			if src[y] != src[x] && int(dx+depth[y])+1 <= maxHops {
				found = true
				break
			}
		}
	}
	s.queue = queue[:0]
	return found
}
