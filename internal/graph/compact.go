package graph

import (
	"math"
	"slices"
	"sync"
)

// Scratch holds the reusable buffers behind the compact subgraph
// constructor, the deletion-overlay BFS and the bounded searches of the
// deletability test: visit stamps, BFS queues, base→local index mappings
// and per-node counters. A Scratch amortizes the per-call allocations of
// the deletability hot loop; it is NOT safe for concurrent use — give each
// worker its own via NewScratch.
//
// All buffers are epoch-stamped: reuse never requires clearing, so a
// Scratch can serve graphs of different sizes back to back.
type Scratch struct {
	// BFS state (ballIdx, flood, twoCore, the Horton and pair searches).
	stamp []int32
	epoch int32
	queue []int32
	ball  []int32
	// Base→local mapping for compactInduced.
	local  []int32
	lstamp []int32
	lepoch int32
	// Per-node counters: compactInduced and TwoCore degrees.
	deg []int32
	// Search-tree state by node index, grown on demand (ensureTree):
	// depth, parent (or source, in the pair search), parent edge and the
	// root's child on the tree path, plus the candidate edge list and the
	// label sums of the Horton enumeration.
	depth, parent, parentEdge, branch []int32
	path                              []int32
	sum                               []uint64
	// The fan certificate's vertex positions, adjacency rows and working
	// sets (FanCertified).
	pos []int32
	fan []uint64
	dbg debugScratch // the dccdebug checks' own storage, empty otherwise
}

// NewScratch returns a Scratch pre-sized for graphs up to g's order. A nil
// g yields an empty Scratch that grows on first use (handy for pooled
// per-worker scratch created before the target graph is known).
func NewScratch(g *Graph) *Scratch {
	s := &Scratch{}
	if g != nil {
		s.ensure(len(g.ids))
	}
	return s
}

func (s *Scratch) ensure(n int) {
	if len(s.stamp) < n {
		s.stamp = make([]int32, n)
		s.local = make([]int32, n)
		s.lstamp = make([]int32, n)
	}
}

// ensureTree sizes the search-tree buffers for n nodes.
func (s *Scratch) ensureTree(n int) {
	s.ensure(n)
	if len(s.depth) < n {
		s.depth = make([]int32, n)
		s.parent = make([]int32, n)
		s.parentEdge = make([]int32, n)
		s.branch = make([]int32, n)
	}
}

// ensureDeg returns the degree counter buffer resliced to n nodes.
func (s *Scratch) ensureDeg(n int) []int32 {
	if cap(s.deg) < n {
		s.deg = make([]int32, n)
	}
	return s.deg[:n]
}

// nextEpoch advances the BFS epoch, resetting the stamp array on the
// (practically unreachable) int32 wraparound.
func (s *Scratch) nextEpoch() int32 {
	if s.epoch == math.MaxInt32 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 0
	}
	s.epoch++
	return s.epoch
}

func (s *Scratch) nextLocalEpoch() int32 {
	if s.lepoch == math.MaxInt32 {
		for i := range s.lstamp {
			s.lstamp[i] = 0
		}
		s.lepoch = 0
	}
	s.lepoch++
	return s.lepoch
}

// scratchPool recycles Scratch instances for the public graph-derivation
// entry points (InducedSubgraph, DeleteVertices, TwoCore), which cannot
// thread a caller-owned Scratch without changing their signatures.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

func getScratch(n int) *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.ensure(n)
	return s
}

func putScratch(s *Scratch) { scratchPool.Put(s) }

// GraphBuf is caller-owned storage for one Graph or Adjacency: the
// constructors that build into a GraphBuf (compactInducedInto,
// compactAdjInto, TwoCoreInto, DeleteView.ExtractNeighborhoodInto and
// BallInto) reuse its arrays, so a warm GraphBuf makes them
// allocation-free. What they return, and the node list the DeleteView
// extractions return with it, live in the GraphBuf and stay valid until the
// next build into it. The zero value is ready to use; a GraphBuf is not
// safe for concurrent use.
type GraphBuf struct {
	g Graph // the graph built last; its slices alias the arrays below
	// Backing arrays of g's fields, grown on demand.
	ids          []NodeID
	adj, adjEdge [][]int32
	edges        []Edge
	edgeU, edgeV []int32
	nbr, nbrEs   []int32 // the adjacency lists' storage
	direct       []NodeID
}

// short reports whether buf must be (re)allocated to hold n elements. A
// nil buf always is, so a fresh build holds empty slices exactly where
// Builder does.
func short[T any](buf []T, n int) bool { return buf == nil || cap(buf) < n }

// compactInducedInto builds into b the subgraph induced by the base-index
// set keep (strictly ascending) and returns it. It produces a Graph
// structurally identical to the one Builder would construct from the same
// nodes and edges — node IDs ascending, edges sorted by (U,V), adjacency
// lists sorted with the parallel edge-index lists — in two array passes
// with no maps, which is what makes per-candidate neighbourhood extraction
// affordable inside the deletability hot loop. b must not hold g.
func (g *Adjacency) compactInducedInto(b *GraphBuf, keep []int32, s *Scratch) *Graph {
	s.ensure(len(g.ids))
	nl := len(keep)
	if short(b.ids, nl) {
		b.ids, b.adj, b.adjEdge = make([]NodeID, nl), make([][]int32, nl), make([][]int32, nl)
	}
	sub := &b.g
	sub.ids, sub.adj, sub.adjEdge = b.ids[:nl], b.adj[:nl], b.adjEdge[:nl]
	ep := s.nextLocalEpoch()
	local, lstamp := s.local[:len(g.ids)], s.lstamp[:len(g.ids)]
	for li, bi := range keep {
		sub.ids[li] = g.ids[bi]
		local[bi] = int32(li)
		lstamp[bi] = ep
	}
	// Pass 1: count the surviving degree of each kept node and the number
	// of surviving edges.
	deg := s.ensureDeg(nl)
	for li := range deg {
		deg[li] = 0
	}
	ne := 0
	for li, bi := range keep {
		for _, w := range g.adj[bi] {
			if lstamp[w] == ep {
				deg[li]++
				if local[w] > int32(li) {
					ne++
				}
			}
		}
	}
	sub.edges = nil // Builder leaves an edgeless graph's edge list nil
	if ne > 0 {
		if short(b.edges, ne) {
			b.edges = make([]Edge, ne)
		}
		sub.edges = b.edges[:ne]
	}
	if short(b.edgeU, ne) {
		b.edgeU, b.edgeV = make([]int32, ne), make([]int32, ne)
	}
	sub.edgeU, sub.edgeV = b.edgeU[:ne], b.edgeV[:ne]
	if short(b.nbr, 2*ne) || short(b.nbrEs, 2*ne) {
		b.nbr, b.nbrEs = make([]int32, 2*ne), make([]int32, 2*ne)
	}
	// Lay the adjacency lists out back to back; deg becomes each list's
	// fill cursor.
	nbr, nbrEs := b.nbr[:2*ne], b.nbrEs[:2*ne]
	off := int32(0)
	for li, d := range deg {
		if d == 0 {
			// Nil, matching Builder output for isolated nodes.
			sub.adj[li], sub.adjEdge[li] = nil, nil
			continue
		}
		sub.adj[li] = nbr[off : off+d : off+d]
		sub.adjEdge[li] = nbrEs[off : off+d : off+d]
		deg[li] = off
		off += d
	}
	// Pass 2: enumerate surviving edges with the lower local endpoint
	// major. Local order equals ID order (keep ascending), so this emits
	// edges in (U,V)-sorted order, and each adjacency list fills in
	// ascending neighbour order — exactly the Builder invariants.
	ids, edges, edgeU, edgeV := sub.ids, sub.edges, sub.edgeU, sub.edgeV
	e := int32(0)
	for li, bi := range keep {
		for _, w := range g.adj[bi] {
			if lstamp[w] != ep {
				continue
			}
			lw := local[w]
			if lw <= int32(li) {
				continue
			}
			edges[e] = Edge{U: ids[li], V: ids[lw]}
			edgeU[e] = int32(li)
			edgeV[e] = lw
			nbr[deg[li]], nbrEs[deg[li]] = lw, e
			nbr[deg[lw]], nbrEs[deg[lw]] = int32(li), e
			deg[li]++
			deg[lw]++
			e++
		}
	}
	debugCheckGraph(sub) // no-op unless built with -tags dccdebug
	return sub
}

// compactAdjInto builds into b the adjacency of the subgraph induced by
// the base-index set keep (strictly ascending) and returns it: the node IDs
// and adjacency lists compactInducedInto would build, in one pass over the
// kept nodes' lists, without the edge index. An isolated node's list is
// empty rather than nil. b must not hold g.
func (g *Adjacency) compactAdjInto(b *GraphBuf, keep []int32, s *Scratch) *Adjacency {
	s.ensure(len(g.ids))
	nl := len(keep)
	if short(b.ids, nl) {
		b.ids, b.adj, b.adjEdge = make([]NodeID, nl), make([][]int32, nl), make([][]int32, nl)
	}
	b.g = Graph{Adjacency: Adjacency{ids: b.ids[:nl], adj: b.adj[:nl]}}
	sub := &b.g.Adjacency
	ep := s.nextLocalEpoch()
	local, lstamp := s.local[:len(g.ids)], s.lstamp[:len(g.ids)]
	for li, bi := range keep {
		sub.ids[li] = g.ids[bi]
		local[bi] = int32(li)
		lstamp[bi] = ep
	}
	// Local order equals ID order (keep ascending), so each filtered list
	// comes out ascending. start holds each list's offset into nbr until
	// the lists are cut, last to first.
	start := s.ensureDeg(nl)
	nbr := b.nbr[:0]
	for li, bi := range keep {
		start[li] = int32(len(nbr))
		for _, w := range g.adj[bi] {
			if lstamp[w] == ep {
				nbr = append(nbr, local[w])
			}
		}
	}
	b.nbr = nbr
	end := int32(len(nbr))
	for li := nl - 1; li >= 0; li-- {
		sub.adj[li] = nbr[start[li]:end:end]
		end = start[li]
	}
	return sub
}

// compactInduced is compactInducedInto on fresh storage: the returned
// Graph owns its arrays.
func (g *Adjacency) compactInduced(keep []int32, s *Scratch) *Graph {
	return g.compactInducedInto(new(GraphBuf), keep, s)
}

// sortDedupIndices sorts keep ascending and removes duplicates in place.
func sortDedupIndices(keep []int32) []int32 {
	slices.Sort(keep)
	return slices.Compact(keep)
}
