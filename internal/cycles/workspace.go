package cycles

import (
	"fmt"

	"dcc/internal/bitvec"
	"dcc/internal/graph"
)

// Workspace holds reusable state for repeated short-span tests: the graph
// scratch of the fan certificate, the 2-core peel, co-tree numbering and
// Horton search, the 2-core under test, and the span engine — the co-tree
// map, the union-find quotient, the arena of deferred candidates and the
// residue echelon (with its recycled row storage) — plus the node list
// UnspannedCycle returns. A warm Workspace makes SpannedByShortWS and
// UnspannedCycle allocation-free across the thousands of deletability
// evaluations a scheduling run performs; it is NOT safe for concurrent
// use — give each worker its own.
//
// The engine works in co-tree coordinates (Graph.CoTreeInto), where the
// cycle space is GF(2)^ν. Its span is kept as a partition of the ν
// coordinates plus a zero element into classes: the span is the set of
// vectors of even weight on every class except zero's. A candidate's image
// is the set of classes its co-tree edges hit an odd number of times,
// zero's class dropped. Weight 0 means the candidate is already spanned;
// weight 1 merges its class into zero's and weight 2 merges the two
// classes, each merge raising the rank by one, so the span is full exactly
// when rank == ν. Images of weight ≥ 3 are deferred and retried after
// merges; what is left is eliminated over the classes other than zero's
// (the quotient of GF(2)^ν by the union-find span), which in the unit-disk
// balls of the deletability test are a handful.
type Workspace struct {
	s    *graph.Scratch
	core graph.GraphBuf // the 2-core under test, valid until the next test
	g    *graph.Graph   // the graph spansAll last ran on

	certified bool // the fan certificate decided the last SpannedByShortWS

	cot    []int32 // edge → co-tree coordinate, −1 on the spanning forest
	nu     int     // cycle-space dimension; also the zero element's index
	uf     []int32 // union-find over coordinates and zero: parent, or −size at a root
	rank   int     // merges so far
	par    []uint8 // class parity of the image under construction, by root
	img    []int32 // roots flipped to odd parity while an image is built
	def    []int32 // deferred images, each a length followed by its roots
	ech    *bitvec.Echelon
	lab    []int32 // root → residue echelon column, −1 until numbered
	nlab   int32
	bit    []uint64       // root → its class's bit in the Horton pass's labels
	labels []uint64       // edge → the bit of its class, 0 on the forest and in zero's
	cyc    []graph.NodeID // UnspannedCycle's result
	dbg    debugState
}

// NewWorkspace returns an empty Workspace.
func NewWorkspace() *Workspace {
	return &Workspace{ech: bitvec.NewEchelon(0), s: graph.NewScratch(nil)}
}

// SpannedByShortWS is SpannedByShort evaluated with ws's reusable buffers —
// same verdict, allocation-free once ws is warm. This is the form the
// incremental deletability engine (internal/vpt Cache) calls per
// candidate.
//
// The fan certificate (Graph.FanCertified) goes first: when it holds, g
// is spanned and no cycle is enumerated. Only when it declines does the
// span engine run, so the engine decides every "not spanned" verdict and
// the few "spanned" ones the certificate misses.
func SpannedByShortWS(g *graph.Graph, tau int, ws *Workspace) bool {
	return SpannedByShortAdj(&g.Adjacency, tau, ws)
}

// SpannedByShortAdj is SpannedByShortWS on a graph's adjacency alone, the
// form the deletability test calls on the Γ^k(v) it extracts without an
// edge index (graph.DeleteView.BallInto): the fan certificate reads only
// the adjacency, and the span engine runs on the 2-core, which
// Adjacency.TwoCoreInto builds in full.
func SpannedByShortAdj(a *graph.Adjacency, tau int, ws *Workspace) bool {
	if a.FanCertified(ws.s, tau) {
		debugCheckCertified(ws, a, tau) // no-op unless built with -tags dccdebug
		// Nothing the engine left in ws describes a.
		ws.certified = true
		ws.ech.Reset(0)
		return true
	}
	// Trees carry no cycles; restricting to the 2-core preserves the cycle
	// space while shrinking the candidate generation work.
	core := a.TwoCoreInto(&ws.core, ws.s)
	ok := ws.spansAll(core, tau)
	debugCheckSpan(ws, core, tau, ok) // no-op unless built with -tags dccdebug
	return ok
}

// Certified reports whether the fan certificate, not the span engine,
// decided the last SpannedByShortWS on ws.
func (ws *Workspace) Certified() bool { return ws.certified }

// spansAll builds the span of g's cycles of length ≤ tau in ws and reports
// whether it is g's entire cycle space. Triangles go in first, straight
// from the adjacency intersection — in the dense unit-disk patches the
// deletability test sees they usually reach full rank on their own — then
// the Horton candidates longer than 3 (every 3-cycle is a triangle), which
// span the same space as all cycles of length ≤ tau. The deferred images
// are retried after each pass and the rest is reduced in the residue
// echelon. The only early exit is full rank, after which every cycle of g
// is in the span, so the span ws holds is exact for membership tests too.
//
// The Horton pass skips the candidates whose image is empty, which is
// nearly all of them: adding one changes nothing. With at most 64 classes
// besides zero's, each gets a bit, every edge is labelled with the bit of
// its co-tree coordinate's class (0 on the forest and in zero's class),
// and the enumeration drops the candidates whose labels XOR to zero — the
// XOR is exactly the image. The rest go through add in the same order as
// unfiltered. A merge maps the classes onto fewer by a linear map, so an
// image empty under older labels is empty now; the relabel after a merge
// only lets the filter skip what the merge spanned. So the partition, the
// deferred images, the residue and UnspannedCycle come out as an
// unfiltered pass leaves them (the dccdebug build checks it).
func (ws *Workspace) spansAll(g *graph.Graph, tau int) bool {
	ok := ws.span(g, tau, true)
	debugCheckFilter(ws, g, tau, ok) // no-op unless built with -tags dccdebug
	return ok
}

// span is spansAll with the Horton pass's empty-image filter on or off.
func (ws *Workspace) span(g *graph.Graph, tau int, filter bool) bool {
	ws.reset(g)
	if ws.nu == 0 || tau < 3 {
		return ws.nu == 0
	}
	full := false
	g.ForEachTriangle(func(e1, e2, e3 int32) bool {
		t := [3]int32{e1, e2, e3}
		full = ws.add(t[:])
		return !full
	})
	if full || ws.retry() {
		return true
	}
	if tau > 3 {
		var labels []uint64
		if filter {
			labels = ws.labelClasses()
		}
		g.ForEachHortonCandidateWith(ws.s, tau, labels, func(_ graph.NodeID, length int, edges []int32) bool {
			if length > 3 {
				rank := ws.rank
				full = ws.add(edges)
				if labels != nil && ws.rank != rank {
					ws.relabel()
				}
			}
			return !full
		})
		if full || ws.retry() {
			return true
		}
	}
	return ws.residue()
}

// labelClasses gives each class other than zero's a bit of its own, labels
// the edges with them (relabel) and returns the labels, or nil when more
// than 64 such classes remain. Every root now was a root when the bits
// were handed out, since merges only retire roots, so the bits stay valid
// for the whole pass.
func (ws *Workspace) labelClasses() []uint64 {
	if ws.nu-ws.rank > 64 {
		return nil
	}
	n := ws.nu + 1
	if cap(ws.bit) < n {
		ws.bit = make([]uint64, n)
	}
	ws.bit = ws.bit[:n]
	next := uint(0)
	for c, p := range ws.uf[:ws.nu] {
		if p < 0 {
			ws.bit[c] = 1 << next
			next++
		}
	}
	ws.bit[ws.nu] = 0
	m := len(ws.cot)
	if cap(ws.labels) < m {
		ws.labels = make([]uint64, m)
	}
	ws.labels = ws.labels[:m]
	ws.relabel()
	return ws.labels
}

// relabel sets every edge's label to the bit of its co-tree coordinate's
// current class, 0 on the spanning forest.
func (ws *Workspace) relabel() {
	for e, c := range ws.cot {
		l := uint64(0)
		if c >= 0 {
			l = ws.bit[ws.find(c)]
		}
		ws.labels[e] = l
	}
}

// reset points ws at g: co-tree coordinates, every class a singleton,
// nothing deferred and an empty residue echelon.
func (ws *Workspace) reset(g *graph.Graph) {
	ws.g = g
	ws.certified = false
	m := g.NumEdges()
	if cap(ws.cot) < m {
		ws.cot = make([]int32, m)
	}
	ws.cot = ws.cot[:m]
	ws.nu = g.CoTreeInto(ws.s, ws.cot)
	n := ws.nu + 1
	if cap(ws.uf) < n {
		ws.uf, ws.par, ws.lab = make([]int32, n), make([]uint8, n), make([]int32, n)
	}
	ws.uf, ws.par, ws.lab = ws.uf[:n], ws.par[:n], ws.lab[:n]
	for i := range ws.uf {
		ws.uf[i], ws.lab[i] = -1, -1
	}
	ws.rank, ws.nlab = 0, 0
	ws.def = ws.def[:0]
	ws.ech.Reset(0)
}

// find returns the root of x's class, halving the path on the way.
func (ws *Workspace) find(x int32) int32 {
	uf := ws.uf
	for {
		p := uf[x]
		if p < 0 {
			return x
		}
		gp := uf[p]
		if gp < 0 {
			return p
		}
		uf[x] = gp
		x = gp
	}
}

// union merges the classes of the distinct roots a and b by size, except
// that zero's class keeps zero as its root.
func (ws *Workspace) union(a, b int32) {
	uf, zero := ws.uf, int32(ws.nu)
	if b == zero || (a != zero && uf[b] < uf[a]) {
		a, b = b, a
	}
	uf[a] += uf[b]
	uf[b] = a
	ws.rank++
}

// flip toggles the parity of c's class in the image under construction.
func (ws *Workspace) flip(c int32) {
	r := ws.find(c)
	ws.par[r] ^= 1
	if ws.par[r] == 1 {
		ws.img = append(ws.img, r)
	}
}

// image completes the image under construction: the roots flipped an odd
// number of times, zero's dropped. It clears the parities, and the slice
// it returns is valid until the next flip.
func (ws *Workspace) image() []int32 {
	zero := int32(ws.nu)
	out := ws.img[:0]
	for _, r := range ws.img {
		// A root flipped odd, even, odd appears twice; the first visit
		// clears its parity, so it is kept once.
		if ws.par[r] == 1 {
			ws.par[r] = 0
			if r != zero {
				out = append(out, r)
			}
		}
	}
	ws.img = out[:0]
	return out
}

// absorb adds a candidate with image img to the span: weight 0 is already
// spanned, weight 1 merges its class into zero's, weight 2 merges the two
// classes, and a heavier image is deferred. It reports a merge.
func (ws *Workspace) absorb(img []int32) bool {
	switch len(img) {
	case 0:
		return false
	case 1:
		ws.union(int32(ws.nu), img[0])
	case 2:
		ws.union(img[0], img[1])
	default:
		ws.def = append(ws.def, int32(len(img)))
		ws.def = append(ws.def, img...)
		return false
	}
	return true
}

// add inserts the cycle with the given edges and reports full rank.
func (ws *Workspace) add(edges []int32) bool {
	for _, e := range edges {
		if c := ws.cot[e]; c >= 0 {
			ws.flip(c)
		}
	}
	ws.absorb(ws.image())
	return ws.rank == ws.nu
}

// retry re-images the deferred candidates under the current classes, pass
// after pass until one merges nothing, and reports full rank. Entries
// still of weight ≥ 3 stay deferred, compacted in place: an image never
// outgrows the root list it is computed from. After a pass without a
// merge every stored root is current.
func (ws *Workspace) retry() bool {
	for merged := true; merged; {
		merged = false
		src := ws.def
		ws.def = ws.def[:0]
		for i := 0; i < len(src); {
			n := int(src[i])
			for _, r := range src[i+1 : i+1+n] {
				ws.flip(r)
			}
			i += 1 + n
			if ws.absorb(ws.image()) {
				merged = true
				if ws.rank == ws.nu {
					return true
				}
			}
		}
	}
	return false
}

// residue eliminates the deferred images in ws.ech over the ν − rank
// classes other than zero's, numbered as they are met, and reports full
// rank. The stored roots are current: retry ran last.
func (ws *Workspace) residue() bool {
	ech := ws.ech
	ech.Reset(ws.nu - ws.rank)
	v := ech.TakeScratch()
	for i := 0; i < len(ws.def); {
		n := int(ws.def[i])
		for _, r := range ws.def[i+1 : i+1+n] {
			v.Set(ws.label(r), true)
		}
		i += 1 + n
		if _, taken := ech.InsertOwned(v); taken {
			if ws.rank+ech.Rank() == ws.nu {
				return true
			}
			v = ech.TakeScratch()
		}
	}
	// A rejected scratch comes back zeroed by the reduction.
	ech.Recycle(v)
	return false
}

// label returns root r's column in the residue echelon.
func (ws *Workspace) label(r int32) int {
	if ws.lab[r] < 0 {
		ws.lab[r] = ws.nlab
		ws.nlab++
	}
	return int(ws.lab[r])
}

// UnspannedCycle returns the nodes, in cycle order, of a cycle of the
// graph SpannedByShortWS last tested on ws (its 2-core) that the cycles of
// length ≤ τ do not span, or nil when they span everything — always after
// a certified verdict. Call it only right after a SpannedByShortWS that
// returned false; the slice lives in ws until its next use.
//
// The cycle is the fundamental cycle, in the co-tree's spanning forest, of
// the first co-tree coordinate c whose unit vector lies outside the span:
// c's class is not zero's, and it either has no residue label or its
// label column is no pivot of the residue echelon. The span is the set of
// vectors whose class parities lie in the echelon's span, and the parity
// image of that unit vector is the unit vector of c's label column, which
// reduces to itself. Such a c exists whenever the rank is short of ν: if
// every class other than zero's had a label and every label were a pivot,
// the echelon's rank would cover all of them.
func (ws *Workspace) UnspannedCycle() []graph.NodeID {
	if ws.certified {
		return nil
	}
	zero := int32(ws.nu)
	for e, c := range ws.cot {
		if c < 0 {
			continue
		}
		r := ws.find(c)
		if r == zero || (ws.lab[r] >= 0 && ws.ech.IsPivot(int(ws.lab[r]))) {
			continue
		}
		ws.cyc = ws.cyc[:0]
		for _, i := range ws.g.FundamentalCycleInto(ws.s, ws.cot, e) {
			ws.cyc = append(ws.cyc, ws.g.NodeAt(int(i)))
		}
		return ws.cyc
	}
	return nil
}

// contains reports whether target is a sum of cycles of length ≤ tau in g.
// A target with an odd-degree vertex is no cycle-space element. Otherwise
// it is in the span when its image is zero or lies in the span of the
// residue echelon; at full rank it always is.
func (ws *Workspace) contains(g *graph.Graph, target bitvec.Vector, tau int) bool {
	if target.Len() != g.NumEdges() {
		panic(fmt.Sprintf("cycles: target of length %d on a graph with %d edges", target.Len(), g.NumEdges()))
	}
	edges := target.Indices()
	if !evenDegrees(g, edges) {
		return false
	}
	if tau < 3 {
		return len(edges) == 0
	}
	if ws.spansAll(g, tau) {
		return true
	}
	for _, e := range edges {
		if c := ws.cot[e]; c >= 0 {
			ws.flip(c)
		}
	}
	img := ws.image()
	if len(img) == 0 {
		return true
	}
	v := bitvec.New(ws.ech.Len())
	for _, r := range img {
		v.Set(ws.label(r), true)
	}
	return ws.ech.Spans(v)
}

// evenDegrees reports whether every vertex of g meets an even number of the
// given edges, i.e. whether they form a cycle-space element.
func evenDegrees(g *graph.Graph, edges []int) bool {
	odd := make([]bool, g.NumNodes())
	for _, e := range edges {
		ed := g.EdgeAt(e)
		u, _ := g.IndexOf(ed.U)
		v, _ := g.IndexOf(ed.V)
		odd[u], odd[v] = !odd[u], !odd[v]
	}
	for _, o := range odd {
		if o {
			return false
		}
	}
	return true
}
