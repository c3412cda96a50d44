package cycles

import (
	"math/rand"
	"testing"

	"dcc/internal/bitvec"
	"dcc/internal/geom"
	"dcc/internal/graph"
)

// udgPatch returns a unit-disk graph of n uniform points in a 10×10
// square, with the radius chosen for the given average degree.
func udgPatch(r *rand.Rand, n int, degree float64) *graph.Graph {
	pts := geom.UniformPoints(r, n, geom.Square(10))
	return geom.UDG(pts, geom.RcForAvgDegree(n, 100, degree))
}

// xorTarget returns the GF(2) sum of k Horton candidates of g picked at
// random, or the zero vector when g has none.
func xorTarget(r *rand.Rand, g *graph.Graph, cands []Cycle, k int) bitvec.Vector {
	v := bitvec.New(g.NumEdges())
	for i := 0; i < k && len(cands) > 0; i++ {
		v.Xor(cands[r.Intn(len(cands))].Vector(g.NumEdges()))
	}
	return v
}

// TestSpanMatchesDenseReference pins the co-tree engine to the m-bit
// elimination it replaced: on unit-disk patches and random connected
// graphs, for τ = 2…9, SpannedByShort and Partitionable answer exactly as
// the reference does, for targets that are sums of 1–4 Horton candidates
// of any length, the zero vector and a random edge set.
func TestSpanMatchesDenseReference(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	var graphs []*graph.Graph
	for _, n := range []int{8, 15, 30, 60, 120} {
		for _, deg := range []float64{4, 8, 14} {
			graphs = append(graphs, udgPatch(r, n, deg), udgPatch(r, n, deg))
		}
	}
	for i := 0; i < 12; i++ {
		graphs = append(graphs, randomConnected(r, 6+r.Intn(14), 0.1+0.3*r.Float64()))
	}
	ws := NewWorkspace()
	ech, s := bitvec.NewEchelon(0), graph.NewScratch(nil)
	verdicts, targets, residues := 0, 0, 0
	for gi, g := range graphs {
		cands := Candidates(g, -1)
		m := g.NumEdges()
		for tau := 2; tau <= 9; tau++ {
			got := SpannedByShortWS(g, tau, ws)
			if ws.ech.Rank() > 0 {
				residues++
			}
			if want := referenceSpan(g, tau, ech, s); got != want || SpannedByShort(g, tau) != want {
				t.Fatalf("graph %d (n=%d m=%d) tau=%d: SpannedByShort = %v, reference %v", gi, g.NumNodes(), m, tau, got, want)
			}
			verdicts++
			random := bitvec.New(m)
			for e := 0; e < m; e++ {
				random.Set(e, r.Intn(2) == 1)
			}
			for _, target := range []bitvec.Vector{
				xorTarget(r, g, cands, 1), xorTarget(r, g, cands, 2),
				xorTarget(r, g, cands, 3), xorTarget(r, g, cands, 4),
				bitvec.New(m), random,
			} {
				if got, want := Partitionable(g, target, tau), referencePartitionable(g, target, tau); got != want {
					t.Fatalf("graph %d (n=%d m=%d) tau=%d target %v: Partitionable = %v, reference %v",
						gi, g.NumNodes(), m, tau, target.Indices(), got, want)
				}
				targets++
			}
		}
	}
	if residues == 0 {
		t.Fatal("no verdict reached the residue echelon; the sweep does not exercise it")
	}
	t.Logf("%d span verdicts (%d through the residue echelon) and %d targets agree", verdicts, residues, targets)
}

// TestSpanAllocs pins the allocation-free span test: a warm Workspace
// decides unit-disk balls at τ = 3…6 without allocating, including a
// verdict that eliminates deferred candidates in the residue echelon.
func TestSpanAllocs(t *testing.T) {
	var balls []*graph.Graph
	for _, c := range []struct {
		seed   int64
		n      int
		degree float64
	}{{15, 40, 6}, {1, 75, 14}, {2, 120, 10}} {
		balls = append(balls, udgPatch(rand.New(rand.NewSource(c.seed)), c.n, c.degree))
	}
	ws := NewWorkspace()
	residues := 0
	sweep := func() {
		residues = 0
		for _, g := range balls {
			for tau := 3; tau <= 6; tau++ {
				SpannedByShortWS(g, tau, ws)
				if ws.ech.Rank() > 0 {
					residues++
				}
			}
		}
	}
	sweep() // warm every buffer to the largest ball
	if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 {
		t.Errorf("a warm sweep made %.0f allocations, want 0", allocs)
	}
	if residues == 0 {
		t.Fatal("no verdict reached the residue echelon; the sweep does not cover that path")
	}
}

func TestPartitionableRejectsWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a target of the wrong length was accepted")
		}
	}()
	g := graph.Cycle(5)
	Partitionable(g, bitvec.New(g.NumEdges()+1), 5)
}

// TestResidueEchelon drives the quotient engine by hand on a graph with
// ν = 4: the four weight-3 images over the four singleton classes make no
// union-find merge, and only the residue echelon sees that they are
// independent (the 4×4 matrix J − I is invertible over GF(2)), while
// three of them span a weight-2 combination but not the fourth.
func TestResidueEchelon(t *testing.T) {
	g := graph.Grid(3, 3)
	ws := NewWorkspace()
	images := [][]int32{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}
	for _, k := range []int{3, 4} {
		ws.reset(g)
		if ws.nu != 4 {
			t.Fatalf("grid 3×3: ν = %d, want 4", ws.nu)
		}
		for _, img := range images[:k] {
			ws.absorb(append([]int32(nil), img...))
		}
		if ws.retry() {
			t.Fatalf("k=%d: retry reported full rank without a merge", k)
		}
		if got, want := ws.residue(), k == 4; got != want || ws.ech.Rank() != k {
			t.Fatalf("k=%d: residue full = %v with rank %d, want %v with rank %d", k, got, ws.ech.Rank(), want, k)
		}
	}
	// With three rows, {2, 3} = {0,1,2} + {0,1,3} is spanned and {1,2,3}
	// is not.
	ws.reset(g)
	for _, img := range images[:3] {
		ws.absorb(append([]int32(nil), img...))
	}
	ws.residue()
	for _, c := range []struct {
		img  []int32
		want bool
	}{{[]int32{2, 3}, true}, {[]int32{1, 2, 3}, false}} {
		v := bitvec.New(ws.ech.Len())
		for _, r := range c.img {
			v.Set(ws.label(r), true)
		}
		if got := ws.ech.Spans(v); got != c.want {
			t.Fatalf("image %v: spanned = %v, want %v", c.img, got, c.want)
		}
	}
}

// TestUnspannedCycle checks the witness cycle of a failed span: on the
// graphs of TestSpanMatchesDenseReference, for τ = 3…9, every "not
// spanned" verdict yields a simple cycle of the graph that the m-bit
// reference finds outside the span of the cycles of length ≤ τ, and a
// spanned verdict yields none.
func TestUnspannedCycle(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	var graphs []*graph.Graph
	for _, n := range []int{8, 15, 30, 60, 120} {
		for _, deg := range []float64{4, 8, 14} {
			graphs = append(graphs, udgPatch(r, n, deg), udgPatch(r, n, deg))
		}
	}
	for i := 0; i < 12; i++ {
		graphs = append(graphs, randomConnected(r, 6+r.Intn(14), 0.1+0.3*r.Float64()))
	}
	ws := NewWorkspace()
	unspanned, residues := 0, 0
	for gi, g := range graphs {
		for tau := 3; tau <= 9; tau++ {
			if SpannedByShortWS(g, tau, ws) {
				if cyc := ws.UnspannedCycle(); cyc != nil {
					t.Fatalf("graph %d tau=%d: spanned, yet UnspannedCycle = %v", gi, tau, cyc)
				}
				continue
			}
			unspanned++
			if ws.ech.Rank() > 0 {
				residues++
			}
			verts := append([]graph.NodeID(nil), ws.UnspannedCycle()...)
			c, err := FromVertices(g, verts)
			if err != nil {
				t.Fatalf("graph %d tau=%d: UnspannedCycle %v is no cycle: %v", gi, tau, verts, err)
			}
			if _, err := VertexOrder(g, c); err != nil {
				t.Fatalf("graph %d tau=%d: UnspannedCycle %v is not simple: %v", gi, tau, verts, err)
			}
			if referencePartitionable(g, c.Vector(g.NumEdges()), tau) {
				t.Fatalf("graph %d tau=%d: UnspannedCycle %v is spanned by cycles of length ≤ %d", gi, tau, verts, tau)
			}
		}
	}
	if unspanned == 0 || residues == 0 {
		t.Fatalf("%d unspanned verdicts, %d with a residue echelon: the sweep misses a path", unspanned, residues)
	}
	t.Logf("%d unspanned verdicts (%d with a residue echelon) yield unspanned cycles", unspanned, residues)
}

// TestCertifiedVerdictState checks what a certified verdict leaves in the
// Workspace: after a refutation that reached the residue echelon, a
// verdict the fan certificate decides reports Certified, an empty residue
// echelon and no unspanned cycle, so nothing of the refuting run reads as
// its state; the next verdict the engine decides reports it did.
func TestCertifiedVerdictState(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	ws := NewWorkspace()
	var refuted *graph.Graph
	refutedTau := 0
	for i := 0; i < 40 && refuted == nil; i++ {
		g := udgPatch(r, 60, 8)
		for tau := 3; tau <= 6; tau++ {
			if !SpannedByShortWS(g, tau, ws) && ws.ech.Rank() > 0 {
				refuted, refutedTau = g, tau
				break
			}
		}
	}
	if refuted == nil {
		t.Fatal("no refutation reached the residue echelon; the test has nothing to clear")
	}
	if ws.Certified() || ws.UnspannedCycle() == nil {
		t.Fatal("a refutation reads as certified or has no unspanned cycle")
	}
	if !SpannedByShortWS(graph.TriangulatedGrid(6, 6), 3, ws) || !ws.Certified() {
		t.Fatal("the triangulated grid at tau=3 is not certified")
	}
	if rank, cyc := ws.ech.Rank(), ws.UnspannedCycle(); rank != 0 || cyc != nil {
		t.Fatalf("after a certified verdict: residue rank %d, UnspannedCycle %v; want 0 and nil", rank, cyc)
	}
	if SpannedByShortWS(refuted, refutedTau, ws) || ws.Certified() {
		t.Fatal("the refuted graph again: spanned, or reported as certified")
	}
}

// TestUnspannedCycleResidueColumn drives the other witness branch by hand:
// on the 3×3 grid (ν = 4) three weight-3 images label all four classes in
// the residue echelon at rank 3, so the witness must come from the label
// column that is no pivot, and its image must lie outside the echelon's
// span.
func TestUnspannedCycleResidueColumn(t *testing.T) {
	g := graph.Grid(3, 3)
	ws := NewWorkspace()
	ws.reset(g)
	for _, img := range [][]int32{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}} {
		ws.absorb(append([]int32(nil), img...))
	}
	if ws.retry() || ws.residue() || ws.nlab != 4 {
		t.Fatalf("three images: full rank or %d labels, want rank 3 over 4 labels", ws.nlab)
	}
	verts := append([]graph.NodeID(nil), ws.UnspannedCycle()...)
	c, err := FromVertices(g, verts)
	if err != nil {
		t.Fatalf("UnspannedCycle %v is no cycle: %v", verts, err)
	}
	v := bitvec.New(ws.ech.Len())
	for _, e := range c.EdgeIndices() {
		if co := ws.cot[e]; co >= 0 {
			v.Flip(ws.label(ws.find(co)))
		}
	}
	if ws.ech.Spans(v) {
		t.Fatalf("UnspannedCycle %v lies in the residue span", verts)
	}
}
