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
