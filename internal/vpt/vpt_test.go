package vpt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dcc/internal/bitvec"
	"dcc/internal/cycles"
	"dcc/internal/graph"
)

func TestRadii(t *testing.T) {
	tests := []struct {
		tau, k, m int
	}{
		{3, 2, 3},
		{4, 2, 3},
		{5, 3, 4},
		{6, 3, 4},
		{7, 4, 5},
		{9, 5, 6},
	}
	for _, tt := range tests {
		if got := NeighborhoodRadius(tt.tau); got != tt.k {
			t.Fatalf("NeighborhoodRadius(%d) = %d, want %d", tt.tau, got, tt.k)
		}
		if got := IndependenceRadius(tt.tau); got != tt.m {
			t.Fatalf("IndependenceRadius(%d) = %d, want %d", tt.tau, got, tt.m)
		}
	}
}

func TestVertexDeletableTriangulatedGrid(t *testing.T) {
	// Deleting an interior vertex of a minimally triangulated grid leaves
	// a hexagonal void (the ring of its six neighbours), so the vertex is
	// NOT 3-deletable — the triangulated grid is already non-redundant for
	// τ=3 — but it IS 6-deletable.
	g := graph.TriangulatedGrid(5, 5)
	center := graph.NodeID(12) // row 2, col 2
	if VertexDeletable(g, center, 3) {
		t.Fatal("interior vertex of minimal triangulation reported 3-deletable")
	}
	if !VertexDeletable(g, center, 6) {
		t.Fatal("interior vertex not 6-deletable despite hexagonal void")
	}
}

func TestVertexDeletableRedundantNode(t *testing.T) {
	// K5 is heavily over-provisioned: any vertex's neighbourhood is K4 —
	// connected and triangle-spanned — so every vertex is 3-deletable.
	g := graph.Complete(5)
	for _, v := range g.Nodes() {
		if !VertexDeletable(g, v, 3) {
			t.Fatalf("K5 vertex %d not 3-deletable", v)
		}
	}
	// An apex stacked over one triangle of a triangulated grid is
	// redundant: its deletion leaves the (still filled) triangle.
	b := graph.NewBuilder()
	tg := graph.TriangulatedGrid(4, 4)
	for _, e := range tg.Edges() {
		b.AddEdge(e.U, e.V)
	}
	apex := graph.NodeID(100)
	b.AddEdge(apex, 0)
	b.AddEdge(apex, 1)
	b.AddEdge(apex, 5) // triangle 0-1-5 is a face of the triangulated grid
	g2 := b.MustBuild()
	if !VertexDeletable(g2, apex, 3) {
		t.Fatal("apex over a filled triangle not 3-deletable")
	}
}

func TestVertexNotDeletableOnPlainGrid(t *testing.T) {
	// A plain grid has 4-cycles only; τ=3 must refuse every deletion
	// whose neighbourhood contains a 4-cycle it cannot partition.
	g := graph.Grid(5, 5)
	center := graph.NodeID(12)
	if VertexDeletable(g, center, 3) {
		t.Fatal("grid interior vertex reported 3-deletable")
	}
	// With τ=4 the 2-hop neighbourhood's cycles are squares → deletable
	// only if the neighbourhood graph stays connected and 4-spanned.
	// The 2-hop neighbourhood of the grid centre (minus the centre) is
	// connected; check the decision agrees with first principles.
	k := NeighborhoodRadius(4)
	nb := g.InducedSubgraph(g.KHopNeighbors(center, k))
	want := nb.IsConnected() && cycles.SpannedByShort(nb, 4)
	if got := VertexDeletable(g, center, 4); got != want {
		t.Fatalf("VertexDeletable(grid,4) = %v, want %v", got, want)
	}
}

func TestVertexDeletableDisconnectedNeighborhood(t *testing.T) {
	// Star: the centre's neighbourhood (leaves) is totally disconnected.
	b := graph.NewBuilder()
	for i := 1; i <= 4; i++ {
		b.AddEdge(0, graph.NodeID(i))
	}
	g := b.MustBuild()
	if VertexDeletable(g, 0, 3) {
		t.Fatal("star centre with disconnected neighbourhood reported deletable")
	}
	// A leaf lies on no cycle at all: its void is unconfined, so it must
	// be kept (the criterion is blind to the area it covers).
	if VertexDeletable(g, 1, 3) {
		t.Fatal("star leaf reported deletable despite unconfined void")
	}
}

func TestUnconfinedVoidsNotDeletable(t *testing.T) {
	// Isolated vertex: nothing confines its void.
	g, err := graph.FromEdges([]graph.Edge{{U: 0, V: 1}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if VertexDeletable(g, 7, 3) {
		t.Fatal("isolated vertex reported deletable")
	}
	// Path interior vertex: connected, acyclic neighbourhood — still not
	// deletable, because no cycle would patch the hole.
	p := graph.Path(7)
	if VertexDeletable(p, 3, 4) {
		t.Fatal("path vertex reported deletable despite unconfined void")
	}
	// The same vertex inside a long cycle IS on a cycle, but only
	// deletable once τ reaches the cycle length... and even then the
	// remaining path must re-close it, which a bare cycle cannot: deleting
	// any C6 vertex leaves a path. τ=6: the void cycle is the C6 itself —
	// neighbours are joined by a 4-hop path (≤ τ−2), the neighbourhood is
	// connected and acyclic (spanned) → deletable.
	c := graph.Cycle(6)
	if VertexDeletable(c, 0, 5) {
		t.Fatal("C6 vertex deletable at τ=5 (cycle longer than τ)")
	}
	if !VertexDeletable(c, 0, 6) {
		t.Fatal("C6 vertex not deletable at τ=6")
	}
}

func TestTauBelowThree(t *testing.T) {
	g := graph.Complete(4)
	if VertexDeletable(g, 0, 2) {
		t.Fatal("τ<3 must never allow deletion")
	}
	if EdgeDeletable(g, 0, 1, 2) {
		t.Fatal("τ<3 must never allow edge deletion")
	}
}

func TestEdgeDeletable(t *testing.T) {
	// K4: deleting one edge leaves cycles of length ≤ 3? K4 minus {0,1}
	// still has triangles 0-2-3 and 1-2-3; the neighbourhood graph is K4
	// minus the edge, connected, and its cycle space is spanned by the two
	// remaining triangles → deletable at τ=3.
	g := graph.Complete(4)
	if !EdgeDeletable(g, 0, 1, 3) {
		t.Fatal("K4 edge not 3-deletable")
	}
	// C4: removing any edge of a bare 4-cycle leaves a path (no cycles),
	// connected → deletable at τ=4.
	c4 := graph.Cycle(4)
	if !EdgeDeletable(c4, 0, 1, 4) {
		t.Fatal("C4 edge not 4-deletable")
	}
	// Missing edge.
	if EdgeDeletable(g, 0, 99, 3) {
		t.Fatal("absent edge reported deletable")
	}
}

// TestDeletionPreservesPartitionability is the property at the heart of
// Theorem 5, checked empirically on random triangulated-grid-like graphs:
// if the outer boundary is τ-partitionable and an internal vertex passes
// the VPT test, the boundary remains τ-partitionable after deletion.
func TestDeletionPreservesPartitionability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 4+rng.Intn(3), 4+rng.Intn(3)
		g := graph.TriangulatedGrid(rows, cols)
		tau := 3 + rng.Intn(3)

		boundarySet, target := gridBoundary(g, rows, cols)
		if !cycles.Partitionable(g, target, tau) {
			return true // precondition not met; skip
		}
		// Try a few random internal vertices.
		internals := internalNodes(g, boundarySet)
		if len(internals) == 0 {
			return true
		}
		for trial := 0; trial < 3; trial++ {
			v := internals[rng.Intn(len(internals))]
			if !VertexDeletable(g, v, tau) {
				continue
			}
			g2 := g.DeleteVertices([]graph.NodeID{v})
			target2 := remapTarget(g, g2, target)
			if !cycles.Partitionable(g2, target2, tau) {
				return false
			}
			g = g2
			target = target2
			internals = internalNodes(g, boundarySet)
			if len(internals) == 0 {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// gridBoundary returns the boundary node set and the perimeter incidence
// vector of a rows×cols (triangulated) grid.
func gridBoundary(g *graph.Graph, rows, cols int) (map[graph.NodeID]bool, bitvec.Vector) {
	set := make(map[graph.NodeID]bool)
	var order []graph.NodeID
	for c := 0; c < cols; c++ {
		order = append(order, graph.NodeID(c))
	}
	for r := 1; r < rows; r++ {
		order = append(order, graph.NodeID(r*cols+cols-1))
	}
	for c := cols - 2; c >= 0; c-- {
		order = append(order, graph.NodeID((rows-1)*cols+c))
	}
	for r := rows - 2; r >= 1; r-- {
		order = append(order, graph.NodeID(r*cols))
	}
	for _, v := range order {
		set[v] = true
	}
	cyc, err := cycles.FromVertices(g, order)
	if err != nil {
		panic(err)
	}
	return set, cyc.Vector(g.NumEdges())
}

func internalNodes(g *graph.Graph, boundary map[graph.NodeID]bool) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range g.Nodes() {
		if !boundary[v] {
			out = append(out, v)
		}
	}
	return out
}

// remapTarget re-expresses an edge-incidence vector of g over g2's edge
// indexing (all referenced edges must survive in g2).
func remapTarget(g, g2 *graph.Graph, target bitvec.Vector) bitvec.Vector {
	out := bitvec.New(g2.NumEdges())
	for _, ei := range target.Indices() {
		e := g.EdgeAt(ei)
		j, ok := g2.EdgeIndex(e.U, e.V)
		if !ok {
			panic("remapTarget: target edge missing from reduced graph")
		}
		out.Set(j, true)
	}
	return out
}

func BenchmarkVertexDeletableTau3(b *testing.B) {
	g := graph.TriangulatedGrid(12, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VertexDeletable(g, 78, 3)
	}
}

func BenchmarkVertexDeletableTau6(b *testing.B) {
	g := graph.TriangulatedGrid(12, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VertexDeletable(g, 78, 6)
	}
}
