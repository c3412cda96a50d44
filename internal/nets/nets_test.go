package nets

import (
	"testing"

	"dcc/internal/cycles"
	"dcc/internal/graph"
)

// TestMobiusSeparatesCriteria reproduces the heart of the paper's Figure 1:
// the möbius-band network is correctly certified by the cycle-partition
// criterion (the outer boundary is 3-partitionable) while the
// homology-group criterion fails (H1 is non-trivial, same homology type as
// a circle).
func TestMobiusSeparatesCriteria(t *testing.T) {
	g, boundary := Mobius()

	if g.NumNodes() != 12 {
		t.Fatalf("nodes = %d, want 12", g.NumNodes())
	}
	if g.NumEdges() != 28 {
		t.Fatalf("edges = %d, want 28", g.NumEdges())
	}
	var tris []cycles.Cycle
	g.ForEachTriangle(func(e1, e2, e3 int32) bool {
		tris = append(tris, cycles.NewCycle([]int{int(e1), int(e2), int(e3)}))
		return true
	})
	if len(tris) != 16 {
		t.Fatalf("triangles = %d, want 16", len(tris))
	}

	// Homology criterion: H1 has the homology type of a circle.
	if got := cycles.Corank(g, 3); got != 1 {
		t.Fatalf("H1 rank = %d, want 1 (möbius core circle)", got)
	}

	// Cycle-partition criterion: outer boundary is the sum of all triangles.
	outer, err := cycles.FromVertices(g, boundary)
	if err != nil {
		t.Fatal(err)
	}
	if !cycles.Sum(g.NumEdges(), tris...).Equal(outer.Vector(g.NumEdges())) {
		t.Fatal("outer boundary is not the sum of all triangles")
	}
	if !cycles.Partitionable(g, outer.Vector(g.NumEdges()), 3) {
		t.Fatal("outer boundary not 3-partitionable")
	}

	// The homology criterion fails even RELATIVE to the outer fence: the
	// core circle is not null-homologous.
	if got := cycles.Corank(g.Cone([][]graph.NodeID{boundary}), 3); got != 1 {
		t.Fatalf("relative H1 rank = %d, want 1 for the möbius band", got)
	}
}
