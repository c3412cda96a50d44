package graph

import "testing"

// TestFanCertified pins the fan certificate on graphs whose short-cycle
// span is known. Triangles decide the triangulated grid and K_n at τ = 3.
// The grid has no triangle, so τ = 3 is declined, and τ = 4 needs the link
// step: each vertex's two earlier neighbours are two hops apart. The last
// vertex of the 8-cycle has two earlier neighbours that only a 6-hop path
// joins, exactly τ − 2 at τ = 8, so τ = 7 is declined. A tree has no
// cycle to span, and a graph of several components is certified
// component by component.
func TestFanCertified(t *testing.T) {
	twoComponents := NewBuilder()
	for _, e := range TriangulatedGrid(3, 4).Edges() {
		twoComponents.AddEdge(e.U, e.V)
		twoComponents.AddEdge(e.U+100, e.V+100)
	}
	// Links found in turn: breadth-first from r = 0, the depth-1 vertices
	// are x = 1, a = 2 and b = 3; x discovers c = 4 and y = 5, and a
	// discovers v = 6 last. The earlier neighbours of v are a, b and c,
	// pairwise non-adjacent: b is two hops from a (through r), c is three
	// hops from a but two from b (through y). So the search from a meets b
	// first, and only the search from {a, b} meets c.
	inTurn, err := FromEdges([]Edge{
		{0, 1}, {0, 2}, {0, 3}, {1, 4}, {1, 5}, {3, 5}, {4, 5}, {2, 6}, {3, 6}, {4, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch(nil)
	for _, c := range []struct {
		name string
		g    *Graph
		tau  int
		want bool
	}{
		{"triangulated-grid", TriangulatedGrid(6, 7), 3, true},
		{"complete", Complete(9), 3, true},
		{"grid", Grid(4, 5), 3, false},
		{"grid", Grid(4, 5), 4, true},
		{"cycle-8", Cycle(8), 3, false},
		{"cycle-8", Cycle(8), 7, false},
		{"cycle-8", Cycle(8), 8, true},
		{"links-in-turn", inTurn, 3, false},
		{"links-in-turn", inTurn, 6, true},
		{"path", Path(12), 3, true},
		{"empty", NewBuilder().MustBuild(), 3, true},
		{"two-components", twoComponents.MustBuild(), 3, true},
		{"tau-2", Complete(4), 2, false},
		{"above-limit", Path(fanMaxOrder + 1), 3, false},
	} {
		if got := c.g.FanCertified(s, c.tau); got != c.want {
			t.Errorf("%s (n=%d), tau=%d: FanCertified = %v, want %v", c.name, c.g.NumNodes(), c.tau, got, c.want)
		}
	}
}
