// Package simplicial holds tests only. They pin the facts about the Rips
// 2-complex of a graph that the homology baseline (internal/hgc) rests on
// to the code that computes them: the complex's triangles are the graph's
// 3-cliques, as graph.ForEachTriangle enumerates them, and over GF(2) the
// rank of its H1 is cycles.Corank(g, 3), which is 0 exactly when
// cycles.SpannedByShort(g, 3) holds.
package simplicial

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dcc/internal/bitvec"
	"dcc/internal/cycles"
	"dcc/internal/graph"
)

// numTriangles counts the triangles of g's Rips complex.
func numTriangles(g *graph.Graph) int {
	n := 0
	g.ForEachTriangle(func(_, _, _ int32) bool {
		n++
		return true
	})
	return n
}

func TestRipsTriangleCount(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"triangle", graph.Complete(3), 1},
		{"K4", graph.Complete(4), 4},
		{"K5", graph.Complete(5), 10},
		{"C6", graph.Cycle(6), 0},
		{"grid", graph.Grid(3, 3), 0},
		{"triangulated grid 2x2", graph.TriangulatedGrid(2, 2), 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := numTriangles(tt.g); got != tt.want {
				t.Fatalf("triangles = %d, want %d", got, tt.want)
			}
		})
	}
}

// TestRipsTrianglesAreCliquesAndUnique checks each reported edge triple
// against the vertex triple it spans, and the count against a brute-force
// scan of all vertex triples.
func TestRipsTrianglesAreCliquesAndUnique(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder()
		n := 15
		for i := 0; i < n; i++ {
			b.AddNode(graph.NodeID(i))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.35 {
					b.AddEdge(graph.NodeID(i), graph.NodeID(j))
				}
			}
		}
		g := b.MustBuild()
		seen := make(map[[3]graph.NodeID]bool)
		ok := true
		g.ForEachTriangle(func(e1, e2, e3 int32) bool {
			var ends []graph.NodeID
			for _, e := range []int32{e1, e2, e3} {
				ed := g.EdgeAt(int(e))
				ends = append(ends, ed.U, ed.V)
			}
			// Three edges close a triangle exactly when their endpoints
			// are three vertices, each on two of them.
			slices.Sort(ends)
			tri := [3]graph.NodeID{ends[0], ends[2], ends[4]}
			if ends[1] != tri[0] || ends[3] != tri[1] || ends[5] != tri[2] ||
				!(tri[0] < tri[1] && tri[1] < tri[2]) || seen[tri] {
				ok = false
				return false
			}
			seen[tri] = true
			return true
		})
		if !ok {
			return false
		}
		// Independent brute-force count.
		count := 0
		nodes := g.Nodes()
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				for l := j + 1; l < len(nodes); l++ {
					if g.HasEdge(nodes[i], nodes[j]) && g.HasEdge(nodes[j], nodes[l]) && g.HasEdge(nodes[i], nodes[l]) {
						count++
					}
				}
			}
		}
		return count == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestH1RankKnownComplexes(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"filled triangle", graph.Complete(3), 0},
		{"hollow hexagon", graph.Cycle(6), 1},
		{"hollow grid", graph.Grid(4, 4), 9},
		{"filled disk (triangulated grid)", graph.TriangulatedGrid(4, 4), 0},
		{"K5 full Rips", graph.Complete(5), 0},
		{"two hollow squares", mustGraph(t, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0},
			{U: 10, V: 11}, {U: 11, V: 12}, {U: 12, V: 13}, {U: 13, V: 10},
		}), 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := cycles.Corank(tt.g, 3); got != tt.want {
				t.Fatalf("H1 rank = %d, want %d", got, tt.want)
			}
			if want := tt.want == 0; cycles.SpannedByShort(tt.g, 3) != want {
				t.Fatalf("H1 triviality inconsistent with rank")
			}
		})
	}
}

func mustGraph(t *testing.T, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBoundarySpans: a cycle is a sum of triangle boundaries exactly when
// it is partitionable into cycles of length ≤ 3.
func TestBoundarySpans(t *testing.T) {
	verts := []graph.NodeID{0, 1, 2, 5, 8, 7, 6, 3}
	// Perimeter of the grid: null-homologous in the filled disk.
	g := graph.TriangulatedGrid(3, 3)
	if !cycles.Partitionable(g, cycleVector(t, g, verts), 3) {
		t.Fatal("perimeter of a filled disk should be a boundary")
	}
	// In the hollow grid it is not.
	hollow := graph.Grid(3, 3)
	if cycles.Partitionable(hollow, cycleVector(t, hollow, verts), 3) {
		t.Fatal("perimeter of a hollow grid reported null-homologous")
	}
}

func cycleVector(t *testing.T, g *graph.Graph, verts []graph.NodeID) bitvec.Vector {
	t.Helper()
	v := bitvec.New(g.NumEdges())
	for i := range verts {
		e, ok := g.EdgeIndex(verts[i], verts[(i+1)%len(verts)])
		if !ok {
			t.Fatalf("edge {%d,%d} missing", verts[i], verts[(i+1)%len(verts)])
		}
		v.Set(e, true)
	}
	return v
}

// TestDeleteVertices: deleting a vertex removes the triangles on it and
// leaves the receiver's complex untouched.
func TestDeleteVertices(t *testing.T) {
	g := graph.Complete(4)
	g2 := g.DeleteVertices([]graph.NodeID{3})
	if g2.NumNodes() != 3 {
		t.Fatal("vertex not deleted from 1-skeleton")
	}
	if got := numTriangles(g2); got != 1 {
		t.Fatalf("triangles = %d, want 1", got)
	}
	if numTriangles(g) != 4 {
		t.Fatal("DeleteVertices mutated receiver")
	}
}

func TestEulerConsistency(t *testing.T) {
	// For a 2-complex, over GF(2): χ = n − m + t = dim H0 − dim H1 + dim H2.
	// A filled disk has H2 = 0 and one component, so χ = 1 − dim H1.
	g := graph.TriangulatedGrid(5, 5)
	chi := g.NumNodes() - g.NumEdges() + numTriangles(g)
	if want := 1 - cycles.Corank(g, 3); chi != want {
		t.Fatalf("Euler characteristic %d, want %d", chi, want)
	}
}
