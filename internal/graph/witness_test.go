package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// sparseRandomGraph is randomGraph with node IDs spread over a range much
// wider than n, so dense indices and IDs differ.
func sparseRandomGraph(r *rand.Rand, n int, p float64) *Graph {
	ids := r.Perm(20 * n)[:n]
	b := NewBuilder()
	for _, id := range ids {
		b.AddNode(NodeID(id))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				b.AddEdge(NodeID(ids[i]), NodeID(ids[j]))
			}
		}
	}
	return b.MustBuild()
}

// mergeTriangles is the triangle enumeration ForEachTriangle replaced:
// every edge in index order, both adjacency lists merged from the start,
// common neighbours at or below the edge's V endpoint discarded.
func mergeTriangles(g *Graph) [][3]int32 {
	var out [][3]int32
	for ei := range g.edges {
		ui, vi := g.edgeU[ei], g.edgeV[ei]
		au, av := g.adj[ui], g.adj[vi]
		aeu, aev := g.adjEdge[ui], g.adjEdge[vi]
		a, b := 0, 0
		for a < len(au) && b < len(av) {
			switch {
			case au[a] < av[b]:
				a++
			case au[a] > av[b]:
				b++
			default:
				if au[a] > vi {
					out = append(out, [3]int32{int32(ei), aeu[a], aev[b]})
				}
				a++
				b++
			}
		}
	}
	return out
}

// TestForEachTriangleMatchesMerge pins the triangle sequence: starting both
// merges above the edge's V endpoint must report exactly the triples, in
// exactly the order, of the full merge — the short-cycle span inserts them
// in this order, so any change would move its verdict path.
func TestForEachTriangleMatchesMerge(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		g := sparseRandomGraph(r, 3+r.Intn(40), 0.05+r.Float64()*0.5)
		var got [][3]int32
		g.ForEachTriangle(func(e1, e2, e3 int32) bool {
			got = append(got, [3]int32{e1, e2, e3})
			return true
		})
		if want := mergeTriangles(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: triangles %v, full merge %v", trial, got, want)
		}
	}
	// Early stop after the first triangle.
	calls := 0
	Complete(5).ForEachTriangle(func(e1, e2, e3 int32) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("ForEachTriangle kept going after fn returned false: %d calls", calls)
	}
}

func TestSeparatedTerminal(t *testing.T) {
	s := NewScratch(nil)
	// Components {10, 11, 12} and {20, 21}.
	g, _ := FromEdges([]Edge{{10, 11}, {11, 12}, {20, 21}})
	if b, found, connected := g.SeparatedTerminal(s, []NodeID{11, 12, 21, 20}); connected || !found || b != 21 {
		t.Fatalf("SeparatedTerminal = (%d, %v, %v), want (21, true, false)", b, found, connected)
	}
	// Disconnected, but every terminal sits in the flood's component.
	if _, found, connected := g.SeparatedTerminal(s, []NodeID{10, 12}); connected || found {
		t.Fatalf("SeparatedTerminal found a separated terminal in one component (connected=%v)", connected)
	}
	if _, found, connected := Cycle(5).SeparatedTerminal(s, []NodeID{3, 0}); !connected || found {
		t.Fatal("SeparatedTerminal on a cycle: want connected, nothing found")
	}
	// Without a first terminal in g the flood starts at index 0 and names
	// no pair.
	for _, terminals := range [][]NodeID{nil, {99, 21}} {
		if _, found, connected := g.SeparatedTerminal(s, terminals); connected || found {
			t.Fatalf("terminals %v: SeparatedTerminal = (found %v, connected %v), want (false, false)", terminals, found, connected)
		}
	}
	// The connectivity answer agrees with IsConnectedWith.
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		g := sparseRandomGraph(r, 2+r.Intn(20), r.Float64()*0.3)
		first := g.NodeAt(r.Intn(g.NumNodes()))
		if _, _, connected := g.SeparatedTerminal(s, []NodeID{first}); connected != g.IsConnectedWith(s) {
			t.Fatalf("trial %d: SeparatedTerminal connected=%v, IsConnectedWith=%v", trial, connected, !connected)
		}
	}
}

// TestFundamentalCycleInto checks on random graphs that the fundamental
// cycle of every co-tree edge is a simple cycle of g closed by that edge,
// whose other edges all lie in the forest.
func TestFundamentalCycleInto(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	s := NewScratch(nil)
	for trial := 0; trial < 100; trial++ {
		g := sparseRandomGraph(r, 3+r.Intn(30), 0.1+r.Float64()*0.3)
		cot := make([]int32, g.NumEdges())
		g.CoTreeInto(s, cot)
		for e, c := range cot {
			if c < 0 {
				continue
			}
			cyc := append([]int32(nil), g.FundamentalCycleInto(s, cot, e)...)
			ed := g.EdgeAt(e)
			if len(cyc) < 3 || g.ids[cyc[0]] != ed.V || g.ids[cyc[len(cyc)-1]] != ed.U {
				t.Fatalf("trial %d: cycle %v of edge %v does not run from V to U", trial, cyc, ed)
			}
			seen := make(map[int32]bool)
			for i, x := range cyc {
				if seen[x] {
					t.Fatalf("trial %d: cycle %v repeats node %d", trial, cyc, x)
				}
				seen[x] = true
				if i == 0 {
					continue
				}
				f, ok := g.EdgeIndex(g.ids[cyc[i-1]], g.ids[x])
				if !ok || cot[f] >= 0 {
					t.Fatalf("trial %d: cycle %v steps off the forest at %d", trial, cyc, i)
				}
			}
		}
	}
}

func TestSourcePathsInto(t *testing.T) {
	s := NewScratch(nil)
	// On the path 0-1-2-3-4-5 with sources 1 and 5, targets 2 and 4 end at
	// different sources, and target 3 takes one shortest path, which
	// target 2 then shares.
	g := Path(6)
	ids := func(idx []int32) map[NodeID]bool {
		out := make(map[NodeID]bool)
		for _, i := range idx {
			if out[g.NodeAt(int(i))] {
				t.Fatalf("node %d taken twice in %v", g.NodeAt(int(i)), idx)
			}
			out[g.NodeAt(int(i))] = true
		}
		return out
	}
	idx, ok := g.SourcePathsInto(s, []NodeID{1, 5}, []NodeID{2, 4})
	if want := map[NodeID]bool{1: true, 2: true, 4: true, 5: true}; !ok || !reflect.DeepEqual(ids(idx), want) {
		t.Fatalf("SourcePathsInto = %v (ok=%v), want %v", ids(idx), ok, want)
	}
	idx, ok = g.SourcePathsInto(s, []NodeID{1, 5}, []NodeID{3, 2})
	if got := ids(idx); !ok || len(got) != 3 || !got[3] || !got[2] || !got[1] {
		t.Fatalf("SourcePathsInto(3, 2) = %v (ok=%v), want a shortest path from 3 through 2 to 1", got, ok)
	}
	split, _ := FromEdges([]Edge{{1, 2}}, 7)
	if _, ok := split.SourcePathsInto(s, []NodeID{1}, []NodeID{2, 7}); ok {
		t.Fatal("a target on no path to a source must report !ok")
	}
	if _, ok := g.SourcePathsInto(s, []NodeID{1}, []NodeID{99}); ok {
		t.Fatal("an absent target must report !ok")
	}
}
