package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// pickDead returns a random subset of g's nodes to delete.
func pickDead(r *rand.Rand, g *Graph, p float64) []NodeID {
	var del []NodeID
	for _, v := range g.Nodes() {
		if r.Float64() < p {
			del = append(del, v)
		}
	}
	return del
}

// TestCompactInducedMatchesBuilder pins the core structural claim of the
// incremental engine: compactInduced produces a Graph byte-identical (by
// reflect.DeepEqual on the unexported representation) to the one Builder
// constructs from the same nodes and edges.
func TestCompactInducedMatchesBuilder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(r, 4+r.Intn(40), 0.05+r.Float64()*0.3)
		var keep []int32
		var nodes []NodeID
		for i, v := range g.ids {
			if r.Float64() < 0.7 {
				keep = append(keep, int32(i))
				nodes = append(nodes, v)
			}
		}
		got := g.compactInduced(keep, NewScratch(g))

		b := NewBuilder()
		for _, v := range nodes {
			b.AddNode(v)
		}
		for _, e := range g.Edges() {
			if got.HasNode(e.U) && got.HasNode(e.V) {
				b.AddEdge(e.U, e.V)
			}
		}
		want := b.MustBuild()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: compactInduced differs from Builder\ngot:  %+v\nwant: %+v", trial, got, want)
		}
	}
}

// TestMaterializeMatchesDeleteVertices: the overlay's materialized remainder
// must be structurally identical to rebuilding via DeleteVertices.
func TestMaterializeMatchesDeleteVertices(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(r, 5+r.Intn(35), 0.1+r.Float64()*0.25)
		del := pickDead(r, g, 0.4)
		view := NewDeleteView(g)
		for _, v := range del {
			view.Delete(v)
		}
		got := view.Materialize()
		want := g.DeleteVertices(del)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Materialize differs from DeleteVertices(%v)", trial, del)
		}
		if view.NumLive() != want.NumNodes() {
			t.Fatalf("trial %d: NumLive = %d, want %d", trial, view.NumLive(), want.NumNodes())
		}
	}
}

// TestLiveInducedMatchesMaterialize: the subgraph LiveInduced builds from
// a universe's ID list, neighbour-index lists and dead flags is
// structurally identical to the overlay's Materialize of the same
// universe and to a Builder build of its live nodes and the edges between
// them, on sparse graphs with isolated nodes, with no node dead, and with
// every node dead.
func TestLiveInducedMatchesMaterialize(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(r, r.Intn(40), r.Float64()*0.3)
		p := r.Float64() * 0.6
		switch trial % 10 {
		case 0:
			p = 0
		case 1:
			p = 1
		}
		dead := make([]bool, g.NumNodes())
		adj := make([][]int32, g.NumNodes())
		view := NewDeleteView(g)
		b := NewBuilder()
		for i, v := range g.ids {
			adj[i] = g.NeighborIndices(i)
			if r.Float64() < p {
				dead[i] = true
				view.Delete(v)
			} else {
				b.AddNode(v)
			}
		}
		for _, e := range g.Edges() {
			if view.Alive(e.U) && view.Alive(e.V) {
				b.AddEdge(e.U, e.V)
			}
		}
		got := LiveInduced(g.Nodes(), adj, dead)
		if want := b.MustBuild(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: LiveInduced differs from Builder\ngot:  %+v\nwant: %+v", trial, got, want)
		}
		if want := view.Materialize(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: LiveInduced differs from Materialize", trial)
		}
	}
}

// TestKHopBallMatchesKHopNeighbors: ball queries on the overlay must agree
// with KHopNeighbors on the rebuilt graph, for every live vertex and radius.
func TestKHopBallMatchesKHopNeighbors(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	s := NewScratch(nil)
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(r, 5+r.Intn(30), 0.1+r.Float64()*0.2)
		view := NewDeleteView(g)
		for _, v := range pickDead(r, g, 0.3) {
			view.Delete(v)
		}
		live := view.Materialize()
		for _, v := range live.Nodes() {
			for k := 1; k <= 3; k++ {
				got := view.KHopBall(v, k, s)
				want := live.KHopNeighbors(v, k)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: KHopBall(%d,%d) = %v, want %v", trial, v, k, got, want)
				}
			}
		}
	}
}

// TestExtractNeighborhoodMatchesInduced: Γ^k(v) extracted from the overlay
// must be structurally identical to InducedSubgraph(KHopNeighbors) on the
// materialized graph, and the direct neighbours must match its neighbours.
func TestExtractNeighborhoodMatchesInduced(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	s := NewScratch(nil)
	var buf GraphBuf // reused by every build: must never leak a stale graph
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(r, 5+r.Intn(30), 0.1+r.Float64()*0.2)
		view := NewDeleteView(g)
		for _, v := range pickDead(r, g, 0.3) {
			view.Delete(v)
		}
		live := view.Materialize()
		for _, v := range live.Nodes() {
			for k := 1; k <= 3; k++ {
				sub, direct := view.ExtractNeighborhood(v, k, s)
				want := live.InducedSubgraph(live.KHopNeighbors(v, k))
				if !reflect.DeepEqual(sub, want) {
					t.Fatalf("trial %d: ExtractNeighborhood(%d,%d) graph differs", trial, v, k)
				}
				if into, intoDirect := view.ExtractNeighborhoodInto(v, k, s, &buf); !reflect.DeepEqual(into, want) || !slices.Equal(intoDirect, direct) {
					t.Fatalf("trial %d: ExtractNeighborhoodInto(%d,%d) on a reused GraphBuf differs", trial, v, k)
				}
				wantDirect := live.Neighbors(v)
				if len(direct) == 0 && len(wantDirect) == 0 {
					continue
				}
				if !reflect.DeepEqual(direct, wantDirect) {
					t.Fatalf("trial %d: direct neighbours of %d = %v, want %v", trial, v, direct, wantDirect)
				}
			}
		}
	}
}

// TestDeleteViewQueries covers the O(1) overlay accessors against the
// rebuilt graph.
func TestDeleteViewQueries(t *testing.T) {
	g := Grid(4, 4)
	view := NewDeleteView(g)
	if !view.Alive(5) || view.NumLive() != 16 {
		t.Fatal("fresh view should have all 16 vertices live")
	}
	if !view.Delete(5) {
		t.Fatal("Delete(5) on a live vertex should report true")
	}
	if view.Delete(5) {
		t.Fatal("double Delete should report false")
	}
	if view.Delete(999) {
		t.Fatal("Delete of an absent vertex should report false")
	}
	if view.Alive(5) || view.NumLive() != 15 {
		t.Fatal("vertex 5 should be dead")
	}
	live := g.DeleteVertices([]NodeID{5})
	if !reflect.DeepEqual(view.LiveNodes(), live.Nodes()) {
		t.Fatalf("LiveNodes = %v, want %v", view.LiveNodes(), live.Nodes())
	}
	s := NewScratch(g)
	for _, v := range live.Nodes() {
		if got, want := view.KHopBall(v, 1, s), live.Neighbors(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("KHopBall(%d, 1) = %v, want the live neighbours %v", v, got, want)
		}
	}
	if view.KHopBall(5, 2, s) != nil {
		t.Fatal("KHopBall of a dead vertex should be nil")
	}
}

// TestNeighborhoodFingerprint pins the memo-key contract of the streaming
// verdict cache: the fingerprint is a pure function of the labelled k-hop
// neighbourhood — equal across structurally different base graphs that
// induce the same live neighbourhood, sensitive to any vertex or edge
// change inside the ball, insensitive to changes strictly outside it.
func TestNeighborhoodFingerprint(t *testing.T) {
	s := NewScratch(nil)

	// Dead and absent vertices hash to the reserved 0.
	g := Grid(3, 3)
	view := NewDeleteView(g)
	view.Delete(4)
	if view.NeighborhoodFingerprint(4, 2, s) != 0 || view.NeighborhoodFingerprint(99, 2, s) != 0 {
		t.Fatal("dead/absent fingerprint must be 0")
	}

	// Equality across base graphs: a view with dead vertices must
	// fingerprint like a fresh view over the materialized remainder.
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		rg := randomGraph(r, 5+r.Intn(35), 0.1+r.Float64()*0.25)
		v1 := NewDeleteView(rg)
		for _, v := range pickDead(r, rg, 0.3) {
			v1.Delete(v)
		}
		v2 := NewDeleteView(v1.Materialize())
		for _, v := range v1.LiveNodes() {
			for k := 1; k <= 3; k++ {
				a := v1.NeighborhoodFingerprint(v, k, s)
				b := v2.NeighborhoodFingerprint(v, k, s)
				if a != b {
					t.Fatalf("trial %d: fingerprint(%d,k=%d) differs across base graphs: %x vs %x", trial, v, k, a, b)
				}
				if a == 0 {
					t.Fatalf("trial %d: live vertex %d fingerprinted to the reserved 0", trial, v)
				}
			}
		}
	}

	// Sensitivity inside the ball vs. insensitivity outside it, on a path
	// where hop distances are unambiguous: 0-1-2-3-4-5.
	b := NewBuilder()
	for i := NodeID(0); i < 6; i++ {
		b.AddNode(i)
	}
	for i := NodeID(0); i < 5; i++ {
		b.AddEdge(i, i+1)
	}
	path := b.MustBuild()
	base := NewDeleteView(path)
	fp := base.NeighborhoodFingerprint(0, 2, s)
	inBall := NewDeleteView(path)
	inBall.Delete(2) // distance 2 from v=0: inside the ball
	if inBall.NeighborhoodFingerprint(0, 2, s) == fp {
		t.Fatal("deleting a ball vertex must change the fingerprint")
	}
	outside := NewDeleteView(path)
	outside.Delete(5) // distance 5 from v=0: outside the 2-hop ball
	if outside.NeighborhoodFingerprint(0, 2, s) != fp {
		t.Fatal("deleting outside the ball must not change the fingerprint")
	}
}

// TestScratchReuseAcrossGraphs: one Scratch must serve graphs of different
// sizes back to back without cross-contamination (epoch stamping).
func TestScratchReuseAcrossGraphs(t *testing.T) {
	s := NewScratch(nil)
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(r, 3+r.Intn(50), 0.2)
		view := NewDeleteView(g)
		for _, v := range pickDead(r, g, 0.25) {
			view.Delete(v)
		}
		live := view.Materialize()
		for _, v := range live.Nodes() {
			sub, _ := view.ExtractNeighborhood(v, 2, s)
			want := live.InducedSubgraph(live.KHopNeighbors(v, 2))
			if !reflect.DeepEqual(sub, want) {
				t.Fatalf("trial %d: scratch reuse corrupted extraction at %d", trial, v)
			}
		}
	}
}
