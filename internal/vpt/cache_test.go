package vpt

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dcc/internal/geom"
	"dcc/internal/graph"
)

// randomConnected returns a random connected graph: a random spanning path
// plus extra edges with probability p.
func randomConnected(r *rand.Rand, n int, p float64) *graph.Graph {
	perm := r.Perm(n)
	b := graph.NewBuilder()
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(perm[i-1]), graph.NodeID(perm[i]))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				b.AddEdge(graph.NodeID(i), graph.NodeID(j))
			}
		}
	}
	return b.MustBuild()
}

// checkAgainstFresh asserts that every live verdict of the cache equals a
// from-scratch VertexDeletable on the materialized live graph.
func checkAgainstFresh(t *testing.T, c *Cache, label string) {
	t.Helper()
	fresh := c.LiveGraph()
	for _, v := range c.LiveNodes() {
		got := c.Deletable(v)
		want := VertexDeletable(fresh, v, c.Tau())
		if got != want {
			t.Fatalf("%s: cache.Deletable(%d) = %v, fresh VertexDeletable = %v (tau=%d)",
				label, v, got, want, c.Tau())
		}
	}
}

func TestCacheMatchesFreshOnGrid(t *testing.T) {
	for _, tau := range []int{3, 4, 5, 6} {
		g := graph.TriangulatedGrid(5, 5)
		c := NewCache(g, tau)
		if c.Radius() != NeighborhoodRadius(tau) {
			t.Fatalf("Radius() = %d, want %d", c.Radius(), NeighborhoodRadius(tau))
		}
		checkAgainstFresh(t, c, "initial")
		// Delete a few deletable interior vertices one at a time, checking
		// the whole verdict surface after each commit.
		for round := 0; round < 3; round++ {
			var pick graph.NodeID = ^graph.NodeID(0)
			for _, v := range c.LiveNodes() {
				if c.Deletable(v) {
					pick = v
					break
				}
			}
			if pick == ^graph.NodeID(0) {
				break
			}
			dirty := c.Commit([]graph.NodeID{pick})
			for _, w := range dirty {
				if !c.Alive(w) {
					t.Fatalf("tau %d: Commit returned dead vertex %d as dirty", tau, w)
				}
			}
			if c.Alive(pick) {
				t.Fatalf("tau %d: committed vertex %d still alive", tau, pick)
			}
			checkAgainstFresh(t, c, "after commit")
		}
	}
}

// TestCacheDirtySetIsExactBall pins the invalidation region: Commit must
// return exactly the live k-hop ball of the deleted vertex measured on the
// pre-removal view.
func TestCacheDirtySetIsExactBall(t *testing.T) {
	g := graph.TriangulatedGrid(6, 6)
	for _, tau := range []int{3, 5, 7} {
		c := NewCache(g, tau)
		before := c.LiveGraph()
		v := graph.NodeID(14) // interior
		want := before.KHopNeighbors(v, c.Radius())
		got := c.Commit([]graph.NodeID{v})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tau %d: dirty set = %v, want pre-removal %d-hop ball %v", tau, got, c.Radius(), want)
		}
	}
}

// TestCacheBoundaryRingDeletion exercises a deletion whose dirty ball is
// clipped by the graph boundary: removing a ring vertex of a cycle-with-
// chords graph must invalidate only its surviving ball and keep the
// remaining verdicts fresh.
func TestCacheBoundaryRingDeletion(t *testing.T) {
	// A ring 0..11 with spokes to a hub 100: ring vertices sit on the
	// "boundary" of the ball structure (their balls are arcs, not disks).
	b := graph.NewBuilder()
	for i := 0; i < 12; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%12))
		b.AddEdge(graph.NodeID(i), 100)
	}
	g := b.MustBuild()
	for _, tau := range []int{3, 4} {
		c := NewCache(g, tau)
		checkAgainstFresh(t, c, "ring initial")
		dirty := c.Commit([]graph.NodeID{0})
		want := g.KHopNeighbors(0, c.Radius())
		if !reflect.DeepEqual(dirty, want) {
			t.Fatalf("tau %d: ring dirty set = %v, want %v", tau, dirty, want)
		}
		checkAgainstFresh(t, c, "ring after commit")
	}
}

// TestCacheTauThreeMinimumRadius: at the minimum confine size τ=3 the
// radius is k=2; deleting a vertex must not leave stale verdicts exactly at
// the ball edge.
func TestCacheTauThreeMinimumRadius(t *testing.T) {
	g := graph.TriangulatedGrid(7, 7)
	c := NewCache(g, 3)
	if c.Radius() != 2 {
		t.Fatalf("tau=3 radius = %d, want 2", c.Radius())
	}
	// Warm every verdict, then delete the center and re-check everything —
	// vertices ≤2 hops away must be recomputed unless their witness misses
	// the center, those beyond must still be correct without
	// recomputation.
	for _, v := range c.LiveNodes() {
		c.Deletable(v)
	}
	warm := c.Stats().Computes
	center := graph.NodeID(3*7 + 3)
	dirty := c.Commit([]graph.NodeID{center})
	checkAgainstFresh(t, c, "tau3 after center deletion")
	recomputed := c.Stats().Computes - warm
	if recomputed > len(dirty) {
		t.Fatalf("recomputed %d verdicts, but only %d were dirtied", recomputed, len(dirty))
	}
	st := c.Stats()
	if st.Invalidated+st.Kept != len(dirty) {
		t.Fatalf("Invalidated %d + Kept %d, want %d (all warm)", st.Invalidated, st.Kept, len(dirty))
	}
	if st.Kept == 0 {
		t.Fatal("no dirty verdict was kept by its witness")
	}
}

// TestCacheCommitBallMatchesCommit: a deletion committed with its known
// dirty ball returns the same region and leaves the same cached verdicts
// as Commit's own BFS, deletion after deletion with verdicts cached in
// between.
func TestCacheCommitBallMatchesCommit(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	g := randomConnected(r, 60, 0.12)
	a, b := NewCache(g, 4), NewCache(g, 4)
	s := graph.NewScratch(g)
	for _, v := range r.Perm(60)[:20] {
		id := graph.NodeID(v)
		for _, w := range a.LiveNodes() {
			a.Deletable(w)
			b.Deletable(w)
		}
		ball := slices.Clone(b.View().KHopBallIndices(id, b.Radius(), s))
		da := a.Commit([]graph.NodeID{id})
		var db []graph.NodeID
		for _, bi := range b.CommitBall(id, ball) {
			db = append(db, g.NodeAt(int(bi)))
		}
		if !slices.Equal(da, db) {
			t.Fatalf("deleting %d: Commit dirty %v != CommitBall dirty %v", id, da, db)
		}
		for _, w := range a.LiveNodes() {
			xa, oka := a.Cached(w)
			xb, okb := b.Cached(w)
			if xa != xb || oka != okb {
				t.Fatalf("deleting %d: node %d cached (%v, %v) after Commit, (%v, %v) after CommitBall", id, w, xa, oka, xb, okb)
			}
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("deleting %d: stats %+v after Commit, %+v after CommitBall", id, a.Stats(), b.Stats())
		}
	}
	checkAgainstFresh(t, b, "after known-ball commits")
}

// TestCacheCommitTakesJudgedBall: Ball(v) is v's k-ball on the current
// view whether or not Deletable just judged v, and Commit([v]) right after
// v's verdict — which takes the judged ball — dirties, invalidates and
// counts exactly as a Commit whose ball is searched afresh (b searches
// another node's ball in between). A deletion in between, by CommitBall
// with a ball from outside the cache, makes the judged ball stale, so
// Commit must search again. At τ = 2, where no verdict extracts a ball,
// Commit still dirties the whole ball.
func TestCacheCommitTakesJudgedBall(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for tau := 2; tau <= 6; tau++ {
		g := randomConnected(r, 70, 0.1)
		a, b := NewCache(g, tau), NewCache(g, tau)
		s := graph.NewScratch(g)
		for step := 0; step < 40; step++ {
			live := a.LiveNodes()
			v, w := live[r.Intn(len(live))], live[r.Intn(len(live))]
			a.Deletable(v)
			b.Deletable(v)
			want := slices.Clone(a.View().KHopBallIndices(v, a.Radius(), s))
			if got := a.Ball(v); !slices.Equal(got, want) {
				t.Fatalf("tau %d: Ball(%d) after its verdict = %v, want %v", tau, v, got, want)
			}
			if got := b.Ball(w); !slices.Equal(got, a.View().KHopBallIndices(w, a.Radius(), s)) {
				t.Fatalf("tau %d: Ball(%d) = %v, want its k-ball", tau, w, got)
			}
			if u := live[r.Intn(len(live))]; u != v && r.Intn(3) == 0 {
				ub := slices.Clone(a.View().KHopBallIndices(u, a.Radius(), s))
				a.CommitBall(u, ub)
				b.CommitBall(u, ub)
				want = slices.Clone(a.View().KHopBallIndices(v, a.Radius(), s))
			}
			da, db := a.Commit([]graph.NodeID{v}), b.Commit([]graph.NodeID{v})
			if !slices.Equal(da, db) {
				t.Fatalf("tau %d: deleting %d: dirty %v with the judged ball, %v with a fresh one", tau, v, da, db)
			}
			if tau == 2 && len(da) != len(want) {
				t.Fatalf("tau 2: deleting %d dirtied %d nodes, want its ball's %d", v, len(da), len(want))
			}
			if a.Stats() != b.Stats() {
				t.Fatalf("tau %d: deleting %d: stats %+v with the judged ball, %+v with a fresh one", tau, v, a.Stats(), b.Stats())
			}
			for _, u := range a.LiveNodes() {
				xa, oka := a.Cached(u)
				xb, okb := b.Cached(u)
				if xa != xb || oka != okb {
					t.Fatalf("tau %d: deleting %d: node %d cached (%v, %v) and (%v, %v)", tau, v, u, xa, oka, xb, okb)
				}
			}
		}
		checkAgainstFresh(t, a, "after judged-ball commits")
	}
}

// TestCacheBatchCommit: removing an independent set at once (the parallel
// scheduler's round commit) must dirty the union of balls and never return
// a vertex of the batch itself.
func TestCacheBatchCommit(t *testing.T) {
	g := graph.TriangulatedGrid(6, 6)
	c := NewCache(g, 4)
	batch := []graph.NodeID{8, 27} // far apart
	dirty := c.Commit(batch)
	for _, v := range batch {
		if c.Alive(v) {
			t.Fatalf("batch vertex %d still alive", v)
		}
		for _, w := range dirty {
			if w == v {
				t.Fatalf("dirty set contains deleted vertex %d", v)
			}
		}
	}
	checkAgainstFresh(t, c, "after batch commit")
}

// TestCacheDeadAndAbsent: dead and absent vertices are never deletable and
// never dirty anything.
func TestCacheDeadAndAbsent(t *testing.T) {
	g := graph.TriangulatedGrid(4, 4)
	c := NewCache(g, 3)
	if c.Deletable(999) {
		t.Fatal("absent vertex reported deletable")
	}
	if got := c.Commit([]graph.NodeID{999}); len(got) != 0 {
		t.Fatalf("Commit(absent) dirtied %v", got)
	}
	c.Commit([]graph.NodeID{5})
	if c.Deletable(5) {
		t.Fatal("dead vertex reported deletable")
	}
	if got := c.Commit([]graph.NodeID{5}); len(got) != 0 {
		t.Fatalf("Commit(dead) dirtied %v", got)
	}
}

// TestCacheComputeFreshAndStore models the parallel scheduler's protocol:
// workers compute verdicts with caller-owned scratch, the main goroutine
// publishes them with StoreVerdict, and subsequent Deletable calls hit the
// memo. A published "no" carries its witness, so a Commit that misses the
// witness keeps it cached.
func TestCacheComputeFreshAndStore(t *testing.T) {
	g := graph.TriangulatedGrid(5, 5)
	c := NewCache(g, 4)
	s, tester := graph.NewScratch(g), NewTester()
	fresh := c.LiveGraph()
	for _, v := range c.LiveNodes() {
		got := c.ComputeFresh(v, s, tester)
		if want := VertexDeletable(fresh, v, 4); got.Deletable() != want {
			t.Fatalf("ComputeFresh(%d) = %v, want %v", v, got.Deletable(), want)
		}
		c.StoreVerdict(v, got)
	}
	before := c.Stats().Computes
	for _, v := range c.LiveNodes() {
		c.Deletable(v)
	}
	if c.Stats().Computes != before {
		t.Fatalf("Deletable recomputed %d verdicts after StoreVerdict warmed them", c.Stats().Computes-before)
	}

	// A hub 0 inside the ring 1…6, with a pendant 7 on ring node 1: at
	// τ = 3 the ring refutes 0, and 7 lies in Γ²(0) off that witness.
	edges := []graph.Edge{{U: 1, V: 7}, {U: 1, V: 6}}
	for i := graph.NodeID(1); i <= 6; i++ {
		edges = append(edges, graph.Edge{U: 0, V: i})
		if i < 6 {
			edges = append(edges, graph.Edge{U: i, V: i + 1})
		}
	}
	hub, err := graph.FromEdges(edges)
	if err != nil {
		t.Fatal(err)
	}
	h := NewCache(hub, 3)
	x := h.ComputeFresh(0, graph.NewScratch(hub), NewTester())
	if x.Deletable() {
		t.Fatal("the hub of an untriangulated ring is deletable at tau 3")
	}
	h.StoreVerdict(0, x)
	if dirty := h.Commit([]graph.NodeID{7}); !slices.Contains(dirty, 0) {
		t.Fatalf("deleting 7 did not dirty the hub: %v", dirty)
	}
	if _, ok := h.Cached(0); !ok {
		t.Fatal("a Commit off the witness dropped the published \"no\"")
	}
	checkAgainstFresh(t, h, "published no after a Commit off its witness")
}

// FuzzCacheConsistency drives a cache through random Commit sequences on
// random connected graphs and asserts every live verdict always equals
// fresh recomputation — the end-to-end statement of the dirty-radius
// soundness argument, and of the witness argument: a dirty "no" whose
// witness a removal missed is answered from the cache. The last four seeds
// keep many such verdicts, of every kind a removal can miss: disconnected,
// unconfined and unspanned.
func FuzzCacheConsistency(f *testing.F) {
	f.Add(int64(1), 12, 3)
	f.Add(int64(2), 20, 4)
	f.Add(int64(3), 16, 5)
	f.Add(int64(4), 24, 6)
	f.Add(int64(59), 20, 4) // kept: 3 disconnected, 3 unconfined, 8 unspanned
	f.Add(int64(10), 24, 3) // kept: 7 disconnected, 41 unconfined, 23 unspanned
	f.Add(int64(43), 30, 3) // kept: 7 unconfined, 115 unspanned
	f.Add(int64(56), 30, 5) // kept: 1 disconnected, 5 unconfined, 66 unspanned
	f.Fuzz(func(t *testing.T, seed int64, n, tau int) {
		if n < 4 || n > 40 || tau < 3 || tau > 8 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		g := randomConnected(r, n, 0.15)
		c := NewCache(g, tau)
		for step := 0; step < 8; step++ {
			live := c.LiveNodes()
			if len(live) == 0 {
				break
			}
			// Warm a random subset so invalidation has verdicts to stale.
			for _, v := range live {
				if r.Float64() < 0.5 {
					c.Deletable(v)
				}
			}
			acted := live[r.Intn(len(live))]
			c.Commit([]graph.NodeID{acted})
			fresh := c.LiveGraph()
			for _, w := range c.LiveNodes() {
				if got, want := c.Deletable(w), VertexDeletable(fresh, w, tau); got != want {
					t.Fatalf("step %d: node %d cache=%v fresh=%v (seed=%d n=%d tau=%d, deleted %d)",
						step, w, got, want, seed, n, tau, acted)
				}
			}
		}
	})
}

// TestVerdictAllocs pins the allocation-free verdict: on a warm Tester and
// Scratch, a sweep of Cache.ComputeFresh over every node of a 400-node
// unit-disk graph allocates nothing, for every τ the benchmarks use, and
// neither does a sweep of Cache.Deletable over a forgotten memo, which
// also extracts the witness of every "no". The neighbourhood graph, its
// 2-core, the search state, the GF(2) rows and the witness all live in
// reused storage.
func TestVerdictAllocs(t *testing.T) {
	pts := geom.UniformPoints(rand.New(rand.NewSource(1)), 400, geom.Square(12))
	g := geom.UDG(pts, 1.2)
	nodes := g.Nodes()
	for _, tau := range []int{3, 4, 5, 6} {
		c := NewCache(g, tau)
		s, tr := graph.NewScratch(g), NewTester()
		deletable := 0
		fresh := func() {
			deletable = 0
			for _, v := range nodes {
				if c.ComputeFresh(v, s, tr).Deletable() {
					deletable++
				}
			}
		}
		memo := func() {
			for i := range c.verdict {
				c.verdict[i] = verdictUnknown
			}
			for _, v := range nodes {
				c.Deletable(v)
			}
		}
		for _, sweep := range []struct {
			name string
			run  func()
		}{{"ComputeFresh", fresh}, {"Deletable", memo}} {
			sweep.run() // warm every buffer to the sweep's largest neighbourhood
			if allocs := testing.AllocsPerRun(1, sweep.run); allocs != 0 {
				t.Errorf("tau=%d: a warm %s sweep of %d verdicts made %.0f allocations (%.1f per verdict), want 0",
					tau, sweep.name, len(nodes), allocs, allocs/float64(len(nodes)))
			}
		}
		if deletable == 0 || deletable == len(nodes) {
			t.Fatalf("tau=%d: degenerate instance, %d of %d nodes deletable", tau, deletable, len(nodes))
		}
		if st := c.Stats(); st.Refuted[RefutedUnspanned] == 0 {
			t.Fatalf("tau=%d: no unspanned refutation, so no witness cycle was extracted: %+v", tau, st)
		}
	}
}

// TestCertifiedShare pins the fan certificate's traffic: on a dense
// unit-disk graph (300 nodes at average degree 18) deleted greedily at
// τ = 3…6, the certificate decides at least 90 % of the "deletable"
// verdicts the cache computes, so a change that turns the fast path off
// fails here and not only in the benchmark.
func TestCertifiedShare(t *testing.T) {
	pts := geom.UniformPoints(rand.New(rand.NewSource(21)), 300, geom.Square(10))
	g := geom.UDG(pts, geom.RcForAvgDegree(300, 100, 18))
	for tau := 3; tau <= 6; tau++ {
		c := NewCache(g, tau)
		for _, v := range g.Nodes() {
			if c.Deletable(v) {
				c.Commit([]graph.NodeID{v})
			}
		}
		st := c.Stats()
		deletable := st.Computes
		for _, n := range st.Refuted {
			deletable -= n
		}
		if deletable == 0 || st.Certified*10 < deletable*9 {
			t.Fatalf("tau=%d: the certificate decided %d of %d deletable verdicts, want at least 90 %%", tau, st.Certified, deletable)
		}
		t.Logf("tau=%d: certified %d of %d deletable verdicts (%d computes)", tau, st.Certified, deletable, st.Computes)
	}
}
