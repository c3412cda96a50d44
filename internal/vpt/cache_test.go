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

// TestCacheRemoveInvalidatesLikeCommit: crash-removals (Remove) must dirty
// the same region as scheduled deletions (Commit) — the distributed runtime
// relies on this under Config.Faults.
func TestCacheRemoveInvalidatesLikeCommit(t *testing.T) {
	g := graph.TriangulatedGrid(6, 6)
	v := graph.NodeID(2*6 + 3)
	a, b := NewCache(g, 5), NewCache(g, 5)
	da := a.Commit([]graph.NodeID{v})
	db := b.Remove([]graph.NodeID{v})
	if !reflect.DeepEqual(da, db) {
		t.Fatalf("Commit dirty %v != Remove dirty %v", da, db)
	}
	checkAgainstFresh(t, b, "after crash removal")
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
		db := b.CommitBall(id, ball)
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

// TestCacheRestore pins the node-rejoin path of the streaming engine:
// Restore revives a removed vertex, dirties exactly the post-restore
// k-hop ball plus the vertex itself, and leaves every live verdict equal
// to fresh recomputation.
func TestCacheRestore(t *testing.T) {
	g := graph.TriangulatedGrid(6, 6)
	for _, tau := range []int{3, 4, 5} {
		c := NewCache(g, tau)
		// Warm everything so invalidation is observable.
		for _, v := range c.LiveNodes() {
			c.Deletable(v)
		}
		v := graph.NodeID(2*6 + 3)
		c.Commit([]graph.NodeID{v})
		checkAgainstFresh(t, c, "after commit")

		dirty := c.Restore(v)
		if !c.Alive(v) {
			t.Fatalf("tau %d: restored vertex %d not alive", tau, v)
		}
		// Expected dirty set: post-restore ball of v, plus v, sorted.
		after := c.LiveGraph()
		want := after.KHopNeighbors(v, c.Radius())
		want = append(want, v)
		sortNodeIDs(want)
		if !reflect.DeepEqual(dirty, want) {
			t.Fatalf("tau %d: Restore dirty = %v, want post-restore ball %v", tau, dirty, want)
		}
		checkAgainstFresh(t, c, "after restore")
	}
}

// TestCacheRestoreNoop: Restore of live or absent vertices changes nothing.
func TestCacheRestoreNoop(t *testing.T) {
	g := graph.TriangulatedGrid(4, 4)
	c := NewCache(g, 3)
	if got := c.Restore(5); got != nil {
		t.Fatalf("Restore(live) dirtied %v", got)
	}
	if got := c.Restore(999); got != nil {
		t.Fatalf("Restore(absent) dirtied %v", got)
	}
}

// TestCacheDeleteRestoreRoundTrip: a full delete+restore cycle must return
// the cache to a state verdict-equivalent to never having deleted at all.
func TestCacheDeleteRestoreRoundTrip(t *testing.T) {
	g := graph.TriangulatedGrid(5, 5)
	c := NewCache(g, 4)
	ref := NewCache(g, 4)
	vs := []graph.NodeID{7, 12, 18}
	c.Commit(vs)
	for _, v := range vs {
		c.Restore(v)
	}
	if c.View().NumLive() != ref.View().NumLive() {
		t.Fatalf("NumLive %d after round trip, want %d", c.View().NumLive(), ref.View().NumLive())
	}
	for _, v := range c.LiveNodes() {
		if got, want := c.Deletable(v), ref.Deletable(v); got != want {
			t.Fatalf("verdict(%d) = %v after delete+restore round trip, fresh cache says %v", v, got, want)
		}
	}
}

func sortNodeIDs(vs []graph.NodeID) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// FuzzCacheConsistency drives a cache through random interleaved
// Commit/Remove/Restore sequences on random connected graphs and asserts
// every live verdict always equals fresh recomputation — the end-to-end
// statement of the dirty-radius soundness argument, in both directions
// (deletions shrink the live graph, restores grow it back), and of the
// witness argument: a dirty "no" whose witness a removal missed is
// answered from the cache. The last four seeds keep many such verdicts,
// of every kind a removal can miss: disconnected, unconfined and
// unspanned.
func FuzzCacheConsistency(f *testing.F) {
	f.Add(int64(1), 12, 3)
	f.Add(int64(2), 20, 4)
	f.Add(int64(3), 16, 5)
	f.Add(int64(4), 24, 6)
	f.Add(int64(59), 20, 4) // kept: 21 disconnected, 4 unconfined, 4 unspanned
	f.Add(int64(10), 24, 3) // kept: 43 unconfined, 27 unspanned
	f.Add(int64(43), 30, 3) // kept: 10 unconfined, 110 unspanned
	f.Add(int64(56), 30, 5) // kept: 2 unconfined, 83 unspanned
	f.Fuzz(func(t *testing.T, seed int64, n, tau int) {
		if n < 4 || n > 40 || tau < 3 || tau > 8 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		g := randomConnected(r, n, 0.15)
		c := NewCache(g, tau)
		var dead []graph.NodeID
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
			var acted graph.NodeID
			if len(dead) > 0 && r.Float64() < 0.4 {
				// Re-insert a random dead vertex (node-join path).
				i := r.Intn(len(dead))
				acted = dead[i]
				dead = append(dead[:i], dead[i+1:]...)
				if got := c.Restore(acted); got == nil {
					t.Fatalf("step %d: Restore(%d) of dead vertex returned nil", step, acted)
				}
			} else {
				acted = live[r.Intn(len(live))]
				if r.Float64() < 0.5 {
					c.Commit([]graph.NodeID{acted})
				} else {
					c.Remove([]graph.NodeID{acted})
				}
				dead = append(dead, acted)
			}
			fresh := c.LiveGraph()
			for _, w := range c.LiveNodes() {
				if got, want := c.Deletable(w), VertexDeletable(fresh, w, tau); got != want {
					t.Fatalf("step %d: node %d cache=%v fresh=%v (seed=%d n=%d tau=%d, acted on %d)",
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
