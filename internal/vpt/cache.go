package vpt

import (
	"slices"

	"dcc/internal/cycles"
	"dcc/internal/graph"
	"dcc/internal/telemetry"
)

// Tester bundles the reusable state of a deletability-testing worker: the
// graph scratch of the connectivity, void-confinement and witness
// searches, the storage of the extracted neighbourhood, the GF(2)
// elimination workspace (which holds the 2-core) and the witness of the
// last "no". A warm Tester makes a verdict allocation-free across the
// thousands of evaluations a scheduling run performs. The neighbourhood
// and 2-core graphs of a verdict live in the Tester and stay valid until
// its next verdict. Not safe for concurrent use — give each worker its
// own.
type Tester struct {
	s    *graph.Scratch
	ball graph.GraphBuf // Γ^k(v) of the Cache's current verdict, adjacency only
	ws   *cycles.Workspace
	wit  []graph.NodeID // witness of the Cache's last "no" (judge)
	kind Refutation     // and its kind
}

// NewTester returns an empty Tester.
func NewTester() *Tester {
	return &Tester{s: graph.NewScratch(nil), ws: cycles.NewWorkspace()}
}

// NeighborhoodDeletable is the package-level NeighborhoodDeletable
// evaluated with the Tester's reusable buffers — identical verdict, no
// allocations once the Tester is warm.
func (t *Tester) NeighborhoodDeletable(neighborhood *graph.Graph, directNeighbors []graph.NodeID, tau int) bool {
	var nb *graph.Adjacency
	if neighborhood != nil {
		nb = &neighborhood.Adjacency
	}
	return t.judge(nb, directNeighbors, tau).Deletable()
}

// Cache is the incremental deletability engine: it memoizes the
// VertexDeletable verdict per node over a deletion overlay of the base
// graph, and invalidates the ≤ k-hop ball (k = ⌈τ/2⌉) around each vertex
// removed by a committed round — except the "no" verdicts whose witness
// the removal misses (see Verdict), which provably stay "no".
//
// Soundness of the dirty radius (see DESIGN.md §11 for the proof sketch):
// the verdict of v depends only on Γ^k(v), the subgraph induced by the
// live vertices within k hops of v. Removing a vertex u with live-path
// distance d(u,v) > k cannot change Γ^k(v): deletions never shorten
// distances, every vertex of Γ^k(v) reaches v by a ≤ k-hop live path
// avoiding u (all its vertices are within k hops of v, and u is not), and
// the edges among ball vertices are untouched. Hence a cached verdict
// outside the k-hop balls of the removed vertices — computed on the
// pre-removal view or later — is still the fresh verdict.
//
// A Cache is not safe for concurrent mutation. Concurrent workers may call
// ComputeFresh (read-only, caller-owned scratch) between mutations and
// publish results through StoreVerdict afterwards.
type Cache struct {
	g       *graph.Graph
	tau, k  int
	view    *graph.DeleteView
	verdict []Verdict // by base dense index
	scratch *graph.Scratch
	tester  *Tester
	dirty   []int32 // Commit's union of dirty balls, reused
	out     []int32 // the last commit's dirty region, reused
	stats   CacheStats

	// ball is the k-ball of the vertex with base index ballOf (−1 for
	// none) on the current view, in scratch: the ball Deletable judged
	// last, or the one Ball searched last. A deletion (kill) ends it, and
	// every search on scratch sets it anew.
	ball   []int32
	ballOf int32

	// Telemetry handles, nil (no-op) unless Instrument was called. All
	// counters and the dirty-ball histogram are deterministic-class:
	// CacheStats is worker-count-invariant by the fixed-chunk decomposition
	// of core's parallel engine, and the Commit dirty sets are a pure
	// function of the deletion history.
	telLookups, telComputes, telInvalidated, telKept *telemetry.Counter
	telCertified                                     *telemetry.Counter
	telRefuted                                       [NumRefutations]*telemetry.Counter
	telDirty                                         *telemetry.Hist
}

// dirtyBallBounds buckets Commit dirty-set sizes: the k-hop ball
// population is the quantity the incremental engine's cost model stands
// on, so power-of-two resolution up to 1024 is plenty.
var dirtyBallBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Instrument attaches the cache to reg: the vpt.lookups, vpt.computes,
// vpt.invalidated, vpt.kept and vpt.certified counters, one
// vpt.refuted_<kind> counter per Refutation, and the vpt.dirty_ball
// histogram of Commit dirty-set sizes. A nil reg leaves the cache
// uninstrumented (all handles stay nil-safe no-ops).
func (c *Cache) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.telLookups = reg.Counter("vpt.lookups")
	c.telComputes = reg.Counter("vpt.computes")
	c.telInvalidated = reg.Counter("vpt.invalidated")
	c.telKept = reg.Counter("vpt.kept")
	c.telCertified = reg.Counter("vpt.certified")
	for k, name := range refutationNames {
		c.telRefuted[k] = reg.Counter("vpt.refuted_" + name)
	}
	c.telDirty = reg.Histogram("vpt.dirty_ball", dirtyBallBounds)
}

// CacheStats counts the work a Cache performed.
type CacheStats struct {
	// Lookups counts Deletable calls on live nodes.
	Lookups int
	// Computes counts the verdicts Deletable evaluated on a cache miss;
	// ComputeFresh evaluations, published through StoreVerdict, are not
	// included.
	Computes int
	// Invalidated counts verdict entries reset by Commit and CommitBall.
	Invalidated int
	// Kept counts the cached "no" verdicts of Commit dirty sets that
	// stayed cached because no removed node may belong to their witness.
	Kept int
	// Certified counts the "deletable" verdicts Deletable computed that
	// the fan certificate decided, without the span engine
	// (cycles.Workspace.Certified).
	Certified int
	// Refuted splits the "no" verdicts Deletable computed by the
	// Refutation that decided them.
	Refuted [NumRefutations]int
}

// NewCache returns a cache over g for confine size tau (≥ 3; smaller
// values yield a cache whose every verdict is false, mirroring
// VertexDeletable).
func NewCache(g *graph.Graph, tau int) *Cache {
	c := &Cache{
		g:       g,
		tau:     tau,
		k:       NeighborhoodRadius(tau),
		view:    graph.NewDeleteView(g),
		verdict: make([]Verdict, g.NumNodes()),
		scratch: graph.NewScratch(g),
		tester:  NewTester(),
		ballOf:  -1,
	}
	for i := range c.verdict {
		c.verdict[i] = verdictUnknown
	}
	return c
}

// Tau returns the confine size the cache tests against.
func (c *Cache) Tau() int { return c.tau }

// Radius returns the invalidation radius k = ⌈τ/2⌉.
func (c *Cache) Radius() int { return c.k }

// View returns the live-vertex overlay. Callers must not mutate it
// directly — all deletions go through Commit or CommitBall so invalidation
// stays coupled to removal.
func (c *Cache) View() *graph.DeleteView { return c.view }

// Alive reports whether v is still a live vertex.
func (c *Cache) Alive(v graph.NodeID) bool { return c.view.Alive(v) }

// LiveNodes returns the live vertices in increasing ID order.
func (c *Cache) LiveNodes() []graph.NodeID { return c.view.LiveNodes() }

// LiveGraph materializes the live remainder as a real Graph, structurally
// identical to applying DeleteVertices for every removed vertex.
func (c *Cache) LiveGraph() *graph.Graph { return c.view.Materialize() }

// Stats returns the work counters accumulated so far.
func (c *Cache) Stats() CacheStats { return c.stats }

// Deletable returns VertexDeletable(live graph, v, tau), memoized: a clean
// cached verdict is returned as-is (the dirty-radius invariant and the
// witness argument guarantee it equals fresh recomputation), a stale one
// is recomputed, with its witness, on the cache-owned scratch. Dead or
// absent vertices are never deletable.
//
//lint:hotpath
func (c *Cache) Deletable(v graph.NodeID) bool {
	i, ok := c.liveIndex(v)
	if !ok {
		return false
	}
	c.stats.Lookups++
	c.telLookups.Inc()
	if c.verdict[i] == verdictUnknown {
		x, ball := c.compute(v, c.scratch, c.tester)
		c.verdict[i] = x
		if c.tau >= 3 { // compute extracted the ball
			c.ball, c.ballOf = ball, int32(i)
		}
		c.stats.Computes++
		c.telComputes.Inc()
		switch {
		case !x.Deletable():
			c.stats.Refuted[c.tester.kind]++
			c.telRefuted[c.tester.kind].Inc()
		case c.tester.ws.Certified():
			c.stats.Certified++
			c.telCertified.Inc()
		}
	}
	return c.verdict[i].Deletable()
}

// Cached returns the clean cached verdict of the live vertex v, with ok
// false when there is none: v is dead, absent, never judged or dirtied
// since. A cached verdict equals fresh recomputation, so a caller holding
// one may skip the test — the streaming engine and the parallel scheduler
// answer re-tests of refuted nodes this way.
func (c *Cache) Cached(v graph.NodeID) (x Verdict, ok bool) {
	i, ok := c.liveIndex(v)
	if !ok || c.verdict[i] == verdictUnknown {
		return 0, false
	}
	return c.verdict[i], true
}

// ComputeFresh evaluates the verdict for v, witness included, with
// caller-owned scratch and without reading or writing the memo — the form
// concurrent workers use to batch cache-miss work (publish with
// StoreVerdict once the batch joins). A dead or absent v is refuted
// without a witness. s and t must not be shared between concurrent
// callers.
//
//lint:hotpath
func (c *Cache) ComputeFresh(v graph.NodeID, s *graph.Scratch, t *Tester) Verdict {
	if !c.view.Alive(v) {
		return refutedAnywhere
	}
	x, _ := c.compute(v, s, t)
	return x
}

// StoreVerdict publishes a verdict with its witness signature: one
// ComputeFresh returned on the current live view, or one Cached returned
// from a Cache over the same labelled Γ^k(v) — the streaming engine's memo
// hits. The caller must ensure it equals fresh computation on the current
// live view: no deletion since it was computed, or none that touched
// Γ^k(v).
func (c *Cache) StoreVerdict(v graph.NodeID, x Verdict) {
	if i, ok := c.liveIndex(v); ok {
		c.verdict[i] = x
	}
}

// liveIndex returns v's base dense index, with ok false when v is absent
// or dead: one index lookup for the per-call guards above.
func (c *Cache) liveIndex(v graph.NodeID) (int, bool) {
	i, ok := c.g.IndexOf(v)
	return i, ok && c.view.AliveAt(i)
}

// compute judges the live vertex v on caller-owned scratch, with the
// witness of a "no" left in t, and returns v's k-ball with it (in s; nil
// when τ < 3, where no ball is extracted). The test reads Γ^k(v) as an
// adjacency only: the span engine builds the 2-core it needs in full.
func (c *Cache) compute(v graph.NodeID, s *graph.Scratch, t *Tester) (Verdict, []int32) {
	var nb *graph.Adjacency
	var direct []graph.NodeID
	var ball []int32
	if c.tau >= 3 {
		nb, direct, ball = c.view.BallInto(v, c.k, s, &t.ball)
	}
	x := t.judge(nb, direct, c.tau)
	debugCheckCacheVerdict(c, v, x.Deletable())
	debugCheckWitness(c, v, x, t)
	return x, ball
}

// Ball returns the dirty ball of the live vertex v on the current view:
// the base indices of the live vertices within k live-path hops of v, v
// excluded, ascending — what View().KHopBallIndices(v, Radius(), s)
// returns, and CommitBall takes. When Deletable computed v's verdict last
// and nothing was deleted since, it is the ball that verdict judged, with
// no second search. The slice lives in the cache until its next Ball,
// Commit or Deletable call; nil when v is dead or absent.
func (c *Cache) Ball(v graph.NodeID) []int32 {
	i, ok := c.liveIndex(v)
	if !ok {
		return nil
	}
	if int32(i) != c.ballOf {
		c.ball, c.ballOf = c.view.KHopBallIndices(v, c.k, c.scratch), int32(i)
	}
	return c.ball
}

// Commit removes a set of vertices deleted by the scheduler and
// invalidates the cached verdicts within k live-path hops of a removed
// vertex (balls measured on the pre-removal view — distances only grow
// under deletion, so this covers every vertex whose Γ^k changed), except
// the "no" verdicts none of whose witness signatures the removed vertices
// touch: those stay cached. It returns the whole dirty region, the live
// vertices of those balls in increasing ID order — the nodes a scheduler
// re-tests; the kept ones answer from the cache. Each removed vertex
// commits its Ball, so a deletion right after its verdict reuses the
// judged ball.
func (c *Cache) Commit(deleted []graph.NodeID) []graph.NodeID {
	// Union of the pre-removal k-hop balls, marking stale the verdicts a
	// removed vertex touches. Ball reuses its buffer, so copy per vertex.
	union := c.dirty[:0]
	for _, v := range deleted {
		ball := c.Ball(v)
		c.markStale(v, ball)
		union = append(union, ball...)
	}
	c.dirty = union
	for _, v := range deleted {
		c.kill(v)
	}
	slices.Sort(union)
	dirty := c.settle(union)
	out := make([]graph.NodeID, len(dirty))
	for j, bi := range dirty {
		out[j] = c.g.NodeAt(int(bi))
	}
	return out
}

// CommitBall is Commit of the one live vertex v for a caller that already
// holds v's dirty ball: the base indices of the live vertices within k
// live-path hops of v, v excluded, ascending — what Ball(v) and
// View().KHopBallIndices(v, Radius(), s) return on the current view. It
// skips the ball's BFS and returns the dirty region
// Commit([]graph.NodeID{v}) would, as base dense indices, ascending, in a
// buffer the cache reuses at its next commit. The elections (internal/core)
// commit this way. The caller's slice is not retained.
func (c *Cache) CommitBall(v graph.NodeID, ball []int32) []int32 {
	c.markStale(v, ball)
	c.kill(v)
	return c.settle(ball)
}

// markStale marks stale the verdicts in the ball of the removed vertex v
// that v may touch.
func (c *Cache) markStale(v graph.NodeID, ball []int32) {
	m := probes(v)
	for _, bi := range ball {
		if c.verdict[bi].touchedBy(m) {
			c.verdict[bi] = verdictStale
		}
	}
}

// kill deletes v from the view; a dead vertex is never deletable. The
// view changes, so no ball held is current any more.
func (c *Cache) kill(v graph.NodeID) {
	c.ballOf = -1
	if c.view.Delete(v) {
		if i, ok := c.g.IndexOf(v); ok {
			c.verdict[i] = 0
		}
	}
}

// settle resolves a removal's dirty region, ascending base indices with
// possible repeats, to the live vertices it returns, as base indices in
// c.out: stale verdicts become unknown, kept ones are counted.
func (c *Cache) settle(dirty []int32) []int32 {
	out := c.out[:0]
	for i, bi := range dirty {
		if i > 0 && dirty[i-1] == bi {
			continue
		}
		if !c.view.AliveAt(int(bi)) {
			continue // removed alongside v in the same batch
		}
		switch c.verdict[bi] {
		case verdictUnknown:
		case verdictStale:
			c.stats.Invalidated++
			c.telInvalidated.Inc()
			c.verdict[bi] = verdictUnknown
		default:
			c.stats.Kept++
			c.telKept.Inc()
		}
		out = append(out, bi)
	}
	c.out = out
	c.telDirty.Observe(int64(len(out)))
	debugAuditClean(c)
	return out
}
