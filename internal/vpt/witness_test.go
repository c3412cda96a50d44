package vpt

import (
	"slices"
	"testing"

	"dcc/internal/graph"
)

// refutedBy computes v's verdict on c, which must be "no", and returns the
// refutation that decided it.
func refutedBy(t *testing.T, c *Cache, v graph.NodeID) Refutation {
	t.Helper()
	before := c.Stats().Refuted
	if c.Deletable(v) {
		t.Fatalf("node %d is deletable", v)
	}
	after := c.Stats().Refuted
	for k := range after {
		if after[k] != before[k] {
			return Refutation(k)
		}
	}
	t.Fatalf("no refutation counted for node %d", v)
	return 0
}

// TestWitnessPerRefutation pins the witness rule once per refutation kind:
// deleting a node of Γ^k(v) outside the witness keeps v's "no" cached, and
// it still equals fresh recomputation; deleting a witness node, alone or in
// a batch with the other, invalidates it.
func TestWitnessPerRefutation(t *testing.T) {
	mustEdges := func(edges ...graph.Edge) *graph.Graph {
		g, err := graph.FromEdges(edges)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// A hub 0 inside the ring 1…6, with a pendant 7 on ring node 1.
	hub := []graph.Edge{{U: 1, V: 7}, {U: 1, V: 6}}
	for i := graph.NodeID(1); i <= 6; i++ {
		hub = append(hub, graph.Edge{U: 0, V: i})
		if i < 6 {
			hub = append(hub, graph.Edge{U: i, V: i + 1})
		}
	}
	cases := []struct {
		name    string
		g       *graph.Graph
		tau     int
		kind    Refutation
		outside graph.NodeID   // a node of Γ^k(0) off the witness
		inside  []graph.NodeID // the witness, empty when none is needed
	}{
		// τ = 2 < 3 refutes everything.
		{"empty", graph.Complete(3), 2, RefutedEmpty, 1, nil},
		// Γ²(0) = {1, 3} ∪ {2, 4}.
		{"disconnected", mustEdges(graph.Edge{U: 0, V: 1}, graph.Edge{U: 0, V: 2}, graph.Edge{U: 1, V: 3}, graph.Edge{U: 2, V: 4}),
			3, RefutedDisconnected, 3, []graph.NodeID{1, 2}},
		// 0's neighbours 1 and 2 are two hops apart in Γ²(0) = 1-3-2.
		{"unconfined", mustEdges(graph.Edge{U: 0, V: 1}, graph.Edge{U: 0, V: 2}, graph.Edge{U: 1, V: 3}, graph.Edge{U: 2, V: 3}),
			3, RefutedUnconfined, 3, nil},
		// Γ²(0) is the 6-ring plus the pendant; the ring is no sum of
		// triangles.
		{"unspanned", mustEdges(hub...), 3, RefutedUnspanned, 7, []graph.NodeID{1, 2, 3, 4, 5, 6}},
	}
	for _, tc := range cases {
		c := NewCache(tc.g, tc.tau)
		if got := refutedBy(t, c, 0); got != tc.kind {
			t.Fatalf("%s: refuted by %d, want %d", tc.name, got, tc.kind)
		}
		got := slices.Clone(c.tester.wit)
		slices.Sort(got)
		if !slices.Equal(got, tc.inside) {
			t.Fatalf("%s: witness %v, want %v", tc.name, got, tc.inside)
		}
		dirty := c.Commit([]graph.NodeID{tc.outside})
		if !slices.Contains(dirty, 0) {
			t.Fatalf("%s: deleting %d did not dirty node 0: %v", tc.name, tc.outside, dirty)
		}
		if _, ok := c.Cached(0); !ok || c.Stats().Kept != 1 || c.Stats().Invalidated != 0 {
			t.Fatalf("%s: deleting %d off the witness did not keep the verdict (stats %+v)", tc.name, tc.outside, c.Stats())
		}
		checkAgainstFresh(t, c, tc.name+" after deleting off the witness")

		for _, w := range tc.inside {
			for _, batch := range [][]graph.NodeID{{w}, {tc.outside, w}} {
				c := NewCache(tc.g, tc.tau)
				refutedBy(t, c, 0)
				c.Commit(batch)
				if _, ok := c.Cached(0); ok {
					t.Fatalf("%s: deleting %v, which holds witness node %d, kept the verdict", tc.name, batch, w)
				}
				checkAgainstFresh(t, c, tc.name+" after deleting a witness node")
			}
		}
	}
}

// TestWitnessKeptUntilRestore: a "no" with an empty witness survives every
// deletion in its ball, direct neighbours included. A Cache's live set only
// shrinks (a revival means a new Cache), so the verdict goes only with its
// own node.
func TestWitnessKeptUntilRestore(t *testing.T) {
	g, _ := graph.FromEdges([]graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}})
	c := NewCache(g, 3)
	if refutedBy(t, c, 0) != RefutedUnconfined {
		t.Fatal("node 0 should be unconfined")
	}
	for _, w := range []graph.NodeID{3, 1, 2} {
		c.Commit([]graph.NodeID{w})
		if _, ok := c.Cached(0); !ok {
			t.Fatalf("deleting %d dropped a verdict with no witness", w)
		}
		checkAgainstFresh(t, c, "after deletions")
	}
	c.Commit([]graph.NodeID{0})
	if _, ok := c.Cached(0); ok {
		t.Fatal("a deleted node kept its verdict")
	}
}

// TestVerdictWord pins the one-word encoding the streaming memo relies on:
// the marks and the witness-free "no" never read as deletable, a "no"
// signature never reaches bit 63, every node touches the yes verdict and
// the witness-free "no", and none touches the empty witness or the
// unknown mark.
func TestVerdictWord(t *testing.T) {
	for _, x := range []Verdict{0, refutedAnywhere, verdictUnknown, verdictStale} {
		if x.Deletable() {
			t.Fatalf("%x reads as deletable", uint64(x))
		}
	}
	for v := graph.NodeID(0); v < 5000; v += 7 {
		m := probes(v)
		if m == 0 || m&verdictUnknown != 0 {
			t.Fatalf("probes(%d) = %x: empty or reaching bit 63", v, uint64(m))
		}
		if !VerdictDeletable.touchedBy(m) || !refutedAnywhere.touchedBy(m) || !m.touchedBy(m) {
			t.Fatalf("node %d misses a verdict that holds all its bits", v)
		}
		if Verdict(0).touchedBy(m) || verdictUnknown.touchedBy(m) {
			t.Fatalf("node %d touches the empty witness or the unknown mark", v)
		}
	}
}

// TestCachedAndStoreVerdict: Cached reports clean verdicts of live nodes
// only, and StoreVerdict round-trips a verdict with its witness into
// another cache over the same graph.
func TestCachedAndStoreVerdict(t *testing.T) {
	g := graph.TriangulatedGrid(5, 5)
	a, b := NewCache(g, 4), NewCache(g, 4)
	if _, ok := a.Cached(7); ok {
		t.Fatal("Cached before any verdict")
	}
	if _, ok := a.Cached(999); ok {
		t.Fatal("Cached on an absent node")
	}
	for _, v := range a.LiveNodes() {
		want := a.Deletable(v)
		x, ok := a.Cached(v)
		if !ok || x.Deletable() != want {
			t.Fatalf("Cached(%d) = %x, %v after Deletable = %v", v, uint64(x), ok, want)
		}
		b.StoreVerdict(v, x)
	}
	for _, v := range []graph.NodeID{6, 18} {
		da, db := a.Commit([]graph.NodeID{v}), b.Commit([]graph.NodeID{v})
		if !slices.Equal(da, db) || a.Stats().Kept != b.Stats().Kept {
			t.Fatalf("caches diverged after deleting %d: kept %d vs %d", v, a.Stats().Kept, b.Stats().Kept)
		}
		if _, ok := b.Cached(v); ok {
			t.Fatalf("Cached reports dead node %d", v)
		}
	}
	checkAgainstFresh(t, b, "stored verdicts after commits")
}
