package core

import (
	"reflect"
	"testing"

	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// TestCanonicalPreservesCriterion: the canonical engine is still a maximal
// vertex deletion under the void-preserving transformation — the criterion
// survives and the result is non-redundant.
func TestCanonicalPreservesCriterion(t *testing.T) {
	net := denseNet(t, 41, 7, 7, 1.6)
	for _, tau := range []int{3, 4, 5} {
		res, err := Schedule(net, Options{Tau: tau, Seed: 9, Mode: Canonical})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := VerifyConfine(res.Final, net.BoundaryCycles, tau)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("tau %d: canonical schedule broke the criterion", tau)
		}
		nr, v, err := VerifyNonRedundant(net, res.Final, tau)
		if err != nil {
			t.Fatal(err)
		}
		if !nr {
			t.Fatalf("tau %d: canonical result redundant at node %d", tau, v)
		}
		if res.Stats.Rounds != 1 || res.Stats.Tests == 0 || res.Stats.Deletions != len(res.Deleted) {
			t.Fatalf("tau %d: implausible stats %+v", tau, res.Stats)
		}
	}
}

// TestCanonicalIsPureFunctionOfTopology pins the property the streaming
// convergence contract stands on: the canonical schedule depends only on
// (topology, tau, seed) — identical across repeated runs, and identical on
// a structurally equal graph rebuilt through a different code path.
func TestCanonicalIsPureFunctionOfTopology(t *testing.T) {
	net := denseNet(t, 43, 6, 6, 1.6)
	opts := Options{Tau: 4, Seed: 17, Mode: Canonical}
	a, err := Schedule(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Kept, b.Kept) || !reflect.DeepEqual(a.Deleted, b.Deleted) {
		t.Fatal("canonical schedule differs across identical runs")
	}

	// Rebuild the same topology through the overlay materialization path
	// (a different constructor than the deployment used) and re-schedule.
	rebuilt := net
	rebuilt.G = graph.NewDeleteView(net.G).Materialize()
	c, err := Schedule(rebuilt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Kept, c.Kept) || !reflect.DeepEqual(a.Deleted, c.Deleted) {
		t.Fatal("canonical schedule differs on a structurally equal rebuilt graph")
	}

	// A different seed is allowed (and on dense nets, expected) to elect a
	// different deletion order.
	d, err := Schedule(net, Options{Tau: 4, Seed: 18, Mode: Canonical})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Kept) == 0 {
		t.Fatal("schedule with alternate seed kept nothing")
	}
}

// TestCanonicalElectMatchesSchedule: the exported loop with cache.Deletable
// as the verdict function is exactly the Canonical mode — the identity the
// streaming engine's memoized re-election builds on.
func TestCanonicalElectMatchesSchedule(t *testing.T) {
	net := denseNet(t, 47, 6, 6, 1.6)
	opts := Options{Tau: 3, Seed: 5, Mode: Canonical}
	res, err := Schedule(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	cache := vpt.NewCache(net.G, opts.Tau)
	deleted, tests := CanonicalElect(net, opts.Seed, cache, cache.Deletable)
	if !reflect.DeepEqual(deleted, res.Deleted) {
		t.Fatalf("CanonicalElect deleted %v, Schedule deleted %v", deleted, res.Deleted)
	}
	if tests != res.Stats.Tests {
		t.Fatalf("CanonicalElect tests = %d, Schedule reported %d", tests, res.Stats.Tests)
	}
	if !reflect.DeepEqual(cache.LiveNodes(), res.Kept) {
		t.Fatal("CanonicalElect live set differs from Schedule kept set")
	}
}

// TestCanonicalPriorityTotalOrder: priorities pair with IDs into a total
// order — distinct nodes never compare equal under (priority, ID), and the
// function is stable across calls.
func TestCanonicalPriorityTotalOrder(t *testing.T) {
	seen := make(map[uint64]graph.NodeID)
	for v := graph.NodeID(0); v < 4096; v++ {
		p := CanonicalPriority(7, v)
		if p != CanonicalPriority(7, v) {
			t.Fatalf("priority of %d unstable", v)
		}
		if prev, dup := seen[p]; dup {
			// Equal priorities are tolerated (the ID breaks the tie) but at
			// 4096 draws from a 64-bit space any collision means the
			// derivation is degenerate.
			t.Fatalf("priority collision between nodes %d and %d", prev, v)
		}
		seen[p] = v
	}
}

// TestElectionQueueContract: the canonical queue's dedup/stale-skip
// semantics, which keep the test count canonical — Pop skips stale
// entries, Push while pending is a no-op so a node is tested at most once
// per dirtying, and Push of a node the queue was not seeded with (a
// boundary node) is a no-op.
func TestElectionQueueContract(t *testing.T) {
	nodes := []graph.NodeID{0, 1, 2, 3, 4}
	eq := newElectionQueue(3, nodes)
	v, ok := eq.Pop()
	if !ok {
		t.Fatal("Pop on a seeded queue returned ok = false")
	}

	// Re-pushing the popped node re-enqueues at its canonical priority;
	// pushing it again while pending must be a no-op (no duplicate test).
	// A non-candidate is never enqueued.
	eq.Push(v)
	eq.Push(v)
	eq.Push(99)
	order := []graph.NodeID{v}
	seen := map[graph.NodeID]int{v: 1}
	for {
		w, ok := eq.Pop()
		if !ok {
			break
		}
		order = append(order, w)
		seen[w]++
	}
	if len(order) != len(nodes)+1 {
		t.Fatalf("popped %d nodes, want %d (the re-pushed head plus the rest)", len(order), len(nodes)+1)
	}
	if seen[v] != 2 {
		t.Fatalf("re-pushed node %d popped %d times, want exactly 2", v, seen[v])
	}
	if seen[99] != 0 {
		t.Fatal("a node outside the candidate set was popped")
	}
	if order[0] != v {
		t.Fatalf("re-pushed head popped as %d, want %d first (priority is a pure function of seed and ID)", order[0], v)
	}
	// order[0] and order[1] are both v (the re-pushed head), so strict
	// (priority, ID) ascent starts at the second pop.
	for i := 2; i < len(order); i++ {
		pi, pj := CanonicalPriority(3, order[i-1]), CanonicalPriority(3, order[i])
		if pi > pj || (pi == pj && order[i-1] >= order[i]) {
			t.Fatalf("pop order violates (priority, ID) at %d: %v", i, order)
		}
	}
	if _, ok := eq.Pop(); ok {
		t.Fatal("Pop on an exhausted queue returned ok")
	}

	// A stale heap entry is skipped: re-push the head, pop it, and the
	// next pop must be the other node, not the head again.
	eq2 := newElectionQueue(3, []graph.NodeID{1, 2})
	first, _ := eq2.Pop()
	eq2.Push(first)
	second, _ := eq2.Pop()
	if second != first {
		t.Fatalf("re-pushed head popped as %d, want %d", second, first)
	}
	if w, ok := eq2.Pop(); !ok || w == first {
		t.Fatalf("Pop = (%d, %v), want the remaining pending node", w, ok)
	}
}
