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

// TestElectionQueueContract: the canonical queue's FIFO contract, which
// keeps the deletion order and the test count canonical — the first pops
// come in (priority, ID) order, a re-pushed node rejoins at the back, and
// a Push while the node is pending, or of a node the queue was not seeded
// with (a boundary node), is a no-op, so a node is tested at most once per
// dirtying. Push reports whether it enqueued.
func TestElectionQueueContract(t *testing.T) {
	nodes := []graph.NodeID{4, 0, 3, 1, 2}
	q := newCanonicalQueue(3, nodes)
	first, ok := q.Pop()
	if !ok {
		t.Fatal("Pop on a seeded queue returned ok = false")
	}
	// The popped head rejoins at the back. Pushing it again while it is
	// pending, pushing the nodes still pending from the seed, and pushing
	// a non-candidate are no-ops.
	if !q.Push(first) {
		t.Fatalf("Push of the popped node %d reported no entry", first)
	}
	for _, v := range nodes {
		if q.Push(v) {
			t.Fatalf("Push of the pending node %d reported an entry", v)
		}
	}
	if q.Push(99) {
		t.Fatal("Push of a non-candidate reported an entry")
	}
	second, _ := q.Pop()
	if !q.Push(second) {
		t.Fatalf("Push of the popped node %d reported no entry", second)
	}
	order := []graph.NodeID{first, second}
	for {
		w, ok := q.Pop()
		if !ok {
			break
		}
		order = append(order, w)
	}
	if len(order) != len(nodes)+2 {
		t.Fatalf("popped %v, want the %d seeded nodes and the two re-pushed ones", order, len(nodes))
	}
	for i := 1; i < len(nodes); i++ {
		pi, pj := CanonicalPriority(3, order[i-1]), CanonicalPriority(3, order[i])
		if pi > pj || (pi == pj && order[i-1] >= order[i]) {
			t.Fatalf("seeded pops violate (priority, ID) at %d: %v", i, order)
		}
	}
	if tail := order[len(nodes):]; tail[0] != first || tail[1] != second {
		t.Fatalf("re-pushed nodes popped as %v, want [%d %d] at the back in push order", tail, first, second)
	}
	if !reflect.DeepEqual(nodes, []graph.NodeID{4, 0, 3, 1, 2}) {
		t.Fatalf("newCanonicalQueue reordered its argument: %v", nodes)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on an exhausted queue returned ok")
	}
}
