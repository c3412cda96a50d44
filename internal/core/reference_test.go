package core

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dcc/internal/graph"
	"dcc/internal/runner"
	"dcc/internal/telemetry"
	"dcc/internal/vpt"
)

// This file pins the byte-identical acceptance criterion of the incremental
// deletability engine: the cache-backed schedulers must produce exactly the
// Result the pre-cache engines produced. The reference engines below are
// reimplementations of the rebuild-the-graph-per-deletion code paths (see
// git history), each stating its election order independently of the
// engine under test, so any divergence — in the final graph, the deletion
// order, or the stats — is a real behavioural change, not seed drift.

// referenceSequential is the greedy one-node-at-a-time election with the
// initial test order queue (consumed).
func referenceSequential(net Network, opts Options, queue []graph.NodeID) Result {
	g := net.G
	k := vpt.NeighborhoodRadius(opts.Tau)

	inQueue := make(map[graph.NodeID]bool, len(queue))
	for _, v := range queue {
		inQueue[v] = true
	}

	var deleted []graph.NodeID
	stats := Stats{Rounds: 1}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
		if !g.HasNode(v) {
			continue
		}
		stats.Tests++
		if !vpt.VertexDeletable(g, v, opts.Tau) {
			continue
		}
		affected := g.KHopNeighbors(v, k)
		g = g.DeleteVertices([]graph.NodeID{v})
		deleted = append(deleted, v)
		for _, w := range affected {
			if !net.Boundary[w] && g.HasNode(w) && !inQueue[w] {
				inQueue[w] = true
				queue = append(queue, w)
			}
		}
	}
	return finishResult(net, g, deleted, stats)
}

// referenceParallel is the MIS round engine: each round elects the
// candidates whose RoundBid no candidate within m−1 hops beats, on a graph
// rebuilt per round.
func referenceParallel(net Network, opts Options) Result {
	g := net.G
	k := vpt.NeighborhoodRadius(opts.Tau)
	m := vpt.IndependenceRadius(opts.Tau)

	dirty := make(map[graph.NodeID]bool)
	for _, v := range net.InternalNodes() {
		dirty[v] = true
	}
	deletable := make(map[graph.NodeID]bool)

	var deleted []graph.NodeID
	var stats Stats
	for {
		var toTest []graph.NodeID
		for v := range dirty {
			if g.HasNode(v) {
				toTest = append(toTest, v)
			}
		}
		sort.Slice(toTest, func(i, j int) bool { return toTest[i] < toTest[j] })
		results, _ := runner.Map(len(toTest), opts.Workers, func(i int) (bool, error) {
			return vpt.VertexDeletable(g, toTest[i], opts.Tau), nil
		})
		stats.Tests += len(toTest)
		for i, v := range toTest {
			deletable[v] = results[i]
			delete(dirty, v)
		}

		var candidates []graph.NodeID
		for _, v := range g.Nodes() {
			if deletable[v] && !net.Boundary[v] {
				candidates = append(candidates, v)
			}
		}
		if len(candidates) == 0 {
			break
		}
		stats.Rounds++

		bids := make(map[graph.NodeID]Bid, len(candidates))
		for _, v := range candidates {
			bids[v] = RoundBid(opts.Seed, v, stats.Rounds)
		}
		var selected []graph.NodeID
		for _, v := range candidates {
			won := true
			for _, w := range g.KHopNeighbors(v, m-1) {
				if rival, ok := bids[w]; ok && rival.Beats(bids[v]) {
					won = false
				}
			}
			if won {
				selected = append(selected, v)
			}
		}

		affected := make(map[graph.NodeID]bool)
		for _, v := range selected {
			for _, w := range g.KHopNeighbors(v, k) {
				affected[w] = true
			}
		}
		g = g.DeleteVertices(selected)
		deleted = append(deleted, selected...)
		for _, v := range selected {
			delete(deletable, v)
			delete(affected, v)
		}
		//lint:ordered map-to-map write; dirty is drained into a sorted slice each round
		for w := range affected {
			if !net.Boundary[w] && g.HasNode(w) {
				dirty[w] = true
			}
		}
	}
	return finishResult(net, g, deleted, stats)
}

func compareResults(t *testing.T, label string, got, want Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Final, want.Final) {
		t.Fatalf("%s: Final graph differs (got %d nodes, want %d)", label, got.Final.NumNodes(), want.Final.NumNodes())
	}
	if !reflect.DeepEqual(got.Deleted, want.Deleted) {
		t.Fatalf("%s: deletion order differs\ngot:  %v\nwant: %v", label, got.Deleted, want.Deleted)
	}
	if !reflect.DeepEqual(got.Kept, want.Kept) || !reflect.DeepEqual(got.KeptInternal, want.KeptInternal) {
		t.Fatalf("%s: kept sets differ", label)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats differ: got %+v, want %+v", label, got.Stats, want.Stats)
	}
}

// TestSequentialMatchesReference: the cache-backed sequential engine must
// reproduce the pre-cache engine byte for byte — same final graph, same
// deletion order, same test count.
func TestSequentialMatchesReference(t *testing.T) {
	for _, tau := range []int{3, 4, 6} {
		for seed := int64(1); seed <= 3; seed++ {
			net := denseNet(t, seed, 7, 7, 1.7)
			got, err := Schedule(net, Options{Tau: tau, Seed: seed, Mode: Sequential})
			if err != nil {
				t.Fatalf("tau=%d seed=%d: %v", tau, seed, err)
			}
			order := net.InternalNodes()
			rng := rand.New(rand.NewSource(seed))
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			want := referenceSequential(net, Options{Tau: tau, Seed: seed}, order)
			compareResults(t, "sequential", got, want)
		}
	}
}

// TestParallelMatchesReference: same for the MIS round engine, across
// worker counts (the reference is itself worker-count invariant). The
// 16×16 input runs for many rounds, so the cache, the engine's only record
// of its verdicts, must carry refuted verdicts kept by their witnesses from
// round to round.
func TestParallelMatchesReference(t *testing.T) {
	for _, tau := range []int{3, 5} {
		for seed := int64(1); seed <= 2; seed++ {
			net := denseNet(t, seed, 7, 7, 1.7)
			want := referenceParallel(net, Options{Tau: tau, Seed: seed, Workers: 1})
			for _, workers := range []int{1, 4} {
				got, err := Schedule(net, Options{Tau: tau, Seed: seed, Mode: Parallel, Workers: workers})
				if err != nil {
					t.Fatalf("tau=%d seed=%d workers=%d: %v", tau, seed, workers, err)
				}
				compareResults(t, "parallel", got, want)
			}
		}
	}
	net := denseNet(t, 3, 16, 16, 2.2)
	for _, tau := range []int{4, 6} {
		for seed := int64(1); seed <= 2; seed++ {
			want := referenceParallel(net, Options{Tau: tau, Seed: seed, Workers: 1})
			reg := telemetry.New()
			got, err := Schedule(net, Options{Tau: tau, Seed: seed, Mode: Parallel, Workers: 2, Telemetry: reg})
			if err != nil {
				t.Fatalf("16x16 tau=%d seed=%d: %v", tau, seed, err)
			}
			compareResults(t, "parallel 16x16", got, want)
			if kept := reg.Counter("vpt.kept").Value(); got.Stats.Rounds < 10 || kept == 0 {
				t.Fatalf("16x16 tau=%d seed=%d: %d rounds and %d verdicts kept by witness, want at least 10 and 1", tau, seed, got.Stats.Rounds, kept)
			}
			t.Logf("16x16 tau=%d seed=%d: %d rounds, %d tests, %d verdicts kept by witness", tau, seed, got.Stats.Rounds, got.Stats.Tests, reg.Counter("vpt.kept").Value())
		}
	}
}

// TestBiasedMatchesReference pins Rotate's duty-biased engine the same way:
// its order is descending duty, then (CanonicalPriority, ID).
func TestBiasedMatchesReference(t *testing.T) {
	net := denseNet(t, 5, 6, 6, 1.7)
	duty := map[graph.NodeID]int{7: 3, 8: 1, 14: 2}
	opts := Options{Tau: 4, Seed: 5}
	got, err := scheduleBiased(net, opts, duty)
	if err != nil {
		t.Fatal(err)
	}
	order := net.InternalNodes()
	slices.SortFunc(order, func(a, b graph.NodeID) int {
		if c := cmp.Compare(duty[b], duty[a]); c != 0 {
			return c
		}
		if c := cmp.Compare(CanonicalPriority(opts.Seed, a), CanonicalPriority(opts.Seed, b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	compareResults(t, "biased", got, referenceSequential(net, opts, order))
}
