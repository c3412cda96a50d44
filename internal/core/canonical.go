package core

import (
	"cmp"
	"slices"

	"dcc/internal/graph"
	"dcc/internal/runner"
	"dcc/internal/vpt"
)

// The canonical scheduling engine. Sequential shuffles its work order
// from a live rand.Rand, so two runs over the same topology agree only if
// they replay the same deletion history — which a streaming engine that
// crashes, recovers, and batches events cannot promise.
// Canonical removes the history: the election's FIFO queue starts with the
// internal nodes in increasing (priority, ID) order, where the per-node
// priorities are a pure function of (seed, node ID), and a dirtied node
// rejoins at the back in the increasing-ID order a deletion's dirty
// region comes in. The
// deletion order, and with it the kept set, is then a pure function of the
// topology. That is the property the streaming layer's convergence
// contract stands on (DESIGN.md §13): any two paths to the same
// materialized topology — event replay, WAL recovery, from-scratch batch —
// elect byte-identical covers.

// streamCanonicalPriority is the DeriveSeed stream of the canonical
// engine's per-node deletion priorities (the node ID rides in the run
// slot). The value spells "cano" in ASCII and stays far above the
// experiment stream table in internal/experiments/streams.go;
// TestStreamRegistry pins the separation.
const streamCanonicalPriority uint64 = 0x63616e6f

// CanonicalPriority returns the deletion priority of v under base seed
// seed: the canonical election's first pass tests lower priorities first,
// and ties cannot occur across distinct nodes of one run because the pair
// (priority, ID) is totally ordered. Exported so the streaming engine's
// memoized re-election (internal/stream) provably replays the same order.
func CanonicalPriority(seed int64, v graph.NodeID) uint64 {
	return uint64(runner.DeriveSeed(seed, streamCanonicalPriority, int(v)))
}

// newCanonicalQueue returns the canonical election's queue: the candidates,
// nodes of g, in increasing (CanonicalPriority, ID) order. The caller's
// slice is not retained.
func newCanonicalQueue(g *graph.Graph, seed int64, candidates []graph.NodeID) *fifoQueue {
	type ranked struct {
		prio uint64
		v    graph.NodeID
	}
	rs := make([]ranked, len(candidates))
	for i, v := range candidates {
		rs[i] = ranked{CanonicalPriority(seed, v), v}
	}
	slices.SortFunc(rs, func(a, b ranked) int {
		if c := cmp.Compare(a.prio, b.prio); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	order := make([]graph.NodeID, len(rs))
	for i, r := range rs {
		order[i] = r.v
	}
	return newFIFOQueue(g, order)
}

// CanonicalElect runs the greedy election (see elect) to fixpoint over
// cache in canonical order: internal nodes are first tested in increasing
// (CanonicalPriority, ID) order, a deletable node is committed
// immediately, and the dirtied survivors rejoin the back of the queue in
// increasing ID order. test supplies the deletability verdict of a node on
// the current residual — cache.Deletable for the batch engine; the
// streaming engine runs the same loop through Replay with its
// fingerprint-memoized variant — and MUST equal
// VertexDeletable on the materialized live graph, or the fixpoint diverges
// from the canonical one. Returns the deleted nodes in deletion order and
// the number of tests.
//
// The loop is shared by every engine on purpose: the convergence contract
// ("streaming state equals the batch schedule of the materialized
// topology") then reduces to the equality of the two verdict functions,
// which the dccdebug cross-checks and the differential suite verify.
//
// The queue is built on cache.View().Base(), the graph whose dense
// indices the cache's deletions return, so cache may be over any graph
// that holds net's internal nodes.
func CanonicalElect(net Network, seed int64, cache *vpt.Cache, test func(v graph.NodeID) bool) (deleted []graph.NodeID, tests int) {
	return elect(cacheResidual{cache}, newCanonicalQueue(cache.View().Base(), seed, net.InternalNodes()), test, nil)
}

func scheduleCanonical(net Network, opts Options) (Result, error) {
	cache := vpt.NewCache(net.G, opts.Tau)
	cache.Instrument(opts.Telemetry)
	return electResult(net, cache, newCanonicalQueue(cache.View().Base(), opts.Seed, net.InternalNodes())), nil
}
