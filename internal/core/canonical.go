package core

import (
	"container/heap"

	"dcc/internal/graph"
	"dcc/internal/runner"
	"dcc/internal/vpt"
)

// The canonical scheduling engine. Sequential and Parallel shuffle their
// work orders from a live rand.Rand, so two runs over the same topology
// agree only if they replay the same deletion history — which a streaming
// engine that crashes, recovers, and batches events cannot promise.
// Canonical removes the history: the deletion order is a fixed
// priority-queue order whose per-node priorities are a pure function of
// (seed, node ID), making the kept set a pure function of the topology.
// That is the property the streaming layer's convergence contract stands
// on (DESIGN.md §13): any two paths to the same materialized topology —
// event replay, WAL recovery, from-scratch batch — elect byte-identical
// covers.

// streamCanonicalPriority is the DeriveSeed stream of the canonical
// engine's per-node deletion priorities (the node ID rides in the run
// slot). The value spells "cano" in ASCII and stays far above the
// experiment stream table in internal/experiments/streams.go, next to
// streamBiasedShuffle ("bias"); TestStreamRegistry pins the separation.
const streamCanonicalPriority uint64 = 0x63616e6f

// CanonicalPriority returns the deletion priority of v under base seed
// seed: lower priorities are tested (and therefore deleted) first, ties
// cannot occur across distinct nodes of one run because the pair (priority,
// ID) is totally ordered. Exported so the streaming engine's memoized
// re-election (internal/stream) provably replays the same order.
func CanonicalPriority(seed int64, v graph.NodeID) uint64 {
	return uint64(runner.DeriveSeed(seed, streamCanonicalPriority, int(v)))
}

// prioItem is one pending deletability test of the canonical engine.
type prioItem struct {
	prio uint64
	v    graph.NodeID
}

// prioQueue is a min-heap on (priority, ID).
type prioQueue []prioItem

func (q prioQueue) Len() int { return len(q) }
func (q prioQueue) Less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio < q[j].prio
	}
	return q[i].v < q[j].v
}
func (q prioQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *prioQueue) Push(x any)   { *q = append(*q, x.(prioItem)) }
func (q *prioQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// electionQueue is the canonical election's workQueue: a min-heap over
// (CanonicalPriority, ID) with pending-set deduplication. Popping a node
// marks it not-pending; pushing a node that is already pending, or that
// the queue was not seeded with, is a no-op, so a candidate is tested at
// most once per dirtying no matter how many commits touched its
// neighbourhood. The priority is a pure function of (seed, ID), so a
// re-pushed node re-enters at exactly its canonical position.
type electionQueue struct {
	seed    int64
	q       prioQueue
	pending map[graph.NodeID]bool // key present ⇔ candidate
}

// newElectionQueue returns a queue seeded with the given candidates, all
// pending.
func newElectionQueue(seed int64, nodes []graph.NodeID) *electionQueue {
	eq := &electionQueue{
		seed:    seed,
		q:       make(prioQueue, 0, len(nodes)),
		pending: make(map[graph.NodeID]bool, len(nodes)),
	}
	for _, v := range nodes {
		eq.q = append(eq.q, prioItem{prio: CanonicalPriority(seed, v), v: v})
		eq.pending[v] = true
	}
	heap.Init(&eq.q)
	return eq
}

// Pop returns the pending node with the smallest (priority, ID), marking
// it not-pending, with ok = false when the queue is exhausted. Stale
// entries (popped nodes re-tested since their last dirtying) are skipped.
func (eq *electionQueue) Pop() (v graph.NodeID, ok bool) {
	for eq.q.Len() > 0 {
		it := heap.Pop(&eq.q).(prioItem)
		if !eq.pending[it.v] {
			continue // stale entry: already tested since it was last dirtied
		}
		eq.pending[it.v] = false
		return it.v, true
	}
	return 0, false
}

// Push marks the candidate v pending and enqueues it at its canonical
// priority; a no-op if v is already pending or not a candidate.
func (eq *electionQueue) Push(v graph.NodeID) {
	if pending, ok := eq.pending[v]; !ok || pending {
		return
	}
	eq.pending[v] = true
	heap.Push(&eq.q, prioItem{prio: CanonicalPriority(eq.seed, v), v: v})
}

// CanonicalElect runs the greedy election (see elect) to fixpoint over
// cache in canonical order: internal nodes are tested in increasing
// (CanonicalPriority, ID) order, a deletable node is committed
// immediately, and the dirtied survivors re-enter the queue. test supplies
// the deletability verdict of a node on the current residual —
// cache.Deletable for the batch engine, the fingerprint-memoized variant
// for the streaming engine — and MUST equal VertexDeletable on the
// materialized live graph, or the fixpoint diverges from the canonical
// one. Returns the deleted nodes in deletion order and the number of tests.
//
// The loop is shared by every engine on purpose: the convergence contract
// ("streaming state equals the batch schedule of the materialized
// topology") then reduces to the equality of the two verdict functions,
// which the dccdebug cross-checks and the differential suite verify.
func CanonicalElect(net Network, seed int64, cache *vpt.Cache, test func(v graph.NodeID) bool) (deleted []graph.NodeID, tests int) {
	return CanonicalElectOver(cache, seed, net.InternalNodes(), test)
}

// CanonicalElectOver is CanonicalElect over any residual: the candidates
// (the internal nodes; dirtied nodes outside them are never tested) are
// tested in increasing (CanonicalPriority, ID) order with test, and
// deletions are committed to res. The shard engine runs it over its
// regions (internal/shard), so the sharded and unsharded schedules are the
// same loop by construction.
func CanonicalElectOver(res Residual, seed int64, candidates []graph.NodeID, test func(v graph.NodeID) bool) (deleted []graph.NodeID, tests int) {
	return elect(res, newElectionQueue(seed, candidates), test)
}

func scheduleCanonical(net Network, opts Options) (Result, error) {
	cache := vpt.NewCache(net.G, opts.Tau)
	cache.Instrument(opts.Telemetry)
	return electResult(net, cache, newElectionQueue(opts.Seed, net.InternalNodes())), nil
}
