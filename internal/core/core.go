// Package core implements the paper's primary contribution: the DCC
// (distributed confine coverage) scheduling algorithm and the
// cycle-partition coverage criterion it maintains.
//
// The package is purely graph-theoretic — it never sees coordinates. Its
// input is a connectivity graph plus the boundary information the paper
// assumes as given (§III-A): which nodes are boundary nodes, and the
// boundary cycles (as vertex orders). Its output is a sparse coverage set:
// a subgraph in which the boundary cycles remain τ-partitionable
// (Propositions 2/3) and from which no further node can be removed by the
// void-preserving transformation.
//
// Two election rules are provided:
//
//   - the greedy one-node-at-a-time election (Sequential, Canonical,
//     Rotate and the streaming engine's replay), the reference oracle; and
//   - round-based parallel deletion of m-hop independent sets elected by
//     hashed bids (Bid), the rule the distributed runtime (internal/dist)
//     runs with real message passing: a fault-free distributed run deletes
//     what Parallel deletes, in the same order.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"dcc/internal/bitvec"
	"dcc/internal/cycles"
	"dcc/internal/graph"
	"dcc/internal/runner"
	"dcc/internal/telemetry"
	"dcc/internal/vpt"
)

// ErrNoFeasibleTau is returned by PlanTau when no confine size ≥ 3
// satisfies the coverage requirement.
var ErrNoFeasibleTau = errors.New("core: no feasible confine size for the requirement")

// ErrTauTooSmall is wrapped by every scheduling entry point handed a
// confine size below the minimum of 3 (a 2-gon is not a cycle; the
// void-preserving transformation is undefined). Match with errors.Is.
var ErrTauTooSmall = errors.New("core: confine size below the minimum of 3")

// errNilGraph reports a nil graph where a network or a reduced graph is
// required.
var errNilGraph = errors.New("core: nil graph")

// Network is the graph-theoretic input of the scheduler.
type Network struct {
	// G is the connectivity graph.
	G *graph.Graph
	// Boundary marks undeletable nodes (the periphery band, plus any
	// virtual repair nodes).
	Boundary map[graph.NodeID]bool
	// BoundaryCycles holds the boundary cycles as vertex orders, outer
	// cycle first. Every listed vertex must be in Boundary.
	BoundaryCycles [][]graph.NodeID
}

// Validate checks structural consistency of the network description.
func (n Network) Validate() error {
	if n.G == nil {
		return errNilGraph
	}
	if len(n.BoundaryCycles) == 0 {
		return errors.New("core: no boundary cycles")
	}
	for ci, cyc := range n.BoundaryCycles {
		if len(cyc) < 3 {
			return fmt.Errorf("core: boundary cycle %d has %d vertices", ci, len(cyc))
		}
		for i := range cyc {
			if !n.G.HasNode(cyc[i]) {
				return fmt.Errorf("core: boundary cycle %d vertex %d not in graph", ci, cyc[i])
			}
			if !n.Boundary[cyc[i]] {
				return fmt.Errorf("core: boundary cycle %d vertex %d not marked as boundary", ci, cyc[i])
			}
			if _, ok := n.G.EdgeIndex(cyc[i], cyc[(i+1)%len(cyc)]); !ok {
				return fmt.Errorf("core: boundary cycle %d edge {%d,%d} missing",
					ci, cyc[i], cyc[(i+1)%len(cyc)])
			}
		}
	}
	return nil
}

// InternalNodes returns the nodes of g not marked as boundary, sorted.
func (n Network) InternalNodes() []graph.NodeID {
	var out []graph.NodeID
	for _, v := range n.G.Nodes() {
		if !n.Boundary[v] {
			out = append(out, v)
		}
	}
	return out
}

// BoundaryTarget returns the GF(2) sum of the boundary cycles as an
// incidence vector over g's edge indices. g must contain every boundary
// edge (boundary nodes are never deleted, so this holds across scheduling).
func BoundaryTarget(g *graph.Graph, boundaryCycles [][]graph.NodeID) (bitvec.Vector, error) {
	target := bitvec.New(g.NumEdges())
	for ci, cyc := range boundaryCycles {
		c, err := cycles.FromVertices(g, cyc)
		if err != nil {
			return bitvec.Vector{}, fmt.Errorf("boundary cycle %d: %w", ci, err)
		}
		target.Xor(c.Vector(g.NumEdges()))
	}
	return target, nil
}

// VerifyConfine checks the global cycle-partition coverage criterion
// (Propositions 2 and 3): the GF(2) sum of the boundary cycles must be
// expressible as a sum of cycles of length ≤ tau in g. A tau below 3 is
// rejected with a wrapped ErrTauTooSmall, and a nil g with an error.
func VerifyConfine(g *graph.Graph, boundaryCycles [][]graph.NodeID, tau int) (bool, error) {
	if tau < 3 {
		return false, fmt.Errorf("core: tau %d: %w", tau, ErrTauTooSmall)
	}
	if g == nil {
		return false, errNilGraph
	}
	target, err := BoundaryTarget(g, boundaryCycles)
	if err != nil {
		return false, err
	}
	return cycles.Partitionable(g, target, tau), nil
}

// ErrNotAchievable is returned by AchievableTau when no confine size within
// the bound makes the boundary partitionable.
var ErrNotAchievable = errors.New("core: boundary not partitionable within the tau bound")

// AchievableTau returns the smallest confine size τ ∈ [3, maxTau] for which
// the boundary cycles are τ-partitionable in the network's graph. Scheduling
// with τ below this value preserves nothing (Theorem 5's precondition
// fails); scheduling at or above it is guaranteed to keep the criterion.
func AchievableTau(net Network, maxTau int) (int, error) {
	if err := net.Validate(); err != nil {
		return 0, err
	}
	target, err := BoundaryTarget(net.G, net.BoundaryCycles)
	if err != nil {
		return 0, err
	}
	for tau := 3; tau <= maxTau; tau++ {
		if cycles.Partitionable(net.G, target, tau) {
			return tau, nil
		}
	}
	return 0, ErrNotAchievable
}

// Mode selects the scheduling engine.
type Mode int

const (
	// Sequential deletes one locally-deletable node at a time (reference
	// oracle for the distributed algorithm).
	Sequential Mode = iota + 1
	// Parallel deletes an m-hop independent set of candidates per round,
	// elected by the distributed protocol's hashed bids (see Bid).
	Parallel
	// Canonical tests the nodes first in an order derived from (Seed,
	// node ID) alone, dirtied nodes rejoining at the back in ID order,
	// making the kept set a pure function of the topology — the
	// replay-independent mode the streaming engine's convergence contract
	// is stated against (see canonical.go).
	Canonical
)

// Options configures scheduling.
type Options struct {
	// Tau is the confine size (≥ 3).
	Tau int
	// Seed drives the node order and Parallel's round bids (RoundBid).
	Seed int64
	// Mode selects the engine; default Sequential.
	Mode Mode
	// Workers bounds the concurrency of deletability tests in Parallel
	// mode; 0 means GOMAXPROCS.
	Workers int
	// Telemetry, when non-nil, receives the run's metrics: the core.runs /
	// core.rounds / core.tests / core.deletions counters, the vpt cache
	// series (vpt.lookups, vpt.computes, vpt.invalidated, vpt.dirty_ball),
	// and — when the registry has a clock — the core.schedule span. All
	// deterministic series are worker-count-invariant; collection never
	// changes the Result.
	Telemetry *telemetry.Registry
}

// Stats records the work performed by a scheduling run. The field
// vocabulary (Rounds, Tests, Deletions) is shared with the distributed
// runtime's Stats so centralized and distributed runs report comparably.
type Stats struct {
	// Rounds is the number of deletion rounds (1 for sequential runs).
	Rounds int
	// Tests counts void-preserving-transformation evaluations.
	Tests int
	// Deletions counts removed nodes.
	Deletions int
}

// Result is the output of a scheduling run.
type Result struct {
	// Final is the reduced graph: the coverage set plus boundary nodes.
	Final *graph.Graph
	// Kept lists the remaining nodes (boundary and internal), sorted.
	Kept []graph.NodeID
	// KeptInternal lists the remaining internal (non-boundary) nodes.
	KeptInternal []graph.NodeID
	// Deleted lists the removed nodes, in deletion order.
	Deleted []graph.NodeID
	// Stats summarises the run.
	Stats Stats
}

// Schedule runs maximal vertex deletion under the τ-void-preserving
// transformation and returns the resulting sparse coverage set.
func Schedule(net Network, opts Options) (Result, error) {
	if err := net.Validate(); err != nil {
		return Result{}, err
	}
	if opts.Tau < 3 {
		return Result{}, fmt.Errorf("core: tau %d: %w", opts.Tau, ErrTauTooSmall)
	}
	if opts.Mode == 0 {
		opts.Mode = Sequential
	}
	sp := opts.Telemetry.StartSpan("core.schedule")
	defer sp.End()
	var (
		res Result
		err error
	)
	switch opts.Mode {
	case Sequential:
		res, err = scheduleSequential(net, opts)
	case Parallel:
		res, err = scheduleParallel(net, opts)
	case Canonical:
		res, err = scheduleCanonical(net, opts)
	default:
		return Result{}, fmt.Errorf("core: unknown mode %d", opts.Mode)
	}
	if err == nil && opts.Telemetry != nil {
		reg := opts.Telemetry
		reg.Counter("core.runs").Inc()
		reg.Counter("core.rounds").Add(int64(res.Stats.Rounds))
		reg.Counter("core.tests").Add(int64(res.Stats.Tests))
		reg.Counter("core.deletions").Add(int64(res.Stats.Deletions))
	}
	return res, err
}

func finishResult(net Network, g *graph.Graph, deleted []graph.NodeID, stats Stats) Result {
	kept := g.Nodes()
	var internal []graph.NodeID
	for _, v := range kept {
		if !net.Boundary[v] {
			internal = append(internal, v)
		}
	}
	stats.Deletions = len(deleted)
	return Result{
		Final:        g,
		Kept:         kept,
		KeptInternal: internal,
		Deleted:      deleted,
		Stats:        stats,
	}
}

func scheduleSequential(net Network, opts Options) (Result, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	cache := vpt.NewCache(net.G, opts.Tau)
	cache.Instrument(opts.Telemetry)
	order := net.InternalNodes()
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return electResult(net, cache, newFIFOQueue(order)), nil
}

// fifoQueue is the node order of the greedy election over a fixed set of
// candidates, the nodes it was seeded with, and the one queue every
// one-node-at-a-time engine runs: nodes are tested in their initial order
// (a seeded shuffle for Sequential, (CanonicalPriority, ID) for Canonical,
// duty and then that canonical order for Rotate), and dirtied nodes rejoin
// at the back. Pop returns the next pending candidate (ok = false once
// none is left) and marks it not-pending; Push re-enqueues a candidate and
// is a no-op while that candidate is still pending, so a node is tested at
// most once per dirtying. Pushing a node outside the candidate set (a
// boundary node) is a no-op too. Push reports whether it enqueued: whether
// the push created a queue entry.
type fifoQueue struct {
	q       []graph.NodeID
	pending map[graph.NodeID]bool // key present ⇔ candidate
}

func newFIFOQueue(order []graph.NodeID) *fifoQueue {
	f := &fifoQueue{q: order, pending: make(map[graph.NodeID]bool, len(order))}
	for _, v := range order {
		f.pending[v] = true
	}
	return f
}

func (f *fifoQueue) Pop() (graph.NodeID, bool) {
	if len(f.q) == 0 {
		return 0, false
	}
	v := f.q[0]
	f.q = f.q[1:]
	f.pending[v] = false
	return v, true
}

func (f *fifoQueue) Push(v graph.NodeID) bool {
	if pending, ok := f.pending[v]; !ok || pending {
		return false
	}
	f.pending[v] = true
	f.q = append(f.q, v)
	return true
}

// Residual is the live graph the greedy election deletes from. Alive
// reports whether v is still live. Commit deletes the given live nodes and
// returns, in increasing ID order, the live nodes whose verdict may have
// changed: those within ⌈τ/2⌉ hops of a deleted node. It must not retain
// the slice. *vpt.Cache is the residual of every batch engine; the
// replaying stream election (Replay) implements it over its cache.
type Residual interface {
	Alive(v graph.NodeID) bool
	Commit(deleted []graph.NodeID) []graph.NodeID
}

// elect is the greedy election every one-node-at-a-time engine runs to
// fixpoint (Theorem 5): pop the next candidate, skip it if already
// deleted, test it, and on a positive verdict commit the deletion and
// re-push the dirtied survivors (q ignores the boundary nodes among them).
// Commit invalidates exactly the ≤ k-hop ball around the deleted node —
// the nodes whose Γ^k contained it — so only those can change verdict.
// The engines differ only in q's initial order and in the residual; test
// supplies the verdict of a node on the current residual and must equal
// VertexDeletable on the live graph. created, when non-nil, is called with
// every node a deletion's pushes enqueue, in push order (the replaying
// election records them; see Replay). Returns the deleted nodes in
// deletion order and the number of tests.
func elect(res Residual, q *fifoQueue, test func(v graph.NodeID) bool, created func(w graph.NodeID)) (deleted []graph.NodeID, tests int) {
	one := make([]graph.NodeID, 1)
	for {
		v, ok := q.Pop()
		if !ok {
			return deleted, tests
		}
		if !res.Alive(v) {
			continue
		}
		tests++
		if !test(v) {
			continue
		}
		deleted = append(deleted, v)
		one[0] = v
		for _, w := range res.Commit(one) {
			if q.Push(w) && created != nil {
				created(w)
			}
		}
	}
}

// electResult runs elect over q with the cache's own verdicts and
// assembles the Result.
func electResult(net Network, cache *vpt.Cache, q *fifoQueue) Result {
	deleted, tests := elect(cache, q, cache.Deletable, nil)
	return finishResult(net, cache.LiveGraph(), deleted, Stats{Rounds: 1, Tests: tests})
}

// testChunk is the fan-out batch size for cache-miss deletability tests in
// the parallel engine. It is a fixed constant — never derived from the
// worker count — so the work decomposition, and therefore the output, is
// identical for every Options.Workers value. Batching matters on the pool:
// a single test is microseconds on dense patches, and dispatching each one
// as its own pool task made the parallel engine slower than sequential
// (a 0.94× inversion measured on the Figure 3 workload before batching).
const testChunk = 16

// testKit is the per-worker scratch bundle for batched deletability tests.
type testKit struct {
	s *graph.Scratch
	t *vpt.Tester
}

var kitPool = sync.Pool{New: func() any {
	return &testKit{s: graph.NewScratch(nil), t: vpt.NewTester()}
}}

// cacheVerdicts leaves a clean cached verdict, witness included, for every
// node of toTest. A node the cache still holds a verdict for (a "no" whose
// witness the last Commit missed) keeps it; the misses are tested inline on
// the cache's own scratch when they are few, and otherwise fan out in
// fixed-size chunks on the deterministic pool, each chunk with pooled
// per-worker scratch. The fanned-out verdicts are published after the join
// (workers never touch shared state).
func cacheVerdicts(cache *vpt.Cache, toTest []graph.NodeID, workers int) {
	var miss []graph.NodeID
	for _, v := range toTest {
		if _, ok := cache.Cached(v); !ok {
			miss = append(miss, v)
		}
	}
	if len(miss) <= testChunk {
		for _, v := range miss {
			cache.Deletable(v)
		}
		return
	}
	nchunks := (len(miss) + testChunk - 1) / testChunk
	// Deletability of distinct vertices is independent given a fixed live
	// view, so the chunks fan out on the deterministic pool; the result
	// slice is index-ordered regardless of the worker count.
	chunks, _ := runner.Map(nchunks, workers, func(ci int) ([]vpt.Verdict, error) {
		kit := kitPool.Get().(*testKit)
		defer kitPool.Put(kit)
		lo := ci * testChunk
		hi := min(lo+testChunk, len(miss))
		vals := make([]vpt.Verdict, hi-lo)
		for j := lo; j < hi; j++ {
			//lint:ignore barrier ComputeFresh is read-only by the Cache contract (no memo access, caller-owned scratch); verdicts are published via StoreVerdict after the join
			vals[j-lo] = cache.ComputeFresh(miss[j], kit.s, kit.t)
		}
		return vals, nil
	})
	j := 0
	for _, ch := range chunks {
		for _, x := range ch {
			cache.StoreVerdict(miss[j], x)
			j++
		}
	}
}

// Bid is a candidate's bid in one round of the m-hop MIS election that
// Parallel runs centrally and internal/dist runs by flooding bids m−1 hops:
// a candidate wins when no candidate within m−1 hops of the live graph
// outbids it, so winners are pairwise ≥ m hops apart (§V-B).
type Bid struct {
	Priority uint64
	Node     graph.NodeID
}

// RoundBid returns v's bid in the 1-based election round under base seed
// seed, a pure function of the three.
func RoundBid(seed int64, v graph.NodeID, round int) Bid {
	return Bid{Priority: HashPriority(uint64(seed), uint64(v), uint64(round)), Node: v}
}

// Beats reports whether a outbids b: the higher priority wins, and the
// higher node ID breaks a tie.
func (a Bid) Beats(b Bid) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.Node > b.Node
}

// HashPriority derives RoundBid's stable per-(seed, node, round)
// priority; internal/dist also draws its seeded partition sides from it.
func HashPriority(seed, node, round uint64) uint64 {
	return runner.SplitMix64(seed*0x100000001b3 ^ node*0x9e3779b97f4a7c15 ^ round*0x85ebca77c2b2ae63)
}

func scheduleParallel(net Network, opts Options) (Result, error) {
	cache := vpt.NewCache(net.G, opts.Tau)
	cache.Instrument(opts.Telemetry)
	view := cache.View()
	m := vpt.IndependenceRadius(opts.Tau)
	scratch := graph.NewScratch(net.G)
	candRound := make([]int, net.G.NumNodes()) // by base index: last round as a candidate

	// The cache is the record of verdicts. Each round re-tests the internal
	// nodes the last Commit returned (every internal node at the start), in
	// increasing ID order; every other live node keeps the verdict it had.
	// The candidates are all live internal nodes whose verdict is
	// "deletable", not only re-tested ones: a candidate can lose to a rival
	// that does not win either, and then lie outside every winner's k-ball.
	internal, toTest := net.InternalNodes(), net.InternalNodes()
	var deleted []graph.NodeID
	var stats Stats
	for {
		cacheVerdicts(cache, toTest, opts.Workers)
		stats.Tests += len(toTest)

		var candidates []graph.NodeID
		for _, v := range internal {
			if x, ok := cache.Cached(v); ok && x.Deletable() {
				candidates = append(candidates, v)
			}
		}
		if len(candidates) == 0 {
			break
		}
		stats.Rounds++
		round := stats.Rounds
		for _, v := range candidates {
			i, _ := net.G.IndexOf(v)
			candRound[i] = round
		}

		// The distributed protocol's election (see Bid): the winners, in
		// increasing ID order, are pairwise ≥ m hops apart (§V-B).
		var selected []graph.NodeID
	bidding:
		for _, v := range candidates {
			own := RoundBid(opts.Seed, v, round)
			for _, j := range view.KHopBallIndices(v, m-1, scratch) {
				if candRound[j] == round && RoundBid(opts.Seed, net.G.NodeAt(int(j)), round).Beats(own) {
					continue bidding
				}
			}
			selected = append(selected, v)
		}

		// Delete the independent set simultaneously; Commit dirties every
		// survivor within k hops of a deleted node.
		deleted = append(deleted, selected...)
		toTest = toTest[:0]
		for _, w := range cache.Commit(selected) {
			if !net.Boundary[w] {
				toTest = append(toTest, w)
			}
		}
	}
	return finishResult(net, cache.LiveGraph(), deleted, stats), nil
}

// VerifyNonRedundant checks Definition 6 on a scheduling result: removing
// any single kept internal node must break τ-partitionability of the
// boundary. (Single-node checks suffice because the criterion is monotone
// in the node set.) It returns the first violating node if any. This is an
// exhaustive global check — quadratic in practice — intended for tests and
// small networks.
//
// The schedulers do not guarantee it. They guarantee local maximality (no
// kept internal node passes the void-preserving test on Final) and, at τ
// of at least AchievableTau, VerifyConfine. The local test is sufficient
// for global deletability but not necessary, so a kept node can be
// globally redundant: over FuzzPublicSchedule's input decoder (n 20–120,
// τ 3–7), 10 sequential and 11 parallel of 156 schedules at τ ≥
// AchievableTau failed this check.
func VerifyNonRedundant(net Network, final *graph.Graph, tau int) (bool, graph.NodeID, error) {
	for _, v := range final.Nodes() {
		if net.Boundary[v] {
			continue
		}
		reduced := final.DeleteVertices([]graph.NodeID{v})
		ok, err := VerifyConfine(reduced, net.BoundaryCycles, tau)
		if err != nil {
			return false, v, err
		}
		if ok {
			return false, v, nil
		}
	}
	return true, 0, nil
}

// RepairBoundaries implements the paper's multi-boundary preprocessing
// (§V-B): all boundary cycles except the first (the outer one) are filled
// with a cone — a fresh virtual node adjacent to every vertex of that
// cycle. Virtual nodes are marked as boundary (undeletable). The returned
// network shares no mutable state with the input.
func RepairBoundaries(net Network) (Network, []graph.NodeID, error) {
	if err := net.Validate(); err != nil {
		return Network{}, nil, err
	}
	if len(net.BoundaryCycles) <= 1 {
		return net, nil, nil
	}
	b := graph.NewBuilder()
	for _, v := range net.G.Nodes() {
		b.AddNode(v)
	}
	for _, e := range net.G.Edges() {
		b.AddEdge(e.U, e.V)
	}
	nextID := graph.NodeID(0)
	for _, v := range net.G.Nodes() {
		if v >= nextID {
			nextID = v + 1
		}
	}
	newBoundary := make(map[graph.NodeID]bool, len(net.Boundary))
	//lint:ordered pure map copy; iteration order cannot escape
	for v, ok := range net.Boundary {
		newBoundary[v] = ok
	}
	var virtual []graph.NodeID
	for _, cyc := range net.BoundaryCycles[1:] {
		apex := nextID
		nextID++
		virtual = append(virtual, apex)
		newBoundary[apex] = true
		for _, v := range cyc {
			b.AddEdge(apex, v)
		}
	}
	out := Network{
		G:              b.MustBuild(),
		Boundary:       newBoundary,
		BoundaryCycles: net.BoundaryCycles,
	}
	return out, virtual, nil
}

// Requirement expresses a coverage demand following Proposition 1.
type Requirement struct {
	// Gamma is the sensing ratio γ = Rc/Rs.
	Gamma float64
	// MaxHoleDiameter is the admissible worst-case hole diameter in units
	// of Rc; 0 demands full blanket coverage.
	MaxHoleDiameter float64
}

// maxPlanTau caps PlanTau's answer, so that a huge admissible hole cannot
// overflow the conversion to int: no confine cycle is longer than a graph
// has nodes, and graphs index their nodes with int32.
const maxPlanTau = math.MaxInt32

// PlanTau returns the largest confine size τ ≥ 3 that satisfies the
// requirement under Proposition 1:
//
//   - blanket coverage (Dmax = 0) holds when γ ≤ 2·sin(π/τ);
//   - otherwise partial coverage guarantees Dmax ≤ (τ−2)·Rc.
//
// Larger τ admits sparser coverage sets, so the maximum feasible τ is the
// efficient choice. The partial branch's τ is capped at maxPlanTau. A γ
// that is NaN or not positive, and a Dmax that is NaN, negative or
// infinite, are input errors.
func PlanTau(req Requirement) (int, error) {
	if !(req.Gamma > 0) {
		return 0, fmt.Errorf("core: gamma %v is not positive", req.Gamma)
	}
	if d := req.MaxHoleDiameter; !(d >= 0) || math.IsInf(d, 1) {
		return 0, fmt.Errorf("core: MaxHoleDiameter %v is not finite and non-negative", d)
	}
	best := 0
	// Blanket branch: γ ≤ 2 sin(π/τ) ⇔ τ ≤ π / asin(γ/2) (for γ ≤ 2). The
	// epsilon absorbs floating-point error at exact thresholds (γ=1 ⇒ τ=6).
	if req.Gamma <= 2 {
		tauBlanket := int(math.Floor(math.Pi/math.Asin(req.Gamma/2) + 1e-9))
		if tauBlanket >= 3 {
			best = tauBlanket
		}
	}
	// Partial branch: (τ−2) ≤ Dmax/Rc. Only meaningful when a hole is
	// admissible at all, and only under the paper's γ ≤ 2 regime.
	if req.MaxHoleDiameter > 0 && req.Gamma <= 2 {
		tauPartial := int(math.Floor(math.Min(req.MaxHoleDiameter, maxPlanTau-2))) + 2
		if tauPartial >= 3 && tauPartial > best {
			best = tauPartial
		}
	}
	if best < 3 {
		return 0, ErrNoFeasibleTau
	}
	return best, nil
}
