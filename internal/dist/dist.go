// Package dist realises the paper's distributed coverage algorithm (§V-B)
// with explicit message passing over a simulated radio network.
//
// Each node runs the same local protocol:
//
//  1. Neighbourhood discovery — k rounds of adjacency gossip give every
//     node the connectivity among its k-hop neighbours (k = ⌈τ/2⌉).
//  2. Redundancy testing — every internal node evaluates the void-
//     preserving transformation on its local view.
//  3. MIS election — deletable nodes draw random priorities and flood them
//     m−1 hops (m = ⌈τ/2⌉+1); a candidate that hears no higher priority
//     wins, which makes winners pairwise ≥ m hops apart, exactly the
//     independence radius at which simultaneous deletions are safe.
//  4. Deletion — winners announce a DELETE that floods k hops so that
//     affected nodes update their views, and the process iterates until no
//     node anywhere is deletable.
//
// The runtime is a deterministic synchronous-round simulator with optional
// per-link message loss and structured fault injection (fail-stop crashes,
// crash-recover, Gilbert–Elliott bursty loss, timed partitions — see
// FaultPlan). Determinism comes from sorted iteration plus
// per-(seed,node,round) hashed priorities, so a run is reproducible from
// its Config alone.
//
// Delivery of the safety-critical CANDIDATE and DELETE floods is
// selectable (Config.Reliability): the paper's bare fire-and-forget
// broadcasts, or a per-hop ACK/retransmit layer over sequenced v2 frames
// that restores MIS independence under message loss (DESIGN.md §10).
package dist

import (
	"fmt"
	"sort"

	"dcc/internal/core"
	"dcc/internal/graph"
	"dcc/internal/telemetry"
	"dcc/internal/vpt"
)

// Config parameterises a distributed run.
type Config struct {
	// Tau is the confine size (≥ 3).
	Tau int
	// Seed drives priorities and loss decisions.
	Seed int64
	// Loss is the independent per-link message-loss probability in [0,1).
	// Under ReliabilityNone, loss preserves liveness but the safety
	// guarantee of pairwise-independent deletions can be violated (the
	// paper's documented limitation); AckFloods closes that gap by
	// acknowledging the candidate and delete floods.
	Loss float64
	// Reliability selects the delivery guarantee of the CANDIDATE and
	// DELETE floods: ReliabilityNone (zero value) reproduces the paper's
	// bare floods, AckFloods adds per-hop ACK/retransmit.
	Reliability Reliability
	// MaxSuperRounds bounds the deletion iterations (0 = number of nodes).
	MaxSuperRounds int
	// Faults optionally schedules structured fault injection: per-node
	// crash and crash-recover times, Gilbert–Elliott bursty link loss,
	// and timed partition/heal events, all reproducible from the plan.
	Faults *FaultPlan
	// Telemetry, when non-nil, receives the run's Stats as deterministic
	// dist.* counters (comm_rounds, broadcasts, retransmits, ...) plus —
	// when the registry has a clock — the dist.run span. Published after
	// the run completes; collection never changes the Result.
	Telemetry *telemetry.Registry
}

// Stats counts the communication work of a run.
type Stats struct {
	// CommRounds is the number of synchronous radio rounds.
	CommRounds int
	// Broadcasts counts radio frames sent (one frame reaches all live
	// neighbours, modulo loss).
	Broadcasts int
	// Delivered counts frame receptions.
	Delivered int
	// BytesSent counts wire-format frame bytes transmitted.
	BytesSent int
	// BytesDelivered counts wire-format frame bytes received.
	BytesDelivered int
	// Rounds counts deletion iterations (the vocabulary shared with the
	// centralized scheduler's Stats).
	Rounds int
	// Deletions counts nodes removed by the protocol.
	Deletions int
	// Tests counts local deletability evaluations.
	Tests int
	// AckFrames and AckBytes count the acknowledgement traffic of the
	// reliability layer (zero under ReliabilityNone).
	AckFrames int
	AckBytes  int
	// Retransmits counts data-frame rebroadcasts beyond each first
	// attempt.
	Retransmits int
	// Withdrawals counts candidates that gave up a super-round because
	// their bid's first hop could not be fully acknowledged.
	Withdrawals int
	// Suspicions counts ACK-timeout failure-detector events: a sender gave
	// up on a neighbour and marked it suspected-crashed in its local view.
	Suspicions int
	// IndependenceViolations counts elected winner pairs closer than the
	// independence radius m on the live communication topology — the
	// safety gap the reliability layer exists to close. The count is
	// ground-truth observability (a real node cannot compute it) and
	// consumes no randomness.
	IndependenceViolations int
}

// Result is the outcome of a distributed run.
type Result struct {
	// Final is the surviving connectivity graph (crashed nodes excluded).
	Final *graph.Graph
	// Kept lists surviving nodes; KeptInternal the non-boundary ones.
	Kept, KeptInternal []graph.NodeID
	// Deleted lists nodes removed by the protocol, in deletion order.
	Deleted []graph.NodeID
	// Crashed lists nodes removed by fault injection and still down at
	// the end of the run.
	Crashed []graph.NodeID
	// Recovered lists nodes that crashed and later rejoined, in recovery
	// order.
	Recovered []graph.NodeID
	// Stats summarises communication and computation.
	Stats Stats
}

// Run executes the distributed confine-coverage protocol.
func Run(net core.Network, cfg Config) (Result, error) {
	if err := net.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Tau < 3 {
		return Result{}, fmt.Errorf("dist: tau %d: %w", cfg.Tau, core.ErrTauTooSmall)
	}
	if cfg.Loss < 0 || cfg.Loss >= 1 {
		return Result{}, fmt.Errorf("dist: loss %v outside [0,1)", cfg.Loss)
	}
	if cfg.Reliability != ReliabilityNone && cfg.Reliability != AckFloods {
		return Result{}, fmt.Errorf("dist: unknown reliability mode %d", cfg.Reliability)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.validate(net.G, cfg.Loss); err != nil {
			return Result{}, err
		}
	}
	sp := cfg.Telemetry.StartSpan("dist.run")
	defer sp.End()
	r := newRuntime(net, cfg)
	r.discover()
	r.mainLoop()
	res := r.result()
	publishRunStats(cfg.Telemetry, res.Stats)
	return res, nil
}

// publishRunStats mirrors a completed run's Stats into deterministic
// counters. Stats are a pure function of (Network, Config), so the
// counters stay worker-count-invariant no matter how runs are fanned out.
func publishRunStats(reg *telemetry.Registry, s Stats) {
	if reg == nil {
		return
	}
	reg.Counter("dist.runs").Inc()
	reg.Counter("dist.comm_rounds").Add(int64(s.CommRounds))
	reg.Counter("dist.broadcasts").Add(int64(s.Broadcasts))
	reg.Counter("dist.delivered").Add(int64(s.Delivered))
	reg.Counter("dist.bytes_sent").Add(int64(s.BytesSent))
	reg.Counter("dist.bytes_delivered").Add(int64(s.BytesDelivered))
	reg.Counter("dist.rounds").Add(int64(s.Rounds))
	reg.Counter("dist.deletions").Add(int64(s.Deletions))
	reg.Counter("dist.tests").Add(int64(s.Tests))
	reg.Counter("dist.ack_frames").Add(int64(s.AckFrames))
	reg.Counter("dist.ack_bytes").Add(int64(s.AckBytes))
	reg.Counter("dist.retransmits").Add(int64(s.Retransmits))
	reg.Counter("dist.withdrawals").Add(int64(s.Withdrawals))
	reg.Counter("dist.suspicions").Add(int64(s.Suspicions))
	reg.Counter("dist.independence_violations").Add(int64(s.IndependenceViolations))
}

type runtime struct {
	cfg   Config
	net   core.Network
	k, m  int
	cur   *graph.Graph // ground-truth surviving topology
	views map[graph.NodeID]*localView
	// cached deletability per node; valid while the node's view is
	// unchanged.
	deletable map[graph.NodeID]bool
	deleted   []graph.NodeID
	crashed   map[graph.NodeID]bool
	crashList []graph.NodeID
	recovered []graph.NodeID
	faults    *faultState
	rel       *reliableState
	// pendingSuspects queues failure-detector events (detector, suspect)
	// for the next suspicion-announcement flood.
	pendingSuspects []suspicion
	rng             *splitMix
	// tester holds the reusable deletability-test scratch (graph buffers
	// and GF(2) workspace) shared by every per-node candidate evaluation;
	// evaluation is single-threaded within a runtime.
	tester *vpt.Tester
	stats  Stats
}

// suspicion is one ACK-timeout failure-detector event.
type suspicion struct{ by, of graph.NodeID }

func newRuntime(net core.Network, cfg Config) *runtime {
	r := &runtime{
		cfg:       cfg,
		net:       net,
		k:         vpt.NeighborhoodRadius(cfg.Tau),
		m:         vpt.IndependenceRadius(cfg.Tau),
		cur:       net.G,
		views:     make(map[graph.NodeID]*localView, net.G.NumNodes()),
		deletable: make(map[graph.NodeID]bool),
		crashed:   make(map[graph.NodeID]bool),
		rng:       newSplitMix(uint64(cfg.Seed) ^ 0x9e3779b97f4a7c15),
		tester:    vpt.NewTester(),
	}
	for _, v := range net.G.Nodes() {
		r.views[v] = newLocalView(v, net.G.Neighbors(v))
	}
	if p := cfg.Faults; p != nil && (len(p.Crashes) > 0 || p.Bursty != nil || len(p.Partitions) > 0) {
		r.faults = newFaultState(*p, net.G)
	}
	if cfg.Reliability == AckFloods {
		r.rel = newReliableState()
	}
	return r
}

// liveNodes returns the surviving, non-crashed nodes in sorted order.
// Graph.Nodes hands out a fresh copy (a documented guarantee), so the
// in-place filter below cannot alias graph internals or earlier Nodes()
// results.
func (r *runtime) liveNodes() []graph.NodeID {
	nodes := r.cur.Nodes()
	out := nodes[:0]
	for _, v := range nodes {
		if !r.crashed[v] {
			out = append(out, v)
		}
	}
	return out
}

// unreliableLossy reports whether the run combines fire-and-forget floods
// with a lossy channel — the one configuration whose MIS-independence
// guarantee is explicitly waived (see Config.Loss). The dccdebug topology
// assertions skip exactly this combination and stay armed everywhere else,
// including AckFloods under loss.
func (r *runtime) unreliableLossy() bool {
	if r.cfg.Reliability != ReliabilityNone {
		return false
	}
	if r.cfg.Loss > 0 {
		return true
	}
	return r.faults != nil && r.faults.plan.Bursty != nil
}

// dropDelivery reports whether a particular delivery is lost: severed by
// an active partition, dropped by the per-link Gilbert–Elliott chain, or
// dropped by the i.i.d. Loss model. Partition cuts consume no randomness,
// so the loss stream is unchanged by partition events.
func (r *runtime) dropDelivery(from, to graph.NodeID) bool {
	if r.faults != nil {
		if r.faults.linkCut(from, to) {
			return true
		}
		if r.faults.ge != nil {
			return r.faults.geDrop(from, to, r.rng)
		}
	}
	return r.cfg.Loss > 0 && r.rng.float64() < r.cfg.Loss
}

// proofOfLife clears any stale suspicion of a transmitting node: crashed
// and deleted nodes never transmit, so every reception proves its sender
// alive. Called on every delivery, before the packets are processed.
func (r *runtime) proofOfLife(from, to graph.NodeID) {
	r.views[to].resurrect(from)
}

// broadcastRound delivers one synchronous round: every sender with a
// pending frame broadcasts it; each surviving link decodes the frame at
// the receiver and hands the packets to onPacket. Frames travel through
// the real wire format (EncodeFrame/DecodeFrame), so byte accounting and
// serialisation are exercised on every delivery.
func (r *runtime) broadcastRound(frames map[graph.NodeID][]Packet, onPacket func(from, to graph.NodeID, p Packet)) {
	senders := make([]graph.NodeID, 0, len(frames))
	for v, pkts := range frames {
		if len(pkts) > 0 {
			senders = append(senders, v)
		}
	}
	if len(senders) == 0 {
		return
	}
	r.stats.CommRounds++
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	for _, from := range senders {
		if r.crashed[from] {
			continue
		}
		frame, err := EncodeFrame(frames[from])
		if err != nil {
			// Node IDs are validated at build time; an encoding failure is
			// a programming error.
			panic(fmt.Sprintf("dist: encode frame: %v", err))
		}
		r.stats.Broadcasts++
		r.stats.BytesSent += len(frame)
		for _, to := range r.cur.Neighbors(from) {
			if r.crashed[to] || r.dropDelivery(from, to) {
				continue
			}
			packets, err := DecodeFrame(frame)
			if err != nil {
				panic(fmt.Sprintf("dist: decode frame: %v", err))
			}
			r.stats.Delivered++
			r.stats.BytesDelivered += len(frame)
			r.proofOfLife(from, to)
			for _, p := range packets {
				onPacket(from, to, p)
			}
		}
	}
}

// discover runs k rounds of adjacency gossip so every node learns the
// connectivity among its k-hop neighbours.
func (r *runtime) discover() {
	pending := make(map[graph.NodeID][]Packet)
	for _, v := range r.liveNodes() {
		rec := r.views[v].record()
		pending[v] = []Packet{{Kind: MsgHello, Owner: rec.owner, Neighbors: rec.nbrs}}
	}
	for round := 0; round < r.k; round++ {
		next := make(map[graph.NodeID][]Packet)
		delivered := false
		r.broadcastRound(pending, func(_, to graph.NodeID, p Packet) {
			delivered = true
			if p.Kind != MsgHello {
				return
			}
			if r.views[to].learn(adjRecord{owner: p.Owner, nbrs: p.Neighbors}) {
				next[to] = append(next[to], p)
			}
		})
		if !delivered {
			break
		}
		pending = next
	}
}

// candidate is one node's MIS bid.
type candidate struct {
	origin   graph.NodeID
	priority uint64
}

// wins reports whether a beats b (higher priority, ID as tie-break).
func (a candidate) wins(b candidate) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.origin > b.origin
}

func (r *runtime) mainLoop() {
	maxRounds := r.cfg.MaxSuperRounds
	if maxRounds <= 0 {
		maxRounds = r.net.G.NumNodes() + 1
	}
	for sr := 1; sr <= maxRounds; sr++ {
		if r.faults != nil {
			r.faults.enterSuperRound(sr)
			r.applyCrashes(r.faults.crashStart[sr])
			if rec := r.applyRecoveries(r.faults.recoverAt[sr]); len(rec) > 0 {
				r.resync(rec)
			}
		}
		if r.rel != nil {
			// Detect silent neighbours and spread the word before this
			// round's candidacy decisions, not after them.
			r.heartbeat()
			r.announceSuspicions()
		}
		cands := r.evaluateCandidates()
		if len(cands) == 0 {
			if r.faults != nil && r.faults.eventsAfter(sr) {
				continue // idle: scheduled faults can still change the world
			}
			return
		}
		r.stats.Rounds++
		winners, elected := r.electMIS(cands, sr)
		if len(winners) == 0 {
			// All candidate floods lost or withdrawn; retry with fresh
			// priorities.
			continue
		}
		r.debugCheckWinners(elected, winners, sr) // no-op unless -tags dccdebug
		r.countIndependenceViolations(winners)
		if r.faults != nil {
			// Adversarial schedule: a winner may die after the election
			// but before announcing its deletion.
			r.applyCrashes(r.faults.crashPost[sr])
			winners = r.filterLive(winners)
			if len(winners) == 0 {
				continue
			}
		}
		before := len(r.deleted)
		r.deleteWinners(winners)
		r.debugCheckDeletionLog(before, winners)
	}
}

// applyCrashes fail-stops the round's victims.
func (r *runtime) applyCrashes(evs []CrashEvent) {
	for _, c := range sortedCrashEvents(evs) {
		if r.cur.HasNode(c.Node) && !r.crashed[c.Node] {
			r.crashed[c.Node] = true
			r.crashList = append(r.crashList, c.Node)
		}
	}
}

// applyRecoveries rejoins crashed nodes with a fresh view seeded from
// their physical radio links; the caller follows up with a resync so the
// node relearns its k-hop neighbourhood and the deletions it missed.
func (r *runtime) applyRecoveries(nodes []graph.NodeID) []graph.NodeID {
	var rec []graph.NodeID
	for _, v := range sortedIDs(nodes) {
		if !r.crashed[v] || !r.cur.HasNode(v) {
			continue
		}
		r.crashed[v] = false
		for i, w := range r.crashList {
			if w == v {
				r.crashList = append(r.crashList[:i], r.crashList[i+1:]...)
				break
			}
		}
		r.recovered = append(r.recovered, v)
		r.views[v] = newLocalView(v, r.cur.Neighbors(v))
		delete(r.deletable, v)
		rec = append(rec, v)
	}
	return rec
}

// resync rebuilds a rejoining node's view: the node announces itself
// (REJOIN), and every direct neighbour that hears the announcement dumps
// its live adjacency records plus its deletion knowledge. The union of the
// 1-hop neighbours' k-hop records covers the rejoiner's own k-hop
// neighbourhood, so after one dump round its Γ^k view is complete again.
// The announcement itself floods k hops so that every node that suspected
// the rejoiner while it was down hears the proof of life and resurrects
// it.
func (r *runtime) resync(recovered []graph.NodeID) {
	pending := make(map[graph.NodeID][]Packet, len(recovered))
	for _, v := range recovered {
		pending[v] = []Packet{{Kind: MsgRejoin, Origin: v}}
	}
	dumpers := make(map[graph.NodeID]bool)
	seenRejoin := make(map[suspicion]bool) // (hearer, rejoiner) pairs
	for hop := 0; hop < r.k; hop++ {
		next := make(map[graph.NodeID][]Packet)
		delivered := false
		r.flood(pending, func(_, to graph.NodeID, p Packet) {
			delivered = true
			if p.Kind != MsgRejoin || p.Origin == to {
				return
			}
			r.views[to].resurrect(p.Origin)
			if hop == 0 {
				dumpers[to] = true
			}
			key := suspicion{by: to, of: p.Origin}
			if !seenRejoin[key] {
				seenRejoin[key] = true
				next[to] = append(next[to], p)
			}
		})
		if !delivered {
			break
		}
		pending = next
	}
	ids := make([]graph.NodeID, 0, len(dumpers))
	for v := range dumpers {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	dump := make(map[graph.NodeID][]Packet, len(ids))
	for _, u := range ids {
		view := r.views[u]
		owners := make([]graph.NodeID, 0, len(view.records))
		for o := range view.records {
			owners = append(owners, o)
		}
		sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
		var pkts []Packet
		for _, o := range owners {
			if !view.dead[o] {
				pkts = append(pkts, Packet{Kind: MsgHello, Owner: o, Neighbors: view.records[o]})
			}
		}
		deads := make([]graph.NodeID, 0, len(view.dead))
		for d := range view.dead {
			deads = append(deads, d)
		}
		sort.Slice(deads, func(i, j int) bool { return deads[i] < deads[j] })
		for _, d := range deads {
			pkts = append(pkts, Packet{Kind: MsgDelete, Origin: d})
		}
		dump[u] = pkts
	}
	r.flood(dump, func(_, to graph.NodeID, p Packet) {
		switch p.Kind {
		case MsgHello:
			r.views[to].learn(adjRecord{owner: p.Owner, nbrs: p.Neighbors})
		case MsgDelete:
			r.applyDelete(to, p.Origin)
		}
	})
}

// heartbeat opens a super-round (AckFloods only) with one reliable beacon
// from every live node. A neighbour that stays silent through the beacon's
// retries is suspected crashed by every node adjacent to it — so a silent
// crash is detected by all its neighbours in the same round, before any
// node stakes a deletion on a view that still contains the phantom.
// Beacon deliveries double as proof of life, clearing stale suspicion of
// neighbours that came back after a partition healed or a crash recovered.
func (r *runtime) heartbeat() {
	frames := make(map[graph.NodeID][]Packet)
	for _, v := range r.liveNodes() {
		frames[v] = []Packet{{Kind: MsgHello, Owner: v}}
	}
	r.reliableRound(frames, func(_, _ graph.NodeID, _ Packet) {})
}

// announceSuspicions floods queued failure-detector events k hops as
// SUSPECT packets. Every node whose Γ^k view can contain a silent node x
// is within k hops of one of x's neighbours — all of which detect x at the
// same heartbeat — so after this flood no candidacy decision anywhere
// rests on the phantom. Receivers adopt the suspicion (reversible: any
// frame later heard from the suspect resurrects it) and abstain from
// candidacy while it stands, trading local liveness for global safety.
func (r *runtime) announceSuspicions() {
	if len(r.pendingSuspects) == 0 {
		return
	}
	pending := make(map[graph.NodeID][]Packet)
	for _, s := range r.pendingSuspects {
		if !r.crashed[s.by] {
			pending[s.by] = append(pending[s.by], Packet{Kind: MsgSuspect, Origin: s.of})
		}
	}
	r.pendingSuspects = r.pendingSuspects[:0]
	for hop := 0; hop < r.k; hop++ {
		next := make(map[graph.NodeID][]Packet)
		delivered := false
		r.flood(pending, func(_, to graph.NodeID, p Packet) {
			delivered = true
			if p.Kind != MsgSuspect || p.Origin == to {
				return
			}
			if r.views[to].markSuspect(p.Origin) {
				next[to] = append(next[to], p)
			}
		})
		if !delivered {
			break
		}
		pending = next
	}
}

// filterLive drops crashed nodes from a sorted ID list.
func (r *runtime) filterLive(ids []graph.NodeID) []graph.NodeID {
	out := ids[:0]
	for _, v := range ids {
		if !r.crashed[v] {
			out = append(out, v)
		}
	}
	return out
}

// commTopology is the live communication graph: surviving nodes minus
// crashed ones, minus links severed by active partitions. It is the
// topology on which flood reachability — and therefore MIS independence —
// is actually defined.
func (r *runtime) commTopology() *graph.Graph {
	if len(r.crashList) == 0 && (r.faults == nil || r.faults.activeCuts == 0) {
		return r.cur
	}
	b := graph.NewBuilder()
	for _, v := range r.cur.Nodes() {
		if !r.crashed[v] {
			b.AddNode(v)
		}
	}
	for _, e := range r.cur.Edges() {
		if r.crashed[e.U] || r.crashed[e.V] {
			continue
		}
		if r.faults != nil && r.faults.linkCut(e.U, e.V) {
			continue
		}
		b.AddEdge(e.U, e.V)
	}
	return b.MustBuild()
}

// countIndependenceViolations records elected winner pairs closer than m
// hops on the live communication topology — exactly the simultaneous
// deletions Theorem 5/6 forbids. Ground-truth observability only; no
// randomness is consumed and no behaviour changes.
func (r *runtime) countIndependenceViolations(winners []graph.NodeID) {
	if len(winners) < 2 {
		return
	}
	top := r.commTopology()
	for i, w := range winners {
		t := top.BFS(w, r.m-1)
		for _, o := range winners[i+1:] {
			if t.Depth(o) >= 0 {
				r.stats.IndependenceViolations++
			}
		}
	}
}

// evaluateCandidates runs the local VPT test at every internal node whose
// view changed since its last test.
//
// A node that currently suspects a neighbour crashed abstains from
// candidacy (quarantine): its deletability certificate was computed on a
// view it knows is degraded, and deleting itself could strand a suspect
// that is merely partitioned, not dead. Suspicion of a true crash never
// clears, so nodes adjacent to a silent crash stop deleting themselves —
// safety over liveness; suspicion of a partitioned neighbour is erased by
// the first frame heard from it after the partition heals.
func (r *runtime) evaluateCandidates() []graph.NodeID {
	var cands []graph.NodeID
	for _, v := range r.liveNodes() {
		if r.net.Boundary[v] {
			continue
		}
		view := r.views[v]
		if view.changed {
			view.changed = false
			r.stats.Tests++
			r.deletable[v] = r.tester.NeighborhoodDeletable(
				view.neighborhoodGraph(r.k), view.liveNeighbors(v), r.cfg.Tau)
		}
		if r.deletable[v] && len(view.suspect) == 0 {
			cands = append(cands, v)
		}
	}
	return cands
}

// electMIS floods candidate priorities m−1 hops and returns the local
// winners — candidates that heard no stronger bid — plus the effective
// electorate (candidates minus withdrawals). Under AckFloods, a candidate
// whose own first-hop broadcast could not be fully acknowledged withdraws
// for this super-round: its bid provably failed to reach its whole 1-hop
// neighbourhood, so self-electing would risk a non-independent deletion.
func (r *runtime) electMIS(cands []graph.NodeID, superRound int) (winners, elected []graph.NodeID) {
	bids := make(map[graph.NodeID]candidate, len(cands))
	heard := make(map[graph.NodeID]map[graph.NodeID]candidate) // node -> origin -> bid
	withdrawn := make(map[graph.NodeID]bool)
	pending := make(map[graph.NodeID][]Packet)
	for _, v := range cands {
		bid := candidate{
			origin:   v,
			priority: hashPriority(uint64(r.cfg.Seed), uint64(v), uint64(superRound)),
		}
		bids[v] = bid
		pending[v] = []Packet{{Kind: MsgCandidate, Origin: v, Priority: bid.priority}}
	}
	for hop := 0; hop < r.m-1; hop++ {
		next := make(map[graph.NodeID][]Packet)
		delivered := false
		gaveUp := r.flood(pending, func(_, to graph.NodeID, p Packet) {
			delivered = true
			if p.Kind != MsgCandidate || p.Origin == to {
				return
			}
			m, ok := heard[to]
			if !ok {
				m = make(map[graph.NodeID]candidate)
				heard[to] = m
			}
			if _, seen := m[p.Origin]; seen {
				return
			}
			m[p.Origin] = candidate{origin: p.Origin, priority: p.Priority}
			next[to] = append(next[to], p)
		})
		if hop == 0 {
			for _, v := range gaveUp {
				if _, isCand := bids[v]; isCand && !withdrawn[v] {
					withdrawn[v] = true
					r.stats.Withdrawals++
				}
			}
		}
		if !delivered {
			break
		}
		pending = next
	}
	elected = make([]graph.NodeID, 0, len(cands))
	for _, v := range cands {
		if !withdrawn[v] {
			elected = append(elected, v)
		}
	}
	for _, v := range elected {
		own := bids[v]
		lost := false
		//lint:ordered ∃-reduction: "did any heard bid beat mine" is order-independent
		for _, other := range heard[v] {
			if other.wins(own) {
				lost = true
				break
			}
		}
		if !lost {
			winners = append(winners, v)
		}
	}
	sort.Slice(winners, func(i, j int) bool { return winners[i] < winners[j] })
	return winners, elected
}

// deleteWinners removes the winners from the ground truth and floods their
// DELETE announcements k hops so neighbours update their local views.
func (r *runtime) deleteWinners(winners []graph.NodeID) {
	// The winner's own farewell broadcast happens while its links are
	// still up.
	farewell := make(map[graph.NodeID][]Packet, len(winners))
	for _, w := range winners {
		farewell[w] = []Packet{{Kind: MsgDelete, Origin: w}}
	}
	pending := make(map[graph.NodeID][]Packet) // forwarder -> announcements
	r.flood(farewell, func(_, to graph.NodeID, p Packet) {
		if p.Kind == MsgDelete && r.applyDelete(to, p.Origin) {
			pending[to] = append(pending[to], p)
		}
	})
	for _, w := range winners {
		r.deleted = append(r.deleted, w)
	}
	r.cur = r.cur.DeleteVertices(winners)

	// Forward the announcements k−1 more hops among survivors.
	for hop := 1; hop < r.k; hop++ {
		//lint:ordered prune-only pass; broadcastRound sorts the surviving senders
		for v := range pending {
			if !r.cur.HasNode(v) {
				delete(pending, v)
			}
		}
		next := make(map[graph.NodeID][]Packet)
		delivered := false
		r.flood(pending, func(_, to graph.NodeID, p Packet) {
			delivered = true
			if p.Kind == MsgDelete && r.applyDelete(to, p.Origin) {
				next[to] = append(next[to], p)
			}
		})
		if !delivered {
			break
		}
		pending = next
	}
}

// applyDelete updates node's view with a DELETE(origin); returns true when
// the announcement was new (and should be forwarded).
func (r *runtime) applyDelete(node, origin graph.NodeID) bool {
	view := r.views[node]
	if !view.markDead(origin) {
		return false
	}
	view.dropNeighbor(origin)
	return true
}

func (r *runtime) result() Result {
	final := r.cur.DeleteVertices(r.crashList)
	kept := final.Nodes()
	var internal []graph.NodeID
	for _, v := range kept {
		if !r.net.Boundary[v] {
			internal = append(internal, v)
		}
	}
	r.stats.Deletions = len(r.deleted)
	return Result{
		Final:        final,
		Kept:         kept,
		KeptInternal: internal,
		Deleted:      r.deleted,
		Crashed:      append([]graph.NodeID(nil), r.crashList...),
		Recovered:    append([]graph.NodeID(nil), r.recovered...),
		Stats:        r.stats,
	}
}

// splitMix is a tiny deterministic PRNG (SplitMix64) used for loss
// decisions; math/rand is avoided here so that the stream is stable across
// Go versions.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix) float64() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}

// hashPriority derives a stable per-(seed, node, round) MIS priority.
func hashPriority(seed, node, round uint64) uint64 {
	sm := newSplitMix(seed*0x100000001b3 ^ node*0x9e3779b97f4a7c15 ^ round*0x85ebca77c2b2ae63)
	return sm.next()
}
