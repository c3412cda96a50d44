package stream

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/telemetry"
	"dcc/internal/trace"
	"dcc/internal/vpt"
)

// Config parameterizes a streaming engine. Tau and Seed fix the canonical
// schedule; Radius selects geometric (unit-disk) edge derivation when
// positive and explicit event-driven edges when zero.
type Config struct {
	// Tau is the confine size (≥ 3).
	Tau int
	// Seed drives the canonical election priorities. Part of the
	// convergence identity: recovery must use the genesis seed.
	Seed int64
	// Radius, when positive, derives each joining or moving node's edges
	// from the unit-disk rule over current positions; edge events are then
	// rejected. Zero means edges change only through explicit events.
	Radius float64
	// Positions carries genesis coordinates, indexed by node id. Required
	// for every genesis node when Radius > 0; optional metadata otherwise.
	Positions map[graph.NodeID]geom.Point
	// WAL, when non-nil, receives the write-ahead log: a header record at
	// genesis, then every admitted event, framed and checksummed
	// (trace.AppendRecord) before it is applied.
	WAL io.Writer
	// SyncWAL, when true and WAL implements Sync() error (an *os.File),
	// syncs the log after every append, making each admission durable the
	// moment admit returns. The sync is timed under the stream.fsync span.
	SyncWAL bool
	// Telemetry, when non-nil, receives the engine's metrics: deterministic
	// counters mirroring Stats (stream.admitted, stream.applied, ...),
	// gauges (stream.watermark, stream.pending, stream.live), and — when the
	// registry has a clock — the stream.wal_append, stream.fsync,
	// stream.rebuild and stream.election spans. Collection never perturbs
	// results: counters are published as deltas after the work they count.
	Telemetry *telemetry.Registry
}

// walSyncer is the optional durability surface of a WAL writer.
type walSyncer interface{ Sync() error }

const (
	// maxPending bounds the backpressure queue: when the pending batch
	// reaches this depth the engine applies the whole batch at once (one
	// re-election instead of one per event).
	maxPending = 256
	// memoLimit caps the verdict memo; at the cap the memo is dropped
	// wholesale, which keeps eviction deterministic.
	memoLimit = 1 << 20
	// maxQuarantine bounds the rejected-event ring.
	maxQuarantine = 64
)

// Stats counts the engine's work since construction (or recovery).
type Stats struct {
	// Admission.
	Admitted   int // events accepted past validation, sequencing and WAL
	Applied    int // events applied to the topology
	Rejected   int // events quarantined (shape, boundary, stale, semantic)
	Duplicates int // watermark redeliveries dropped silently
	Coalesced  int // mobility ticks absorbed by a pending tick

	// Topology.
	Rebuilds     int // CSR recompilations (structural events)
	FastRestores int // rejoins served by the O(1) overlay Restore

	// Election.
	Elections   int
	Tests       int // deletability verdicts requested by the canonical loop
	MemoHits    int // verdicts served by the neighborhood-fingerprint memo
	MemoMisses  int
	MemoResets  int // wholesale memo drops at the memo's size cap
	WitnessHits int // re-tests of refuted nodes the election's cache answered
	ReplayHits  int // tests that replayed the last election's verdict: Tests = MemoHits + MemoMisses + WitnessHits + ReplayHits

	// Durability.
	WALBytes  int64
	Snapshots int
}

// Rejection is one quarantined event with the reason it was refused.
type Rejection struct {
	Event Event
	Err   error
}

// memoKey identifies a deletability verdict: the vertex plus the
// fingerprint of its k-hop neighborhood on the residual it was judged
// against. Equal fingerprints mean isomorphic (indeed identically labeled)
// neighborhoods, which the verdict — and the witness of a "no", which
// names node IDs — is a pure function of.
type memoKey struct {
	v  graph.NodeID
	fp uint64
}

// Engine is the event-sourced streaming coverage engine. Every exported
// method holds an internal mutex, so concurrent producers and observers
// (a goroutine polling Stats while another ingests) are safe; events are
// still applied one at a time, in whatever order callers acquire the
// lock.
type Engine struct {
	mu sync.Mutex

	tau, k int
	seed   int64
	cfg    Config

	topo           *topology
	boundary       map[graph.NodeID]bool
	boundarySorted []graph.NodeID
	cycles         [][]graph.NodeID
	boundaryEdges  map[graph.Edge]bool

	watermark uint64 // highest admitted sequence number
	pending   []Event

	memo   map[memoKey]vpt.Verdict
	replay core.Replay // the last election's trace, and what changed since

	cover      []graph.NodeID // live internal nodes after the last election
	coverStale bool

	quarantine []Rejection
	stats      Stats

	tel     *telemetry.Registry
	th      telHandles
	telPub  Stats // amounts already published into th; the dccdebug build asserts telPub == stats after every publish
	walSync walSyncer

	tester *vpt.Tester
	encBuf []byte
}

// telHandles caches the engine's registry handles so publish never takes
// the registry's name-lookup path on the hot path.
type telHandles struct {
	admitted, applied, rejected, duplicates, coalesced *telemetry.Counter
	rebuilds, fastRestores                             *telemetry.Counter
	elections, tests, memoHits, memoMisses, memoResets *telemetry.Counter
	witnessHits, replayHits, walBytes, snapshots       *telemetry.Counter
	watermark, pending, live                           *telemetry.Gauge
}

func newTelHandles(reg *telemetry.Registry) telHandles {
	return telHandles{
		admitted:     reg.Counter("stream.admitted"),
		applied:      reg.Counter("stream.applied"),
		rejected:     reg.Counter("stream.rejected"),
		duplicates:   reg.Counter("stream.duplicates"),
		coalesced:    reg.Counter("stream.coalesced"),
		rebuilds:     reg.Counter("stream.rebuilds"),
		fastRestores: reg.Counter("stream.fast_restores"),
		elections:    reg.Counter("stream.elections"),
		tests:        reg.Counter("stream.tests"),
		memoHits:     reg.Counter("stream.memo_hits"),
		memoMisses:   reg.Counter("stream.memo_misses"),
		memoResets:   reg.Counter("stream.memo_resets"),
		witnessHits:  reg.Counter("stream.witness_hits"),
		replayHits:   reg.Counter("stream.replay_hits"),
		walBytes:     reg.Counter("stream.wal_bytes"),
		snapshots:    reg.Counter("stream.snapshots"),
		watermark:    reg.Gauge("stream.watermark"),
		pending:      reg.Gauge("stream.pending"),
		live:         reg.Gauge("stream.live"),
	}
}

// publish mirrors the Stats delta since the last publish into the
// registry, then refreshes the gauges. Runs under e.mu at the end of
// every exported mutating method, so counters are pure post-hoc
// observations of work already done — enabling telemetry cannot change
// any result.
func (e *Engine) publish() {
	if e.tel == nil {
		return
	}
	s, p := &e.stats, &e.telPub
	pubInt(e.th.admitted, &p.Admitted, s.Admitted)
	pubInt(e.th.applied, &p.Applied, s.Applied)
	pubInt(e.th.rejected, &p.Rejected, s.Rejected)
	pubInt(e.th.duplicates, &p.Duplicates, s.Duplicates)
	pubInt(e.th.coalesced, &p.Coalesced, s.Coalesced)
	pubInt(e.th.rebuilds, &p.Rebuilds, s.Rebuilds)
	pubInt(e.th.fastRestores, &p.FastRestores, s.FastRestores)
	pubInt(e.th.elections, &p.Elections, s.Elections)
	pubInt(e.th.tests, &p.Tests, s.Tests)
	pubInt(e.th.memoHits, &p.MemoHits, s.MemoHits)
	pubInt(e.th.memoMisses, &p.MemoMisses, s.MemoMisses)
	pubInt(e.th.memoResets, &p.MemoResets, s.MemoResets)
	pubInt(e.th.witnessHits, &p.WitnessHits, s.WitnessHits)
	pubInt(e.th.replayHits, &p.ReplayHits, s.ReplayHits)
	pubInt64(e.th.walBytes, &p.WALBytes, s.WALBytes)
	pubInt(e.th.snapshots, &p.Snapshots, s.Snapshots)
	e.th.watermark.Set(int64(e.watermark))
	e.th.pending.Set(int64(len(e.pending)))
	e.th.live.Set(int64(e.topo.liveCount()))
	debugCheckTelemetryMirror(e)
}

func pubInt(c *telemetry.Counter, prev *int, now int) {
	c.Add(int64(now - *prev))
	*prev = now
}

func pubInt64(c *telemetry.Counter, prev *int64, now int64) {
	c.Add(now - *prev)
	*prev = now
}

// New builds a streaming engine over the genesis network. The genesis
// topology is taken as-is (also in geometric mode: derivation governs
// subsequent events, not the initial edge set). If cfg.WAL is set, the WAL
// header record is written immediately.
func New(net core.Network, cfg Config) (*Engine, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if cfg.Tau < 3 {
		return nil, fmt.Errorf("stream: tau %d: %w", cfg.Tau, core.ErrTauTooSmall)
	}
	if cfg.Radius < 0 || !finite(cfg.Radius) {
		return nil, fmt.Errorf("stream: invalid radius %v", cfg.Radius)
	}

	nodes := net.G.Nodes()
	pos := make([]geom.Point, len(nodes))
	for i, v := range nodes {
		p, ok := cfg.Positions[v]
		if !ok && cfg.Radius > 0 {
			return nil, fmt.Errorf("stream: geometric mode: no position for genesis node %d", v)
		}
		if !finite(p.X) || !finite(p.Y) {
			return nil, fmt.Errorf("stream: non-finite position for node %d", v)
		}
		pos[i] = p
	}

	e := &Engine{
		tau:    cfg.Tau,
		k:      vpt.NeighborhoodRadius(cfg.Tau),
		seed:   cfg.Seed,
		cfg:    cfg,
		memo:   make(map[memoKey]vpt.Verdict),
		tester: vpt.NewTester(),
		encBuf: make([]byte, 0, maxEventRecordLen),
	}
	if cfg.Telemetry != nil {
		e.tel = cfg.Telemetry
		e.th = newTelHandles(cfg.Telemetry)
	}
	if s, ok := cfg.WAL.(walSyncer); ok && cfg.SyncWAL {
		e.walSync = s
	}
	e.topo = newTopology(net.G, cfg.Radius, pos, &e.stats)
	e.topo.tel = e.tel

	e.boundary = make(map[graph.NodeID]bool, len(net.Boundary))
	for _, v := range nodes {
		if net.Boundary[v] {
			e.boundary[v] = true
			e.boundarySorted = append(e.boundarySorted, v)
		}
	}
	e.cycles = make([][]graph.NodeID, len(net.BoundaryCycles))
	e.boundaryEdges = make(map[graph.Edge]bool)
	for ci, cyc := range net.BoundaryCycles {
		e.cycles[ci] = append([]graph.NodeID(nil), cyc...)
		for i, v := range cyc {
			e.boundaryEdges[graph.NormEdge(v, cyc[(i+1)%len(cyc)])] = true
		}
	}
	e.coverStale = true

	if cfg.WAL != nil {
		if err := e.walAppend(appendWALHeader(nil, cfg)); err != nil {
			return nil, err
		}
	}
	e.publish()
	return e, nil
}

// walAppend writes one framed record to the WAL (timed under the
// stream.wal_append span) and, when SyncWAL is on, syncs the file (timed
// under stream.fsync).
func (e *Engine) walAppend(payload []byte) error {
	sp := e.tel.StartSpan("stream.wal_append")
	n, err := trace.WriteRecord(e.cfg.WAL, payload)
	sp.End()
	e.stats.WALBytes += int64(n)
	if err != nil {
		return err
	}
	if e.walSync != nil {
		fs := e.tel.StartSpan("stream.fsync")
		err = e.walSync.Sync()
		fs.End()
	}
	return err
}

// checkImmutable enforces the static boundary/mode contract: the boundary
// structure the criterion's cycle basis stands on never changes, and
// explicit edge events are meaningless under geometric derivation. These
// checks depend only on genesis configuration, so rejecting them before
// the WAL keeps live ingestion and replay identical.
func (e *Engine) checkImmutable(ev Event) error {
	switch ev.Kind {
	case KindJoin, KindLeave, KindCrash, KindMove:
		if e.boundary[ev.Node] {
			return fmt.Errorf("%w: %s targets boundary node %d", ErrBoundaryImmutable, ev.Kind, ev.Node)
		}
	case KindEdgeUp, KindEdgeDown:
		if e.topo.radius > 0 {
			return fmt.Errorf("%w: %s: geometric mode derives edges from positions", ErrInvalidEvent, ev.Kind)
		}
		if ev.Kind == KindEdgeDown && e.boundaryEdges[graph.NormEdge(ev.Node, ev.Peer)] {
			return fmt.Errorf("%w: edge %d-%d lies on a boundary cycle", ErrBoundaryImmutable, ev.Node, ev.Peer)
		}
	}
	return nil
}

// reject quarantines ev, keeping the most recent maxQuarantine rejections.
func (e *Engine) reject(ev Event, err error) {
	e.stats.Rejected++
	if len(e.quarantine) == maxQuarantine {
		copy(e.quarantine, e.quarantine[1:])
		e.quarantine = e.quarantine[:len(e.quarantine)-1]
	}
	e.quarantine = append(e.quarantine, Rejection{Event: ev, Err: err})
}

// admit runs the admission pipeline: shape validation, immutability, the
// sequencing watermark, then the WAL append. An event is durable before it
// is ever applied; a crash after admit replays it from the log.
func (e *Engine) admit(ev Event) error {
	if err := ev.Validate(); err != nil {
		e.reject(ev, err)
		return err
	}
	if err := e.checkImmutable(ev); err != nil {
		e.reject(ev, err)
		return err
	}
	if ev.Seq <= e.watermark {
		if ev.Seq == e.watermark {
			e.stats.Duplicates++
			return fmt.Errorf("%w: sequence %d is the admission watermark", ErrDuplicateEvent, ev.Seq)
		}
		err := fmt.Errorf("%w: sequence %d behind watermark %d", ErrStaleEvent, ev.Seq, e.watermark)
		e.reject(ev, err)
		return err
	}
	if e.cfg.WAL != nil {
		if err := e.walAppend(ev.appendTo(e.encBuf[:0])); err != nil {
			return err // durability failure is fatal, not a quarantine
		}
	}
	e.watermark = ev.Seq
	e.stats.Admitted++
	return nil
}

// apply mutates the topology under ev's semantics, or explains why it
// cannot. It is a total deterministic function of (topology, event), which
// is what makes WAL replay converge: the same admitted prefix produces the
// same state and the same quarantine verdicts on every path.
func (e *Engine) apply(ev Event) error {
	t := e.topo
	switch ev.Kind {
	case KindJoin:
		if t.alive(ev.Node) {
			return fmt.Errorf("%w: join of live node %d", ErrInvalidEvent, ev.Node)
		}
		e.touch(ev.Node)
		t.join(ev.Node, geom.Point{X: ev.X, Y: ev.Y})
	case KindLeave, KindCrash:
		if !t.alive(ev.Node) {
			return fmt.Errorf("%w: %s of absent node %d", ErrInvalidEvent, ev.Kind, ev.Node)
		}
		e.touch(ev.Node)
		t.depart(ev.Node)
	case KindEdgeUp:
		if !t.alive(ev.Node) || !t.alive(ev.Peer) {
			return fmt.Errorf("%w: edge-up %d-%d with an absent endpoint", ErrInvalidEvent, ev.Node, ev.Peer)
		}
		if t.hasEdge(ev.Node, ev.Peer) {
			return fmt.Errorf("%w: edge %d-%d already present", ErrInvalidEvent, ev.Node, ev.Peer)
		}
		e.touch(ev.Node, ev.Peer)
		t.edgeUp(ev.Node, ev.Peer)
	case KindEdgeDown:
		if !t.alive(ev.Node) || !t.alive(ev.Peer) {
			return fmt.Errorf("%w: edge-down %d-%d with an absent endpoint", ErrInvalidEvent, ev.Node, ev.Peer)
		}
		if !t.hasEdge(ev.Node, ev.Peer) {
			return fmt.Errorf("%w: edge %d-%d not present", ErrInvalidEvent, ev.Node, ev.Peer)
		}
		e.touch(ev.Node, ev.Peer)
		t.edgeDown(ev.Node, ev.Peer)
	case KindMove:
		if !t.alive(ev.Node) {
			return fmt.Errorf("%w: move of absent node %d", ErrInvalidEvent, ev.Node)
		}
		if t.radius > 0 { // an explicit-mode move is metadata only
			e.touch(ev.Node)
		}
		t.move(ev.Node, geom.Point{X: ev.X, Y: ev.Y})
	}
	e.stats.Applied++
	e.coverStale = true
	return nil
}

// touch tells the election replay that the event about to be applied
// changes the liveness or incident edges of nodes, while the topology's
// live view still shows the graph before it.
func (e *Engine) touch(nodes ...graph.NodeID) {
	for _, v := range nodes {
		e.replay.Touch(e.topo.view, v, e.topo.scratch)
	}
}

// applyOne applies and quarantines on failure.
func (e *Engine) applyOne(ev Event) error {
	if err := e.apply(ev); err != nil {
		e.reject(ev, err)
		return err
	}
	return nil
}

// Ingest admits ev and enqueues it for batched application. A mobility
// tick replaces, last-write-wins, a pending tick of the same node when
// only moves are pending after it. That reaches the same final topology:
// moves change no node's liveness, and a geometric move re-derives all of
// its node's edges from current positions. Any other pending event blocks
// it: a move derives edges only to the nodes live at the time, so applying
// the later position before a leave would keep an edge to the departed
// node that stepped application and WAL replay drop. When the queue
// reaches maxPending the whole batch is applied at once (bounded
// staleness: one re-election amortizes the burst).
//
// The returned error reports this event's admission verdict (nil means
// admitted); apply-time verdicts of batched events surface through
// Quarantined and Stats.
func (e *Engine) Ingest(ev Event) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publish()
	if err := e.admit(ev); err != nil {
		return err
	}
	if ev.Kind == KindMove {
		for i := len(e.pending) - 1; i >= 0 && e.pending[i].Kind == KindMove; i-- {
			if e.pending[i].Node == ev.Node {
				e.pending[i] = ev
				e.stats.Coalesced++
				return nil
			}
		}
	}
	e.pending = append(e.pending, ev)
	if len(e.pending) >= maxPending {
		e.flush()
	}
	return nil
}

// Step is the low-latency path: admit ev and apply it (after any pending
// batch) immediately. The returned error is the event's full admission or
// application verdict.
func (e *Engine) Step(ev Event) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publish()
	if err := e.admit(ev); err != nil {
		return err
	}
	e.flush()
	return e.applyOne(ev)
}

// Flush applies every pending event in admission order.
func (e *Engine) Flush() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flush()
	e.publish()
}

func (e *Engine) flush() {
	for _, ev := range e.pending {
		_ = e.applyOne(ev) // verdict recorded in the quarantine
	}
	e.pending = e.pending[:0]
}

// elect re-runs the canonical election over the live topology, replaying
// the last election (core.Replay): a test whose node and k-hop
// neighborhood the events since then provably left alone takes the
// recorded verdict (Stats.ReplayHits), and its deletion commits the
// recorded dirty ball without a BFS, so an event's verdict and ball work
// concentrates inside the region its effects reach. The rest of the
// election — materializing the live graph, the cache, the queue walk over
// every node — is still linear in n. Every other test asks, in turn, the
// election's cache (a re-test of a refuted node whose witness the
// deletions missed, Stats.WitnessHits), the verdict memo keyed by
// neighborhood fingerprint (a vertex whose k-hop residual neighborhood is
// unchanged since any earlier election, Stats.MemoHits), and the verdict
// function itself. None of the three can change the outcome (fingerprint
// equality implies identically labeled neighborhoods), so the cover stays
// a pure function of the topology; the dccdebug build re-runs replayed
// elections without the trace and re-derives a capped number of served
// verdicts to prove it. A memo-served or replayed "no" enters the cache
// with its witness.
func (e *Engine) elect() {
	if !e.coverStale {
		return
	}
	sp := e.tel.StartSpan("stream.election")
	defer sp.End()
	live := e.topo.liveGraph()
	cache := vpt.NewCache(live, e.tau)
	cache.Instrument(e.tel)
	view := cache.View()
	scratch := graph.NewScratch(live)
	test := func(v graph.NodeID) vpt.Verdict {
		if x, ok := cache.Cached(v); ok {
			e.stats.WitnessHits++
			debugCheckWitnessHit(cache, v, x.Deletable(), scratch, e.tester)
			return x
		}
		fp := view.NeighborhoodFingerprint(v, e.k, scratch)
		key := memoKey{v: v, fp: fp}
		if x, ok := e.memo[key]; ok {
			e.stats.MemoHits++
			debugCheckMemoVerdict(cache, v, x.Deletable(), scratch, e.tester)
			cache.StoreVerdict(v, x)
			return x
		}
		e.stats.MemoMisses++
		cache.Deletable(v)
		x, _ := cache.Cached(v)
		if len(e.memo) >= memoLimit {
			e.memo = make(map[memoKey]vpt.Verdict)
			e.stats.MemoResets++
		}
		e.memo[key] = x
		return x
	}
	net := core.Network{G: live, Boundary: e.boundary, BoundaryCycles: e.cycles}
	_, tests, replayed := e.replay.Elect(net, e.seed, cache, test)
	e.stats.Elections++
	e.stats.Tests += tests
	e.stats.ReplayHits += replayed
	e.cover = e.cover[:0]
	for _, v := range cache.LiveNodes() {
		if !e.boundary[v] {
			e.cover = append(e.cover, v)
		}
	}
	e.coverStale = false
}

// Cover flushes pending events, re-elects if needed, and returns the
// active coverage set: the live internal nodes the canonical schedule
// keeps, sorted by id.
func (e *Engine) Cover() []graph.NodeID {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flush()
	e.elect()
	e.publish()
	return append([]graph.NodeID(nil), e.cover...)
}

// Watermark returns the highest admitted sequence number.
func (e *Engine) Watermark() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.watermark
}

// PendingLen reports the backpressure queue depth.
func (e *Engine) PendingLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// LiveCount reports the number of live nodes (boundary included).
func (e *Engine) LiveCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.topo.liveCount()
}

// Stats returns a snapshot of the work counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Quarantined returns a copy of the rejected-event ring, oldest first.
func (e *Engine) Quarantined() []Rejection {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Rejection(nil), e.quarantine...)
}

// MaterializedNetwork flushes pending events and returns the live topology
// as a batch-schedulable network — the object the differential convergence
// suite feeds to core.Schedule.
func (e *Engine) MaterializedNetwork() core.Network {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flush()
	e.publish()
	cycles := make([][]graph.NodeID, len(e.cycles))
	for i, c := range e.cycles {
		cycles[i] = append([]graph.NodeID(nil), c...)
	}
	boundary := make(map[graph.NodeID]bool, len(e.boundarySorted))
	for _, v := range e.boundarySorted {
		boundary[v] = true
	}
	return core.Network{G: e.topo.liveGraph(), Boundary: boundary, BoundaryCycles: cycles}
}

// NodeAt is a positioned node, the vocabulary of CoverFingerprintOf.
type NodeAt struct {
	ID   graph.NodeID
	X, Y float64
}

// LiveNodesAt flushes pending events and returns the live nodes with their
// current positions, sorted by id.
func (e *Engine) LiveNodesAt() []NodeAt {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flush()
	e.publish()
	return e.liveNodesAt()
}

func (e *Engine) liveNodesAt() []NodeAt {
	t := e.topo
	out := make([]NodeAt, 0, t.liveCount())
	for i, v := range t.ids {
		if !t.dead[i] {
			out = append(out, NodeAt{ID: v, X: t.pos[i].X, Y: t.pos[i].Y})
		}
	}
	return out
}

// CoverFingerprintOf hashes a (configuration, live topology, cover) triple
// into the convergence identity. Exported so shadow models — the
// differential suite's independently maintained topology plus a batch
// core.Schedule cover — can compute the exact fingerprint the engine must
// match. Inputs are canonicalized (sorted, normalized) internally.
func CoverFingerprintOf(tau int, seed int64, nodes []NodeAt, edges []graph.Edge, cover []graph.NodeID) [32]byte {
	ns := append([]NodeAt(nil), nodes...)
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		es[i] = graph.NormEdge(e.U, e.V)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	cv := append([]graph.NodeID(nil), cover...)
	sort.Slice(cv, func(i, j int) bool { return cv[i] < cv[j] })

	b := []byte("dcc-cover-v1")
	b = binary.AppendUvarint(b, uint64(tau))
	b = binary.LittleEndian.AppendUint64(b, uint64(seed))
	b = binary.AppendUvarint(b, uint64(len(ns)))
	for _, n := range ns {
		b = binary.AppendUvarint(b, uint64(n.ID))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.Y))
	}
	b = binary.AppendUvarint(b, uint64(len(es)))
	for _, e := range es {
		b = binary.AppendUvarint(b, uint64(e.U))
		b = binary.AppendUvarint(b, uint64(e.V))
	}
	b = binary.AppendUvarint(b, uint64(len(cv)))
	for _, v := range cv {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return sha256.Sum256(b)
}

// CoverFingerprint flushes, re-elects, and returns the engine's side of
// the convergence identity: the hash of (tau, seed, live nodes with
// positions, live edges, cover).
func (e *Engine) CoverFingerprint() [32]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flush()
	e.elect()
	e.publish()
	return CoverFingerprintOf(e.tau, e.seed, e.liveNodesAt(), e.topo.liveGraph().Edges(), e.cover)
}

// stateBytes is the canonical encoding of the full engine state — universe
// (dead nodes included), configuration, watermark — everything crash
// recovery must reproduce exactly. The snapshot embeds sha256(stateBytes)
// so a decoded snapshot self-verifies, and StateFingerprint exposes the
// same hash as the kill-at-any-byte identity.
func (e *Engine) stateBytes() []byte {
	t := e.topo
	b := []byte("dcc-state-v1")
	b = binary.AppendUvarint(b, uint64(e.tau))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.seed))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.radius))
	b = binary.AppendUvarint(b, e.watermark)
	b = binary.AppendUvarint(b, uint64(len(e.boundarySorted)))
	for _, v := range e.boundarySorted {
		b = binary.AppendUvarint(b, uint64(v))
	}
	b = binary.AppendUvarint(b, uint64(len(e.cycles)))
	for _, cyc := range e.cycles {
		b = binary.AppendUvarint(b, uint64(len(cyc)))
		for _, v := range cyc {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(t.ids)))
	for i, v := range t.ids {
		b = binary.AppendUvarint(b, uint64(v))
		if t.dead[i] {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.pos[i].X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.pos[i].Y))
	}
	b = binary.AppendUvarint(b, uint64(len(t.edges)))
	for _, ed := range t.edges {
		b = binary.AppendUvarint(b, uint64(ed.U))
		b = binary.AppendUvarint(b, uint64(ed.V))
	}
	return b
}

// StateFingerprint flushes pending events and hashes the full engine
// state. Two engines with equal state fingerprints are observationally
// identical: same universe, same liveness, same watermark, and therefore
// (by canonical election) the same cover for the rest of time.
func (e *Engine) StateFingerprint() [32]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flush()
	e.publish()
	return sha256.Sum256(e.stateBytes())
}
