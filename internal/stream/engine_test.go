package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
)

// testDeploy builds a dense perturbed-grid UDG network with the grid
// perimeter as boundary cycle (the construction the core and dist tests
// use) and returns it with its node positions.
func testDeploy(t testing.TB, seed int64, rows, cols int, radius float64) (core.Network, map[graph.NodeID]geom.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rect := geom.Rect{MaxX: float64(cols), MaxY: float64(rows)}
	pts := geom.PerturbedGrid(rng, rows, cols, rect, 0.15)
	g := geom.UDG(pts, radius)
	if !g.IsConnected() {
		t.Fatal("test network disconnected; adjust parameters")
	}
	var order []graph.NodeID
	for c := 0; c < cols; c++ {
		order = append(order, graph.NodeID(c))
	}
	for r := 1; r < rows; r++ {
		order = append(order, graph.NodeID(r*cols+cols-1))
	}
	for c := cols - 2; c >= 0; c-- {
		order = append(order, graph.NodeID((rows-1)*cols+c))
	}
	for r := rows - 2; r >= 1; r-- {
		order = append(order, graph.NodeID(r*cols))
	}
	b := make(map[graph.NodeID]bool, len(order))
	for _, v := range order {
		b[v] = true
	}
	net := core.Network{G: g, Boundary: b, BoundaryCycles: [][]graph.NodeID{order}}
	if err := net.Validate(); err != nil {
		t.Fatalf("test net invalid: %v", err)
	}
	pos := make(map[graph.NodeID]geom.Point, len(pts))
	for i, p := range pts {
		pos[graph.NodeID(i)] = p
	}
	return net, pos
}

// shadowFingerprint computes the ground-truth side of the convergence
// identity: the batch canonical schedule of the Mutator's independently
// maintained topology.
func shadowFingerprint(t *testing.T, m *Mutator, genesis core.Network, tau int, seed int64) [32]byte {
	t.Helper()
	net := m.Network(genesis)
	res, err := core.Schedule(net, core.Options{Tau: tau, Seed: seed, Mode: core.Canonical})
	if err != nil {
		t.Fatalf("batch schedule of shadow topology: %v", err)
	}
	return CoverFingerprintOf(tau, seed, m.Nodes(), m.Edges(), res.KeptInternal)
}

func TestEngineStaticCover(t *testing.T) {
	net, pos := testDeploy(t, 50, 6, 6, 1.6)
	cfg := Config{Tau: 4, Seed: 11, Positions: pos}
	e, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Schedule(net, core.Options{Tau: 4, Seed: 11, Mode: core.Canonical})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Cover(); !reflect.DeepEqual(got, res.KeptInternal) {
		t.Fatalf("static cover %v differs from batch canonical %v", got, res.KeptInternal)
	}
	want := CoverFingerprintOf(4, 11, e.LiveNodesAt(), net.G.Edges(), res.KeptInternal)
	if got := e.CoverFingerprint(); got != want {
		t.Fatal("static cover fingerprint differs from batch fingerprint")
	}
	e.Cover()
	if s := e.Stats(); s.Elections != 1 {
		t.Fatalf("Cover on clean state re-elected: %d elections", s.Elections)
	}
}

// TestEngineDifferentialConvergence is the differential suite of the
// convergence contract: a seeded valid event stream is applied through the
// engine while the Mutator maintains an engine-independent shadow
// topology; after every event the engine's cover fingerprint must equal
// the batch canonical schedule of the shadow. Runs both topology modes.
// The 36-node inputs put nearly every node within reach of each event, so
// their elections barely replay the last one; the 324-node inputs must
// replay.
func TestEngineDifferentialConvergence(t *testing.T) {
	cases := []struct {
		name         string
		radius       float64
		side, events int
	}{
		{"explicit", 0, 6, 90},
		{"geometric", 1.6, 6, 90},
		{"explicit-324", 0, 18, 40},
		{"geometric-324", 1.6, 18, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			events := tc.events
			if testing.Short() {
				events = tc.events * 4 / 9
			}
			net, pos := testDeploy(t, 60, tc.side, tc.side, 1.6)
			cfg := Config{Tau: 4, Seed: 21, Radius: tc.radius, Positions: pos}
			e, err := New(net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMutator(net, cfg, 33)
			for i := 0; i < events; i++ {
				if err := e.Step(m.Next()); err != nil {
					t.Fatalf("event %d rejected: %v", i, err)
				}
				want := shadowFingerprint(t, m, net, cfg.Tau, cfg.Seed)
				if got := e.CoverFingerprint(); got != want {
					t.Fatalf("after %d events: engine diverged from shadow batch schedule", i+1)
				}
			}
			s := e.Stats()
			if s.Applied != events || s.Rejected != 0 {
				t.Fatalf("stream stats %+v: want %d applied, 0 rejected", s, events)
			}
			if s.Elections < events {
				t.Fatalf("only %d elections for %d checkpoints", s.Elections, events)
			}
			if tc.side >= 18 && s.ReplayHits == 0 {
				t.Fatalf("stream stats %+v: a %d-node deployment never replayed a verdict", s, tc.side*tc.side)
			}
		})
	}
}

// TestEngineBatchedEqualsStepped: ingesting a long stream and electing
// once lands on the state and cover of stepping and electing after every
// event.
func TestEngineBatchedEqualsStepped(t *testing.T) {
	net, pos := testDeploy(t, 70, 6, 6, 1.6)
	cfg := Config{Tau: 3, Seed: 5, Radius: 1.6, Positions: pos}
	stepped, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutator(net, cfg, 44)
	for i := 0; i < 520; i++ {
		ev := m.Next()
		if err := stepped.Step(ev); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		stepped.Cover() // the low-latency consumer polls after every event
		if err := batched.Ingest(ev); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	if stepped.StateFingerprint() != batched.StateFingerprint() {
		t.Fatal("batched ingestion diverged from stepped application (state)")
	}
	if stepped.CoverFingerprint() != batched.CoverFingerprint() {
		t.Fatal("batched ingestion diverged from stepped application (cover)")
	}
	bs := batched.Stats()
	if ss := stepped.Stats(); bs.Elections >= ss.Elections {
		t.Fatalf("batching did not reduce elections: %d vs %d", bs.Elections, ss.Elections)
	}
}

func TestEngineAdmissionErrors(t *testing.T) {
	net, pos := testDeploy(t, 80, 5, 5, 1.6)
	boundaryNode := net.BoundaryCycles[0][0]
	cycleEdge := [2]graph.NodeID{net.BoundaryCycles[0][0], net.BoundaryCycles[0][1]}
	interior := net.InternalNodes()[0]

	cases := []struct {
		name   string
		radius float64
		ev     Event
		want   error
	}{
		{"zero seq", 0, Event{Kind: KindMove, Node: interior, X: 1, Y: 1}, ErrMalformedEvent},
		{"unknown kind", 0, Event{Seq: 5, Kind: 99, Node: interior}, ErrMalformedEvent},
		{"negative node", 0, Event{Seq: 5, Kind: KindLeave, Node: -2}, ErrMalformedEvent},
		{"self loop", 0, Event{Seq: 5, Kind: KindEdgeUp, Node: 3, Peer: 3}, ErrMalformedEvent},
		{"spurious peer", 0, Event{Seq: 5, Kind: KindLeave, Node: interior, Peer: 7}, ErrMalformedEvent},
		{"spurious coords", 0, Event{Seq: 5, Kind: KindCrash, Node: interior, X: 1}, ErrMalformedEvent},
		{"nan coords", 0, Event{Seq: 5, Kind: KindJoin, Node: 999, X: nan(), Y: 0}, ErrMalformedEvent},
		{"boundary join", 0, Event{Seq: 5, Kind: KindJoin, Node: boundaryNode, X: 1, Y: 1}, ErrBoundaryImmutable},
		{"boundary leave", 0, Event{Seq: 5, Kind: KindLeave, Node: boundaryNode}, ErrBoundaryImmutable},
		{"boundary move", 0, Event{Seq: 5, Kind: KindMove, Node: boundaryNode, X: 1, Y: 1}, ErrBoundaryImmutable},
		{"cycle edge down", 0, Event{Seq: 5, Kind: KindEdgeDown, Node: cycleEdge[0], Peer: cycleEdge[1]}, ErrBoundaryImmutable},
		{"geometric edge up", 1.6, Event{Seq: 5, Kind: KindEdgeUp, Node: 0, Peer: 1}, ErrInvalidEvent},
		{"geometric edge down", 1.6, Event{Seq: 5, Kind: KindEdgeDown, Node: 0, Peer: 1}, ErrInvalidEvent},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(net, Config{Tau: 3, Seed: 1, Radius: tc.radius, Positions: pos})
			if err != nil {
				t.Fatal(err)
			}
			err = e.Ingest(tc.ev)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Ingest(%v) = %v, want %v", tc.ev, err, tc.want)
			}
			if s := e.Stats(); s.Admitted != 0 || s.Rejected != 1 {
				t.Fatalf("stats %+v: want 0 admitted, 1 rejected", s)
			}
			q := e.Quarantined()
			if len(q) != 1 || !errors.Is(q[0].Err, tc.want) ||
				q[0].Event.Seq != tc.ev.Seq || q[0].Event.Kind != tc.ev.Kind || q[0].Event.Node != tc.ev.Node {
				t.Fatalf("quarantine %+v does not record the rejection", q)
			}
		})
	}
}

func nan() float64 {
	var zero float64
	return zero / zero //lint:ignore SA4012 deliberate NaN
}

func TestEngineSequencing(t *testing.T) {
	net, pos := testDeploy(t, 81, 5, 5, 1.6)
	e, err := New(net, Config{Tau: 3, Seed: 1, Positions: pos})
	if err != nil {
		t.Fatal(err)
	}
	v := net.InternalNodes()[0]
	if err := e.Step(Event{Seq: 10, Kind: KindMove, Node: v, X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	// Redelivery of the watermark: dropped silently, not quarantined.
	err = e.Step(Event{Seq: 10, Kind: KindMove, Node: v, X: 1, Y: 1})
	if !errors.Is(err, ErrDuplicateEvent) {
		t.Fatalf("duplicate: %v", err)
	}
	// A straggler behind the watermark: quarantined.
	err = e.Step(Event{Seq: 4, Kind: KindMove, Node: v, X: 2, Y: 2})
	if !errors.Is(err, ErrStaleEvent) {
		t.Fatalf("stale: %v", err)
	}
	// Gaps ahead of the watermark are legal.
	if err := e.Step(Event{Seq: 100, Kind: KindMove, Node: v, X: 3, Y: 3}); err != nil {
		t.Fatalf("gap: %v", err)
	}
	s := e.Stats()
	if s.Admitted != 2 || s.Duplicates != 1 || s.Rejected != 1 {
		t.Fatalf("stats %+v: want 2 admitted, 1 duplicate, 1 rejected", s)
	}
	if len(e.Quarantined()) != 1 {
		t.Fatalf("quarantine %v: duplicates must not be quarantined", e.Quarantined())
	}
}

func TestEngineApplySemantics(t *testing.T) {
	net, pos := testDeploy(t, 82, 5, 5, 1.6)
	e, err := New(net, Config{Tau: 3, Seed: 1, Positions: pos})
	if err != nil {
		t.Fatal(err)
	}
	in := net.InternalNodes()
	u, v := in[0], in[1]
	seq := uint64(0)
	next := func(ev Event) error {
		seq++
		ev.Seq = seq
		return e.Step(ev)
	}
	if err := next(Event{Kind: KindJoin, Node: u, X: 0, Y: 0}); !errors.Is(err, ErrInvalidEvent) {
		t.Fatalf("join of live node: %v", err)
	}
	if err := next(Event{Kind: KindLeave, Node: 9999}); !errors.Is(err, ErrInvalidEvent) {
		t.Fatalf("leave of unknown node: %v", err)
	}
	if err := next(Event{Kind: KindMove, Node: 9999, X: 1, Y: 1}); !errors.Is(err, ErrInvalidEvent) {
		t.Fatalf("move of unknown node: %v", err)
	}
	if err := next(Event{Kind: KindLeave, Node: u}); err != nil {
		t.Fatal(err)
	}
	if err := next(Event{Kind: KindMove, Node: u, X: 1, Y: 1}); !errors.Is(err, ErrInvalidEvent) {
		t.Fatalf("move of departed node: %v", err)
	}
	if e.topo.hasEdge(u, v) {
		// Existing universe edge with a dead endpoint: edge-up while one
		// side is down is invalid.
		if err := next(Event{Kind: KindEdgeUp, Node: u, Peer: v}); !errors.Is(err, ErrInvalidEvent) {
			t.Fatalf("edge-up with dead endpoint: %v", err)
		}
	}
	// Revive in place: the O(1) restore fast path.
	p := pos[u]
	if err := next(Event{Kind: KindJoin, Node: u, X: p.X, Y: p.Y}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.FastRestores != 1 {
		t.Fatalf("stats %+v: revival in place must take the restore fast path", s)
	}
	// Duplicate edge-up between live nodes with a retained universe edge.
	if e.topo.hasEdge(u, v) {
		if err := next(Event{Kind: KindEdgeUp, Node: u, Peer: v}); !errors.Is(err, ErrInvalidEvent) {
			t.Fatalf("duplicate edge-up: %v", err)
		}
	}
	if err := next(Event{Kind: KindEdgeDown, Node: in[2], Peer: 9999}); !errors.Is(err, ErrInvalidEvent) {
		t.Fatalf("edge-down of unknown edge: %v", err)
	}
}

func TestEngineQuarantineRing(t *testing.T) {
	net, pos := testDeploy(t, 83, 5, 5, 1.6)
	e, err := New(net, Config{Tau: 3, Seed: 1, Positions: pos})
	if err != nil {
		t.Fatal(err)
	}
	const n = maxQuarantine + 3
	for i := 0; i < n; i++ {
		ev := Event{Seq: uint64(i + 1), Kind: KindLeave, Node: graph.NodeID(5000 + i)}
		if err := e.Step(ev); !errors.Is(err, ErrInvalidEvent) {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	q := e.Quarantined()
	if len(q) != maxQuarantine {
		t.Fatalf("quarantine holds %d, want cap %d", len(q), maxQuarantine)
	}
	if q[0].Event.Node != 5003 || q[len(q)-1].Event.Node != 5000+n-1 {
		t.Fatalf("quarantine %v: want the %d newest rejections", q, maxQuarantine)
	}
	if e.Stats().Rejected != n {
		t.Fatalf("rejected = %d, want %d (ring caps storage, not counting)", e.Stats().Rejected, n)
	}
}

// TestEngineMemoEffectiveness: repeated local churn must hit the verdict
// memo (fingerprint-unchanged regions reuse verdicts), and a memo at its
// size cap is dropped wholesale, which costs extra computation but never
// changes the cover.
func TestEngineMemoEffectiveness(t *testing.T) {
	net, pos := testDeploy(t, 84, 6, 6, 1.6)
	cfg := Config{Tau: 4, Seed: 3, Positions: pos}
	e, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; len(full.memo) < memoLimit; i++ {
		full.memo[memoKey{v: -1, fp: uint64(i)}] = 0 // keys no test asks for
	}
	v := net.InternalNodes()[0]
	seq := uint64(0)
	for i := 0; i < 6; i++ {
		seq++
		var ev Event
		if i%2 == 0 {
			ev = Event{Seq: seq, Kind: KindLeave, Node: v}
		} else {
			p := pos[v]
			ev = Event{Seq: seq, Kind: KindJoin, Node: v, X: p.X, Y: p.Y}
		}
		if err := e.Step(ev); err != nil {
			t.Fatal(err)
		}
		if err := full.Step(ev); err != nil {
			t.Fatal(err)
		}
		if e.CoverFingerprint() != full.CoverFingerprint() {
			t.Fatalf("step %d: dropping the full memo changed the cover", i)
		}
	}
	if s := e.Stats(); s.MemoHits == 0 {
		t.Fatalf("stats %+v: oscillating one node never hit the memo", s)
	}
	if fs := full.Stats(); fs.MemoResets != 1 {
		t.Fatalf("stats %+v: a memo filled to its cap must be dropped exactly once", fs)
	}
}

// TestEngineWitnessHits: inside an election, re-tests of refuted nodes
// whose witness the deletions missed are answered by the cache, and every
// test is served exactly one way — by the last election's trace, the
// cache, the memo, or a fresh verdict.
func TestEngineWitnessHits(t *testing.T) {
	net, pos := testDeploy(t, 85, 8, 8, 1.6)
	e, err := New(net, Config{Tau: 4, Seed: 5, Positions: pos})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutator(net, Config{Radius: 1.6, Positions: pos}, 86)
	for seq := 1; seq <= 30; seq++ {
		if err := e.Step(m.Next()); err != nil && !errors.Is(err, ErrInvalidEvent) {
			t.Fatal(err)
		}
		e.Cover()
	}
	s := e.Stats()
	if s.WitnessHits == 0 || s.Tests != s.MemoHits+s.MemoMisses+s.WitnessHits+s.ReplayHits {
		t.Fatalf("stats %+v: want witness hits, and Tests = MemoHits + MemoMisses + WitnessHits + ReplayHits", s)
	}
}

func TestCoverFingerprintOfCanonicalizes(t *testing.T) {
	nodes := []NodeAt{{ID: 1, X: 0.5}, {ID: 2, Y: 1}, {ID: 7}}
	edges := []graph.Edge{{U: 1, V: 2}, {U: 7, V: 2}}
	cover := []graph.NodeID{2, 1}
	a := CoverFingerprintOf(3, 9, nodes, edges, cover)
	perm := CoverFingerprintOf(3, 9,
		[]NodeAt{{ID: 7}, {ID: 1, X: 0.5}, {ID: 2, Y: 1}},
		[]graph.Edge{{U: 2, V: 7}, {U: 1, V: 2}},
		[]graph.NodeID{1, 2})
	if a != perm {
		t.Fatal("fingerprint sensitive to input order")
	}
	if b := CoverFingerprintOf(3, 9, nodes, edges, []graph.NodeID{1}); b == a {
		t.Fatal("fingerprint blind to the cover")
	}
	if b := CoverFingerprintOf(4, 9, nodes, edges, cover); b == a {
		t.Fatal("fingerprint blind to tau")
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 1, Kind: KindJoin, Node: 42, X: 1.25, Y: -3.5},
		{Seq: 2, Kind: KindLeave, Node: 0},
		{Seq: 1 << 40, Kind: KindCrash, Node: maxStreamNodeID},
		{Seq: 4, Kind: KindEdgeUp, Node: 7, Peer: 9},
		{Seq: 5, Kind: KindEdgeDown, Node: 9, Peer: 7},
		{Seq: 6, Kind: KindMove, Node: 3, X: 0, Y: 0},
	}
	for _, ev := range events {
		enc := ev.appendTo(nil)
		if len(enc) > maxEventRecordLen {
			t.Fatalf("%v encodes to %d bytes, above the record bound", ev, len(enc))
		}
		dec, err := decodeEvent(enc)
		if err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
		if dec != ev {
			t.Fatalf("round trip %v -> %v", ev, dec)
		}
	}
}

func TestEventDecodeMalformed(t *testing.T) {
	valid := Event{Seq: 3, Kind: KindJoin, Node: 5, X: 1, Y: 2}.appendTo(nil)
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"unknown kind", []byte{0x40, 1, 1}},
		{"zero kind", []byte{0, 1, 1}},
		{"truncated seq", []byte{byte(KindLeave), 0x80}},
		{"truncated node", []byte{byte(KindLeave), 1, 0x80}},
		{"truncated peer", []byte{byte(KindEdgeUp), 1, 1, 0x80}},
		{"truncated coords", valid[:len(valid)-1]},
		{"trailing bytes", append(append([]byte{}, valid...), 0)},
		{"oversized node id", append([]byte{byte(KindLeave), 1}, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeEvent(tc.buf); !errors.Is(err, ErrMalformedEvent) {
				t.Fatalf("decodeEvent(%x) = %v, want ErrMalformedEvent", tc.buf, err)
			}
		})
	}
}

// TestEngineBatchedRejectsAsStepped: Ingest applies every admitted event
// as Step does, so two ticks of an absent node are both rejected, with
// the same quarantine, whether they are ingested or stepped.
func TestEngineBatchedRejectsAsStepped(t *testing.T) {
	net, pos := testDeploy(t, 85, 5, 5, 1.6)
	cfg := Config{Tau: 3, Seed: 1, Radius: 1.6, Positions: pos}
	batched, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepped, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		ev := Event{Seq: seq, Kind: KindMove, Node: 9999, X: 1, Y: float64(seq)}
		if err := batched.Ingest(ev); err != nil {
			t.Fatalf("ingest %v: %v", ev, err)
		}
		if err := stepped.Step(ev); !errors.Is(err, ErrInvalidEvent) {
			t.Fatalf("step %v: %v, want ErrInvalidEvent", ev, err)
		}
	}
	if b, s := batched.Stats().Rejected, stepped.Stats().Rejected; b != s || s != 2 {
		t.Fatalf("rejected %d batched, %d stepped; want 2 each", b, s)
	}
	bq, sq := batched.Quarantined(), stepped.Quarantined()
	if len(bq) != len(sq) {
		t.Fatalf("quarantine holds %d batched, %d stepped", len(bq), len(sq))
	}
	for i := range bq {
		if bq[i].Event != sq[i].Event || bq[i].Err.Error() != sq[i].Err.Error() {
			t.Fatalf("quarantine entry %d: batched %v, stepped %v", i, bq[i], sq[i])
		}
	}
}

func TestNewValidation(t *testing.T) {
	net, pos := testDeploy(t, 86, 5, 5, 1.6)
	if _, err := New(net, Config{Tau: 2, Seed: 1, Positions: pos}); !errors.Is(err, core.ErrTauTooSmall) {
		t.Fatalf("tau 2: %v, want core.ErrTauTooSmall", err)
	}
	if _, err := New(net, Config{Tau: 3, Seed: 1, Radius: -1, Positions: pos}); err == nil {
		t.Fatal("negative radius accepted")
	}
	if _, err := New(net, Config{Tau: 3, Seed: 1, Radius: 1.6}); err == nil {
		t.Fatal("geometric mode without positions accepted")
	}
	if _, err := New(core.Network{}, Config{Tau: 3}); err == nil {
		t.Fatal("invalid network accepted")
	}
}

// TestEngineWALWriteFailure: a failing WAL writer is fatal at admission,
// before the event mutates anything.
func TestEngineWALWriteFailure(t *testing.T) {
	net, pos := testDeploy(t, 87, 5, 5, 1.6)
	w := &failingWriter{failAfter: 1}
	e, err := New(net, Config{Tau: 3, Seed: 1, Positions: pos, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	before := e.StateFingerprint()
	v := net.InternalNodes()[0]
	err = e.Step(Event{Seq: 1, Kind: KindLeave, Node: v})
	if err == nil {
		t.Fatal("WAL write failure not surfaced")
	}
	if errors.Is(err, ErrInvalidEvent) || errors.Is(err, ErrMalformedEvent) {
		t.Fatalf("durability failure misclassified: %v", err)
	}
	if e.StateFingerprint() != before {
		t.Fatal("event applied despite failed WAL append")
	}
}

type failingWriter struct {
	writes    int
	failAfter int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.failAfter {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestEngineWALImageDeterministic: two engines fed the same events write
// byte-identical logs — the property torn-tail arithmetic in the chaos
// harness relies on.
func TestEngineWALImageDeterministic(t *testing.T) {
	net, pos := testDeploy(t, 88, 5, 5, 1.6)
	var a, b bytes.Buffer
	cfgA := Config{Tau: 3, Seed: 2, Radius: 1.6, Positions: pos, WAL: &a}
	cfgB := cfgA
	cfgB.WAL = &b
	ea, err := New(net, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := New(net, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutator(net, cfgA, 9)
	for i := 0; i < 30; i++ {
		ev := m.Next()
		if err := ea.Step(ev); err != nil {
			t.Fatal(err)
		}
		if err := eb.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WAL image depends on the application path")
	}
	if int64(a.Len()) != ea.Stats().WALBytes {
		t.Fatalf("WALBytes %d, image %d", ea.Stats().WALBytes, a.Len())
	}
}

func TestKindString(t *testing.T) {
	for k := KindJoin; k <= KindMove; k++ {
		if s := k.String(); s == "" || s == fmt.Sprintf("kind(%d)", uint8(k)) {
			t.Fatalf("kind %d has no name", uint8(k))
		}
	}
	if Kind(0).String() != "kind(0)" {
		t.Fatal("zero kind must print numerically")
	}
}
