package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"dcc/internal/core"
	"dcc/internal/graph"
	"dcc/internal/trace"
)

// walRun feeds n Mutator events through an engine writing a WAL, recording
// the state fingerprint after every event. Returns the engine, the log
// image, the events, and the per-prefix fingerprints (index i = state
// after the first i events; index 0 = genesis).
func walRun(t testing.TB, net core.Network, cfg Config, mutSeed int64, n int) (*Engine, []byte, []Event, [][32]byte) {
	t.Helper()
	var buf bytes.Buffer
	cfg.WAL = &buf
	e, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutator(net, cfg, mutSeed)
	events := make([]Event, 0, n)
	fps := [][32]byte{e.StateFingerprint()}
	for i := 0; i < n; i++ {
		ev := m.Next()
		events = append(events, ev)
		if err := e.Step(ev); err != nil {
			t.Fatalf("event %d (%v): %v", i, ev, err)
		}
		fps = append(fps, e.StateFingerprint())
	}
	return e, buf.Bytes(), events, fps
}

func TestRecoverFullWAL(t *testing.T) {
	net, pos := testDeploy(t, 90, 6, 6, 1.6)
	cfg := Config{Tau: 4, Seed: 13, Radius: 1.6, Positions: pos}
	orig, image, _, _ := walRun(t, net, cfg, 55, 60)

	rec, info, err := Recover(net, cfg, nil, bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	if info.TornTail || info.CorruptTail {
		t.Fatalf("clean log reported damage: %+v", info)
	}
	if info.ValidWALBytes != int64(len(image)) {
		t.Fatalf("ValidWALBytes %d, image %d", info.ValidWALBytes, len(image))
	}
	if info.Replayed != orig.Stats().Applied {
		t.Fatalf("replayed %d, original applied %d", info.Replayed, orig.Stats().Applied)
	}
	if rec.StateFingerprint() != orig.StateFingerprint() {
		t.Fatal("recovered state differs from the original")
	}
	if rec.CoverFingerprint() != orig.CoverFingerprint() {
		t.Fatal("recovered cover differs from the original")
	}
	if rec.Watermark() != orig.Watermark() {
		t.Fatalf("watermark %d vs %d", rec.Watermark(), orig.Watermark())
	}
}

// TestRecoverKillAtEveryByte is the tentpole durability property: for a
// kill at ANY byte of the log, recovery converges to exactly the state
// after the last fully persisted event — byte-identical fingerprint —
// with the torn tail reported and the valid prefix length exact.
func TestRecoverKillAtEveryByte(t *testing.T) {
	net, pos := testDeploy(t, 91, 5, 5, 1.6)
	cfg := Config{Tau: 3, Seed: 7, Radius: 1.6, Positions: pos}
	n := 25
	if testing.Short() {
		n = 12
	}
	_, image, _, fps := walRun(t, net, cfg, 56, n)

	// Reconstruct the record boundaries: header then one record per event.
	var ends []int64
	rr := trace.NewRecordReader(bytes.NewReader(image), 0)
	for {
		if _, err := rr.Next(); err != nil {
			break
		}
		ends = append(ends, rr.Offset())
	}
	if len(ends) != n+1 {
		t.Fatalf("log holds %d records, want %d", len(ends), n+1)
	}

	for cut := 0; cut <= len(image); cut++ {
		// How many complete records (header included) survive the cut?
		complete := 0
		var validBytes int64
		for _, e := range ends {
			if int64(cut) >= e {
				complete++
				validBytes = e
			}
		}
		rec, info, err := Recover(net, cfg, nil, bytes.NewReader(image[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantTorn := int64(cut) != validBytes
		if info.TornTail != wantTorn || info.CorruptTail {
			t.Fatalf("cut %d: info %+v, want torn=%v", cut, info, wantTorn)
		}
		if info.ValidWALBytes != validBytes {
			t.Fatalf("cut %d: ValidWALBytes %d, want %d", cut, info.ValidWALBytes, validBytes)
		}
		applied := complete - 1 // events beyond the header
		if applied < 0 {
			applied = 0
		}
		if got := rec.StateFingerprint(); got != fps[applied] {
			t.Fatalf("cut %d: recovered state is not the state after %d events", cut, applied)
		}
	}
}

func TestSnapshotRecovery(t *testing.T) {
	net, pos := testDeploy(t, 92, 6, 6, 1.6)
	cfg := Config{Tau: 4, Seed: 19, Positions: pos} // explicit mode
	var wal bytes.Buffer
	cfg.WAL = &wal
	e, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutator(net, cfg, 57)
	var snap bytes.Buffer
	for i := 0; i < 50; i++ {
		if err := e.Step(m.Next()); err != nil {
			t.Fatal(err)
		}
		if i == 24 {
			if _, err := e.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	rec, info, err := Recover(net, cfg, bytes.NewReader(snap.Bytes()), bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !info.FromSnapshot || info.SnapshotSeq == 0 {
		t.Fatalf("snapshot not used: %+v", info)
	}
	if info.SkippedOld == 0 {
		t.Fatalf("no WAL records skipped below the snapshot watermark: %+v", info)
	}
	if info.Replayed == 0 {
		t.Fatalf("no WAL records replayed above the snapshot watermark: %+v", info)
	}
	if rec.StateFingerprint() != e.StateFingerprint() {
		t.Fatal("snapshot+tail recovery diverged from the original state")
	}
	if rec.CoverFingerprint() != e.CoverFingerprint() {
		t.Fatal("snapshot+tail recovery diverged from the original cover")
	}

	// Snapshot alone recovers the mid-stream state.
	recSnap, info2, err := Recover(net, cfg, bytes.NewReader(snap.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if recSnap.Watermark() != info2.SnapshotSeq {
		t.Fatalf("watermark %d, snapshot seq %d", recSnap.Watermark(), info2.SnapshotSeq)
	}
	assertConverged(t, recSnap, cfg)
}

// assertConverged checks the universal invariant every recovered engine
// must satisfy: its cover equals the batch canonical schedule of its own
// materialized topology.
func assertConverged(t *testing.T, e *Engine, cfg Config) {
	t.Helper()
	net := e.MaterializedNetwork()
	res, err := core.Schedule(net, core.Options{Tau: cfg.Tau, Seed: cfg.Seed, Mode: core.Canonical})
	if err != nil {
		t.Fatalf("batch schedule of materialized topology: %v", err)
	}
	want := CoverFingerprintOf(cfg.Tau, cfg.Seed, e.LiveNodesAt(), net.G.Edges(), res.KeptInternal)
	if got := e.CoverFingerprint(); got != want {
		t.Fatal("engine cover diverged from the batch schedule of its topology")
	}
}

// TestSnapshotTornAtEveryByte: every strict prefix of a snapshot is
// rejected as ErrCorruptSnapshot — a half-written snapshot can never be
// installed.
func TestSnapshotTornAtEveryByte(t *testing.T) {
	net, pos := testDeploy(t, 93, 5, 5, 1.6)
	cfg := Config{Tau: 3, Seed: 2, Radius: 1.6, Positions: pos}
	e, _, _, _ := walRun(t, net, cfg, 58, 10)
	var snap bytes.Buffer
	if _, err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	image := snap.Bytes()
	step := 1
	if testing.Short() {
		step = 7
	}
	for cut := 0; cut < len(image); cut += step {
		_, _, err := Recover(net, cfg, bytes.NewReader(image[:cut]), nil)
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("cut %d: err = %v, want ErrCorruptSnapshot", cut, err)
		}
	}
	// The intact image still loads.
	if _, _, err := Recover(net, cfg, bytes.NewReader(image), nil); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotBitFlips: single-byte damage anywhere in the snapshot is
// caught by the frame checksum or the embedded state fingerprint.
func TestSnapshotBitFlips(t *testing.T) {
	net, pos := testDeploy(t, 94, 5, 5, 1.6)
	cfg := Config{Tau: 3, Seed: 2, Positions: pos}
	e, _, _, _ := walRun(t, net, cfg, 59, 10)
	var snap bytes.Buffer
	if _, err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	image := snap.Bytes()
	step := 3
	if testing.Short() {
		step = 17
	}
	for pos := 0; pos < len(image); pos += step {
		damaged := append([]byte(nil), image...)
		damaged[pos] ^= 0x20
		_, _, err := Recover(net, cfg, bytes.NewReader(damaged), nil)
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("flip at %d: err = %v, want ErrCorruptSnapshot", pos, err)
		}
	}
}

func TestRecoverConfigMismatch(t *testing.T) {
	net, pos := testDeploy(t, 95, 5, 5, 1.6)
	cfg := Config{Tau: 3, Seed: 2, Radius: 1.6, Positions: pos}
	e, image, _, _ := walRun(t, net, cfg, 60, 10)
	var snap bytes.Buffer
	if _, err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	alter := []struct {
		name string
		mod  func(c *Config)
	}{
		{"tau", func(c *Config) { c.Tau = 5 }},
		{"seed", func(c *Config) { c.Seed = 99 }},
		{"radius", func(c *Config) { c.Radius = 2.5 }},
	}
	for _, a := range alter {
		t.Run(a.name, func(t *testing.T) {
			bad := cfg
			a.mod(&bad)
			if _, _, err := Recover(net, bad, nil, bytes.NewReader(image)); !errors.Is(err, ErrConfigMismatch) {
				t.Fatalf("WAL under altered %s: err = %v, want ErrConfigMismatch", a.name, err)
			}
			if _, _, err := Recover(net, bad, bytes.NewReader(snap.Bytes()), nil); !errors.Is(err, ErrConfigMismatch) {
				t.Fatalf("snapshot under altered %s: err = %v, want ErrConfigMismatch", a.name, err)
			}
		})
	}
}

func TestRecoverForeignWAL(t *testing.T) {
	net, pos := testDeploy(t, 96, 5, 5, 1.6)
	cfg := Config{Tau: 3, Seed: 2, Positions: pos}
	// A structurally valid record stream that is not a WAL.
	foreign := trace.AppendRecord(nil, []byte("not a wal header"))
	foreign = trace.AppendRecord(foreign, []byte("still not"))
	_, _, err := Recover(net, cfg, nil, bytes.NewReader(foreign))
	if !errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("foreign log: err = %v, want ErrCorruptWAL", err)
	}
	// Raw garbage is indistinguishable from a torn header: recovery
	// falls back to genesis and reports the damage.
	rec, info, err := Recover(net, cfg, nil, bytes.NewReader([]byte("\xff\xfe\xfdgarbage")))
	if err != nil {
		t.Fatalf("garbage log: %v", err)
	}
	if !info.TornTail && !info.CorruptTail {
		t.Fatalf("garbage log reported clean: %+v", info)
	}
	if info.ValidWALBytes != 0 || info.Replayed != 0 {
		t.Fatalf("garbage log replayed something: %+v", info)
	}
	assertConverged(t, rec, cfg)
}

// TestRecoverEventDecodeCorruption: a checksummed frame whose payload is
// not a valid event stops replay at the last good record.
func TestRecoverEventDecodeCorruption(t *testing.T) {
	net, pos := testDeploy(t, 97, 5, 5, 1.6)
	cfg := Config{Tau: 3, Seed: 2, Radius: 1.6, Positions: pos}
	_, image, _, fps := walRun(t, net, cfg, 61, 6)
	// Append a properly framed record that is not an event.
	tampered := trace.AppendRecord(append([]byte(nil), image...), []byte{0x7F, 0x01, 0x02, 0x03})
	// And a valid event after it, which must NOT be trusted.
	after := Event{Seq: 1000, Kind: KindMove, Node: net.InternalNodes()[0], X: 1, Y: 1}
	tampered = trace.AppendRecord(tampered, after.appendTo(nil))

	rec, info, err := Recover(net, cfg, nil, bytes.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	if !info.CorruptTail {
		t.Fatalf("tampered record not reported: %+v", info)
	}
	if info.ValidWALBytes != int64(len(image)) {
		t.Fatalf("ValidWALBytes %d, want %d (end of last good record)", info.ValidWALBytes, len(image))
	}
	if rec.StateFingerprint() != fps[len(fps)-1] {
		t.Fatal("recovered state is not the last good prefix")
	}
	if rec.Watermark() >= after.Seq {
		t.Fatal("event beyond the corruption was applied")
	}
}

// TestRecoverContinuesWAL: recover from a torn log, truncate it to the
// valid prefix, attach it for appends, ingest more — then recover again
// from the extended log. The double-crash path of the recovery contract.
func TestRecoverContinuesWAL(t *testing.T) {
	net, pos := testDeploy(t, 98, 6, 6, 1.6)
	cfg := Config{Tau: 3, Seed: 23, Radius: 1.6, Positions: pos}
	n := 40
	orig, image, events, _ := walRun(t, net, cfg, 62, n)

	// Crash mid-log: keep ~60% of the bytes plus a torn tail.
	cut := len(image) * 6 / 10
	cfg1 := cfg
	cfg1.WAL = nil
	rec1, info1, err := Recover(net, cfg1, nil, bytes.NewReader(image[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	// Truncate to the valid prefix and attach for appends.
	log := bytes.NewBuffer(append([]byte(nil), image[:info1.ValidWALBytes]...))
	rec1.cfg.WAL = log
	// The producer redelivers everything after the recovered watermark
	// (plus a stale straggler, which is refused).
	redelivered := 0
	for _, ev := range events {
		if ev.Seq <= rec1.Watermark() {
			continue
		}
		if err := rec1.Step(ev); err != nil {
			t.Fatalf("redelivery of %v: %v", ev, err)
		}
		redelivered++
	}
	if redelivered == 0 {
		t.Fatal("cut preserved the whole log; pick a smaller cut")
	}
	if rec1.StateFingerprint() != orig.StateFingerprint() {
		t.Fatal("crash-restart with redelivery diverged from the uninterrupted run")
	}

	// Second crash on the extended log: full recovery this time.
	rec2, _, err := Recover(net, cfg, nil, bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rec2.StateFingerprint() != orig.StateFingerprint() {
		t.Fatal("second recovery diverged")
	}
	if rec2.CoverFingerprint() != orig.CoverFingerprint() {
		t.Fatal("second recovery cover diverged")
	}
}

func TestSnapshotBoundaryMismatch(t *testing.T) {
	net, pos := testDeploy(t, 99, 5, 5, 1.6)
	cfg := Config{Tau: 3, Seed: 2, Positions: pos}
	e, _, _, _ := walRun(t, net, cfg, 63, 5)
	var snap bytes.Buffer
	if _, err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	other, opos := testDeploy(t, 100, 6, 6, 1.6)
	ocfg := Config{Tau: 3, Seed: 2, Positions: opos}
	if _, _, err := Recover(other, ocfg, bytes.NewReader(snap.Bytes()), nil); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("foreign genesis accepted: %v", err)
	}
}

// TestSnapshotRejectsMalformedEdges: a snapshot whose checksum holds but
// whose universe edge list is not normalized, strictly (U,V)-ascending and
// within the universe is refused as corrupt, never installed.
func TestSnapshotRejectsMalformedEdges(t *testing.T) {
	net, pos := testDeploy(t, 101, 5, 5, 1.6)
	cfg := Config{Tau: 3, Seed: 2, Positions: pos}
	e, _, _, _ := walRun(t, net, cfg, 64, 5)
	appendEdges := func(b []byte, es []graph.Edge) []byte {
		b = binary.AppendUvarint(b, uint64(len(es)))
		for _, ed := range es {
			b = binary.AppendUvarint(b, uint64(ed.U))
			b = binary.AppendUvarint(b, uint64(ed.V))
		}
		return b
	}
	// The state bytes end with the universe edge list.
	edges := e.topo.edges(false)
	state := e.stateBytes()
	head := state[:len(state)-len(appendEdges(nil, edges))]
	snapshot := func(es []graph.Edge) *bytes.Reader {
		st := appendEdges(slices.Clone(head), es)
		sum := sha256.Sum256(st)
		payload := append(append(slices.Clone(snapMagic), st...), sum[:]...)
		var buf bytes.Buffer
		if _, err := trace.WriteRecord(&buf, payload); err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(buf.Bytes())
	}
	if _, _, err := Recover(net, cfg, snapshot(edges), nil); err != nil {
		t.Fatalf("re-encoded snapshot refused: %v", err)
	}
	a, b := edges[0], edges[1]
	for _, tc := range []struct {
		name  string
		edges []graph.Edge
	}{
		{"reversed", []graph.Edge{{U: a.V, V: a.U}}},
		{"self-loop", []graph.Edge{{U: a.U, V: a.U}}},
		{"unsorted", []graph.Edge{b, a}},
		{"duplicate", []graph.Edge{a, a}},
		{"outside the universe", []graph.Edge{{U: a.U, V: 99999}}},
	} {
		if _, _, err := Recover(net, cfg, snapshot(tc.edges), nil); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s edge list: err = %v, want ErrCorruptSnapshot", tc.name, err)
		}
	}
}

func TestRecoverOversizedWALRecord(t *testing.T) {
	net, pos := testDeploy(t, 101, 5, 5, 1.6)
	cfg := Config{Tau: 3, Seed: 2, Positions: pos}
	image := trace.AppendRecord(nil, appendWALHeader(nil, cfg))
	// A record larger than any event can be: rejected at the frame layer
	// as corrupt, stopping replay without allocation games.
	image = trace.AppendRecord(image, bytes.Repeat([]byte{1}, maxEventRecordLen+100))
	rec, info, err := Recover(net, cfg, nil, bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	if !info.CorruptTail || info.Replayed != 0 {
		t.Fatalf("oversized record not treated as corruption: %+v", info)
	}
	assertConverged(t, rec, cfg)
}
