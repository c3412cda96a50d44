package stream

import (
	"bytes"
	"sync"
	"testing"

	"dcc/internal/telemetry"
)

// TestStatsConcurrentWithApply is the -race witness for the engine's
// internal mutex: observers poll Stats, Watermark and LiveCount while a
// producer streams events through Step and Ingest. Any unsynchronized
// access to the counters or the topology trips the race detector.
func TestStatsConcurrentWithApply(t *testing.T) {
	net, pos := testDeploy(t, 50, 6, 6, 1.6)
	e, err := New(net, Config{Tau: 4, Seed: 11, Positions: pos, Radius: 1.6})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = e.Stats()
				_ = e.Watermark()
				_ = e.LiveCount()
			}
		}()
	}
	m := NewMutator(net, Config{Radius: 1.6, Positions: pos}, 77)
	for seq := 1; seq <= 200; seq++ {
		ev := m.Next()
		if seq%2 == 0 {
			_ = e.Step(ev)
		} else {
			_ = e.Ingest(ev)
		}
		if seq%50 == 0 {
			e.Cover()
		}
	}
	close(done)
	wg.Wait()
	if s := e.Stats(); s.Admitted == 0 {
		t.Fatalf("no events admitted: %+v", s)
	}
}

// TestEngineTelemetryMirrorsStats pins the publishing contract: after any
// sequence of operations, every deterministic stream.* counter equals the
// corresponding Stats field (the dccdebug build additionally asserts this
// after every publish).
func TestEngineTelemetryMirrorsStats(t *testing.T) {
	net, pos := testDeploy(t, 50, 6, 6, 1.6)
	reg := telemetry.New()
	var wal bytes.Buffer
	e, err := New(net, Config{Tau: 4, Seed: 11, Positions: pos, Radius: 1.6, Telemetry: reg, WAL: &wal})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutator(net, Config{Radius: 1.6, Positions: pos}, 78)
	for seq := 1; seq <= 120; seq++ {
		_ = e.Ingest(m.Next())
		if seq%40 == 0 {
			e.Cover()
		}
	}
	var snap bytes.Buffer
	if _, err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	for _, c := range []struct {
		name string
		want int64
	}{
		{"stream.admitted", int64(s.Admitted)},
		{"stream.applied", int64(s.Applied)},
		{"stream.rejected", int64(s.Rejected)},
		{"stream.duplicates", int64(s.Duplicates)},
		{"stream.rebuilds", int64(s.Rebuilds)},
		{"stream.fast_restores", int64(s.FastRestores)},
		{"stream.elections", int64(s.Elections)},
		{"stream.tests", int64(s.Tests)},
		{"stream.memo_hits", int64(s.MemoHits)},
		{"stream.memo_misses", int64(s.MemoMisses)},
		{"stream.memo_resets", int64(s.MemoResets)},
		{"stream.witness_hits", int64(s.WitnessHits)},
		{"stream.replay_hits", int64(s.ReplayHits)},
		{"stream.wal_bytes", s.WALBytes},
		{"stream.snapshots", int64(s.Snapshots)},
	} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, Stats says %d", c.name, got, c.want)
		}
	}
	if got := reg.Gauge("stream.watermark").Value(); got != int64(e.Watermark()) {
		t.Errorf("stream.watermark gauge %d, engine watermark %d", got, e.Watermark())
	}
	if got := reg.Gauge("stream.live").Value(); got != int64(e.LiveCount()) {
		t.Errorf("stream.live gauge %d, engine live count %d", got, e.LiveCount())
	}
	if s.Elections == 0 || s.Tests == 0 {
		t.Fatalf("test exercised no elections: %+v", s)
	}
}

// syncCountingWAL is a WAL writer that counts Sync calls.
type syncCountingWAL struct {
	bytes.Buffer
	syncs int
}

func (w *syncCountingWAL) Sync() error {
	w.syncs++
	return nil
}

// TestEngineSpansAndSyncWAL drives an engine with a clocked registry and
// a syncable WAL: the wal_append, fsync and election spans must
// record, and Sync must run once per WAL append (header included).
func TestEngineSpansAndSyncWAL(t *testing.T) {
	net, pos := testDeploy(t, 50, 6, 6, 1.6)
	reg := telemetry.NewWithClock(&telemetry.ManualClock{Tick: 1})
	wal := &syncCountingWAL{}
	e, err := New(net, Config{Tau: 4, Seed: 11, Positions: pos, Radius: 1.6, Telemetry: reg, WAL: wal, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutator(net, Config{Radius: 1.6, Positions: pos}, 79)
	admitted := 0
	for seq := 1; seq <= 30; seq++ {
		if e.Step(m.Next()) == nil {
			admitted++
		}
	}
	e.Cover()
	if want := admitted + 1; wal.syncs != want { // +1 for the header record
		t.Errorf("WAL synced %d times, want %d (admitted %d + header)", wal.syncs, want, admitted)
	}
	for _, name := range []string{"stream.wal_append", "stream.fsync", "stream.election"} {
		if n := reg.TimingHistogram(name).Count(); n == 0 {
			t.Errorf("span %s recorded no observations", name)
		}
	}
	if n := reg.TimingHistogram("stream.wal_append").Count(); n != int64(admitted+1) {
		t.Errorf("wal_append span count %d, want %d", n, admitted+1)
	}
}
