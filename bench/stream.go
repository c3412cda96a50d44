package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"dcc"
	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/stream"
)

// streamParams sizes the streaming workload: a Nodes-node deployment in
// geometric mode, and Events pre-generated stream.Mutator events replayed
// twice, stepped and batched (a Cover every CoverEvery events).
type streamParams struct {
	Nodes      int
	AvgDegree  float64
	Tau        int
	Events     int
	CoverEvery int
}

// streamChurn stays at 2000 nodes: one stepped event re-elects the whole
// cover, so per-event cost grows linearly with the deployment.
var streamChurn = streamParams{Nodes: 2000, AvgDegree: 25, Tau: 4, Events: 100, CoverEvery: 25}

// streamEngineSeed fixes the stream engine's canonical priorities, so
// stream-churn runs the same work at every --seed. Priorities drawn from
// --seed made one pass take 26 s at one seed and 35.5 s at another, run
// after run, which put the quartile spread of wall_s and event_p90_ms over
// ten seeds past their bound.
var streamEngineSeed = dcc.DeriveSeed(inputSeed, streamStreamEngine, 0)

// timedWriter counts the time and bytes of the writes through it. Traced
// runs wrap the WAL file in one to split WAL appends out of Step.
type timedWriter struct {
	w    io.Writer
	busy time.Duration
}

func (t *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.w.Write(p)
	t.busy += time.Since(start)
	return n, err
}

// streamRig is one engine brought up from scratch: the deployment, the
// event stream, the WAL file and the engine past its genesis election.
type streamRig struct {
	eng      *stream.Engine
	cfg      stream.Config
	wal      *os.File
	walTimer *timedWriter // nil when untraced
	events   []stream.Event
	boundary int
}

func newStreamRig(e *env, p streamParams) (*streamRig, error) {
	dep, err := dcc.Deploy(dcc.DeployOptions{
		Nodes:     p.Nodes,
		AvgDegree: p.AvgDegree,
		Seed:      dcc.DeriveSeed(inputSeed, streamStreamDeploy, 0),
	})
	if err != nil {
		return nil, err
	}
	net := dep.Network()
	pos := make(map[graph.NodeID]geom.Point, len(dep.Points))
	for i, pt := range dep.Points {
		pos[graph.NodeID(i)] = pt
	}
	r := &streamRig{
		cfg: stream.Config{
			Tau:       p.Tau,
			Seed:      streamEngineSeed,
			Radius:    dep.Rc,
			Positions: pos,
		},
		boundary: len(dep.BoundaryNodes),
	}
	mut := stream.NewMutator(net, r.cfg, dcc.DeriveSeed(inputSeed, streamStreamEvents, 0))
	r.events = make([]stream.Event, p.Events)
	for i := range r.events {
		r.events[i] = mut.Next()
	}
	if r.wal, err = os.CreateTemp(e.outDir, "wal-*.log"); err != nil {
		return nil, err
	}
	r.cfg.WAL = r.wal
	if e.tr != nil {
		r.walTimer = &timedWriter{w: r.wal}
		r.cfg.WAL = r.walTimer
	}
	if r.eng, err = stream.New(net, r.cfg); err != nil {
		r.close()
		return nil, err
	}
	r.eng.Cover()
	return r, nil
}

// close removes the WAL file and drops the engine; closing twice is a
// no-op. The log is scratch data nothing reads back, so a failed close or
// removal changes no result and is ignored.
func (r *streamRig) close() {
	if r.wal == nil {
		return
	}
	_ = r.wal.Close()
	_ = os.Remove(r.wal.Name())
	r.wal, r.eng = nil, nil
}

func (r *streamRig) walBusy() time.Duration {
	if r.walTimer == nil {
		return 0
	}
	return r.walTimer.busy
}

// stepSample is one stepped event, split into its Step and Cover calls,
// with the engine's counter deltas across the two.
type stepSample struct {
	Kind     string  `json:"kind"`
	StepMS   float64 `json:"step_ms"`
	ElectMS  float64 `json:"elect_ms"`
	WALUS    float64 `json:"wal_us"`
	Tests    int     `json:"tests"`
	Misses   int     `json:"memo_misses"`
	Rebuild  bool    `json:"rebuild"`
	hits     int
	walBytes int64
	step     time.Duration
	elect    time.Duration
	wal      time.Duration
}

// runStream times the stepped replay (Step then Cover per event) and the
// batched replay (Ingest, Cover every CoverEvery events) on fresh engines;
// one pass is both replays. Each engine bring-up (genesis election
// included) is one setup_s sample.
func runStream(e *env, p streamParams) (*report, error) {
	rep := &report{}
	newRig := func() (*streamRig, error) {
		runtime.GC()
		start := time.Now()
		r, err := newStreamRig(e, p)
		if err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(start))
		return r, nil
	}

	var (
		samples   []stepSample // first pass
		kept      float64
		finalNet  core.Network
		lastTests int
		batchTime time.Duration
		batched   int
		covers    [][]graph.NodeID // final stepped and batched covers of every pass
	)
	err := e.repeat(rep, func(pass int) (time.Duration, error) {
		stepped, err := newRig()
		if err != nil {
			return 0, err
		}
		defer stepped.close()
		batch, err := newRig()
		if err != nil {
			return 0, err
		}
		defer batch.close()
		passID := e.tr.id()
		passStart := time.Now()
		var timed time.Duration
		var cover []graph.NodeID
		for _, ev := range stepped.events {
			before, walBefore := stepped.eng.Stats(), stepped.walBusy()
			t0 := time.Now()
			err := stepped.eng.Step(ev)
			t1 := time.Now()
			cover = stepped.eng.Cover()
			t2 := time.Now()
			after := stepped.eng.Stats()
			e.tr.add(e.tr.id(), passID, "stream.step", t0, t1, map[string]int64{"kind": int64(ev.Kind), "seq": int64(ev.Seq)})
			e.tr.add(e.tr.id(), passID, "stream.cover", t1, t2, nil)
			timed += t2.Sub(t0)
			rep.events = append(rep.events, t2.Sub(t0))
			rep.attempted++
			if err != nil {
				fmt.Fprintf(e.log, "step %v: %v\n", ev, err)
				rep.failed++
			}
			if pass > 0 {
				continue
			}
			live := stepped.eng.LiveCount() - stepped.boundary
			kept += ratio(float64(len(cover)), float64(live))
			lastTests = after.Tests - before.Tests
			samples = append(samples, stepSample{
				Kind:     ev.Kind.String(),
				Tests:    after.Tests - before.Tests,
				Misses:   after.MemoMisses - before.MemoMisses,
				Rebuild:  after.Rebuilds > before.Rebuilds,
				hits:     after.MemoHits - before.MemoHits,
				walBytes: after.WALBytes - before.WALBytes,
				step:     t1.Sub(t0),
				elect:    t2.Sub(t1),
				wal:      stepped.walBusy() - walBefore,
			})
		}

		t0 := time.Now()
		for i, ev := range batch.events {
			if err := batch.eng.Ingest(ev); err != nil {
				fmt.Fprintf(e.log, "ingest %v: %v\n", ev, err)
				rep.failed++
			}
			rep.attempted++
			if (i+1)%p.CoverEvery == 0 {
				batch.eng.Cover()
			}
		}
		final := batch.eng.Cover()
		t1 := time.Now()
		e.tr.add(e.tr.id(), passID, "stream.batched", t0, t1, nil)
		timed += t1.Sub(t0)
		batchTime += t1.Sub(t0)
		batched += len(batch.events)
		e.tr.add(passID, 0, "pass", passStart, time.Now(), nil)

		covers = append(covers, cover, final)
		if pass == 0 {
			finalNet = stepped.eng.MaterializedNetwork()
		}
		return timed, nil
	})
	if err != nil {
		return nil, err
	}
	if err := rep.measureRSS(); err != nil {
		return nil, err
	}
	rep.perSecond = float64(batched) / batchTime.Seconds()
	rep.keptFrac = kept / float64(p.Events)

	// Both replays of every pass must end on the batch canonical schedule
	// of the final topology (the stream engine's convergence contract).
	start := time.Now()
	canon, err := core.Schedule(finalNet, core.Options{Tau: p.Tau, Seed: streamEngineSeed, Mode: core.Canonical})
	canonWall := time.Since(start)
	if err != nil {
		return nil, err
	}
	rep.attempted += len(covers)
	if n := coverMismatches(canon.KeptInternal, covers...); n > 0 {
		fmt.Fprintf(e.log, "%d final covers differ from the canonical schedule\n", n)
		rep.failed += n
	}
	if e.tr == nil {
		return rep, nil
	}

	st := &layerStats{}
	id := e.tr.id()
	start = time.Now()
	if v := replay(history{g: finalNet.G, tau: p.Tau, deleted: canon.Deleted, kept: canon.KeptInternal}, newProber(st, e.tr, finalNet.G, p.Tau), id); v > 0 {
		fmt.Fprintf(e.log, "canonical schedule of the final topology: %d replay violations\n", v)
		rep.failed++
	}
	e.tr.add(id, 0, "replay.result", start, time.Now(), nil)
	layers := st.metrics(canonWall)
	layers["core.tests"] = float64(canon.Stats.Tests)
	layers["core.tests_per_deletion"] = ratio(float64(canon.Stats.Tests), float64(len(canon.Deleted)))
	layers["core.canonical_test_ratio"] = ratio(float64(canon.Stats.Tests), float64(lastTests))
	for k, v := range streamLayers(samples) {
		layers[k] = v
	}
	notExercised(layers, "shard.")
	rep.layers = layers
	if err := writeTail(e, samples); err != nil {
		return nil, err
	}
	return rep, nil
}

// streamKinds are the event kinds stream.Mutator generates, each with its
// own election-time median.
var streamKinds = []string{"move", "join", "leave", "crash"}

// streamLayers derives the stream.* metrics from the first pass's stepped
// events.
func streamLayers(samples []stepSample) map[string]float64 {
	var tests, hits, rebuilds int
	var walBytes int64
	var step, elect, wal []float64
	byKind := map[string][]float64{}
	for _, s := range samples {
		tests += s.Tests
		hits += s.hits
		walBytes += s.walBytes
		if s.Rebuild {
			rebuilds++
		}
		step = append(step, ms(s.step))
		elect = append(elect, ms(s.elect))
		wal = append(wal, us(s.wal))
		byKind[s.Kind] = append(byKind[s.Kind], ms(s.elect))
	}
	n := float64(len(samples))
	layers := map[string]float64{
		"stream.step_ms_p50":         quantile(step, 0.5),
		"stream.step_ms_p90":         quantile(step, 0.9),
		"stream.elect_ms_p50":        quantile(elect, 0.5),
		"stream.elect_ms_p90":        quantile(elect, 0.9),
		"stream.wal_us_p50":          quantile(wal, 0.5),
		"stream.tests_per_event":     ratio(float64(tests), n),
		"stream.memo_hit_frac":       ratio(float64(hits), float64(tests)),
		"stream.rebuild_frac":        ratio(float64(rebuilds), n),
		"stream.wal_bytes_per_event": ratio(float64(walBytes), n),
	}
	for _, k := range streamKinds {
		layers["stream.elect_ms_p50."+k] = quantile(byKind[k], 0.5)
	}
	return layers
}

// writeTail saves the ten slowest stepped events with their Step/Cover/WAL
// split and prints them.
func writeTail(e *env, samples []stepSample) error {
	tail := slices.Clone(samples)
	for i := range tail {
		tail[i].StepMS, tail[i].ElectMS, tail[i].WALUS = ms(tail[i].step), ms(tail[i].elect), us(tail[i].wal)
	}
	slices.SortStableFunc(tail, func(a, b stepSample) int { return cmp.Compare(b.step+b.elect, a.step+a.elect) })
	tail = tail[:min(10, len(tail))]
	path := filepath.Join(e.outDir, fmt.Sprintf("stream-churn-%d.tail.json", e.seed))
	data, err := json.MarshalIndent(tail, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(e.log, "slowest stepped events (%s):\n", path)
	for _, s := range tail {
		fmt.Fprintf(e.log, "  %-5s step %7.2f ms  elect %7.2f ms  wal %6.1f µs  tests %5d  memo misses %4d  rebuild %v\n",
			s.Kind, s.StepMS, s.ElectMS, s.WALUS, s.Tests, s.Misses, s.Rebuild)
	}
	return nil
}
