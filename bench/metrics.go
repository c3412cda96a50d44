package main

import (
	"fmt"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric the benchmark reports. exact marks a value
// that is a pure function of the seed: -compare checks it for equality
// (behaviour drift) instead of against a bound.
type metricDef struct {
	name, unit string
	exact      bool
}

// endToEndDefs are the metrics of an untraced run, in BENCHMARK.json order.
// An "event" is the workload's unit of timed work: one deployment's
// ScheduleDCC sweep over every confine size (fig3-*), one stepped
// Step+Cover (stream-churn) or one shard.Schedule call (shard-1e5).
var endToEndDefs = []metricDef{
	{"setup_s", "s", false},
	{"wall_s", "s", false},
	{"event_p50_ms", "ms", false},
	{"event_p90_ms", "ms", false},
	{"events_per_s", "1/s", false},
	{"kept_frac", "ratio", true},
	{"max_rss_mb", "MB", false},
}

// perLayerDefs are the metrics of a traced run, in BENCHMARK.json order.
// graph, cycles, vpt and core come from replaying every result's deletion
// history and are measured on every workload; stream and shard read 0 on
// the workloads that do not run those engines.
var perLayerDefs = []metricDef{
	{"graph.ball_us", "us", false},
	{"graph.ball_nodes", "count", true},
	{"graph.twocore_us", "us", false},
	{"graph.share", "ratio", false},
	{"cycles.span_us", "us", false},
	{"cycles.span_us_p90", "us", false},
	{"cycles.share", "ratio", false},
	{"cycles.row_bits", "count", true},
	{"cycles.nu", "count", true},
	{"cycles.tri_decided_frac", "ratio", true},
	{"vpt.verdict_us", "us", false},
	{"vpt.verdict_us_p90", "us", false},
	{"vpt.self_us", "us", false},
	{"vpt.commit_us", "us", false},
	{"vpt.dirty_ball", "count", true},
	{"vpt.share", "ratio", false},
	{"vpt.wall_ratio", "ratio", false},
	{"core.tests", "count", true},
	{"core.tests_per_deletion", "ratio", true},
	{"core.canonical_test_ratio", "ratio", true},
	{"stream.step_ms_p50", "ms", false},
	{"stream.step_ms_p90", "ms", false},
	{"stream.elect_ms_p50", "ms", false},
	{"stream.elect_ms_p90", "ms", false},
	{"stream.elect_ms_p50.move", "ms", false},
	{"stream.elect_ms_p50.join", "ms", false},
	{"stream.elect_ms_p50.leave", "ms", false},
	{"stream.elect_ms_p50.crash", "ms", false},
	{"stream.wal_us_p50", "us", false},
	{"stream.tests_per_event", "count", true},
	{"stream.memo_hit_frac", "ratio", true},
	{"stream.rebuild_frac", "ratio", true},
	{"stream.wal_bytes_per_event", "B", true},
	{"shard.batches", "count", true},
	{"shard.deferred", "count", true},
	{"shard.batch_width", "ratio", true},
	{"shard.defer_frac", "ratio", true},
	{"shard.replicas_over_n", "ratio", true},
	{"shard.max_local", "count", true},
	{"shard.halo_deltas", "count", true},
}

// notExercised sets every per-layer metric under prefix to 0, for a
// workload that never runs that layer.
func notExercised(layers map[string]float64, prefix string) {
	for _, d := range perLayerDefs {
		if strings.HasPrefix(d.name, prefix) {
			layers[d.name] = 0
		}
	}
}

// report is what one workload run measured.
type report struct {
	setups    []time.Duration // one per from-scratch input build
	passes    []time.Duration // timed part of each pass
	events    []time.Duration // latency of every event
	perSecond float64         // events_per_s
	keptFrac  float64
	rssMB     float64
	attempted int
	failed    int
	layers    map[string]float64 // traced runs only
}

func (r *report) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":      quantileDur(r.setups, 0.5).Seconds(),
		"wall_s":       quantileDur(r.passes, 0.5).Seconds(),
		"event_p50_ms": ms(quantileDur(r.events, 0.5)),
		"event_p90_ms": ms(quantileDur(r.events, 0.9)),
		"events_per_s": r.perSecond,
		"kept_frac":    r.keptFrac,
		"max_rss_mb":   r.rssMB,
	}
}

// measureRSS records the process's peak resident set so far. Workloads call
// it right after their timed passes, before certification allocates more.
func (r *report) measureRSS() error {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// quantile returns the q-quantile of xs, interpolated linearly between the
// two closest ranks (0 when empty). A nearest-rank median of fig3-dense's
// four sweeps jumped between its two deployments' costs from run to run.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := q * float64(len(s)-1)
	i := int(h)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

func quantileDur(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the default exclusive
// method), which is how the spread of a recorded run set is judged.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s)
	var q [3]float64
	switch m {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
