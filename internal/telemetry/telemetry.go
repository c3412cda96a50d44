// Package telemetry is the repository's zero-dependency metrics substrate:
// monotonic counters, gauges, fixed-bucket histograms and phase-scoped
// latency spans. It is designed around the
// determinism contract ("reproducible from Config alone", DESIGN.md §8):
//
//   - Every series carries a Class. Deterministic series (counters, gauges
//     and histograms fed from engine work — admissions, cache lookups,
//     dirty-ball sizes) are worker-count-invariant and join the equivalence
//     fingerprints. Timing series (span durations, worker occupancy) depend
//     on the scheduler and the machine; they are segregated by construction
//     and excluded from Fingerprint.
//   - Time flows only through an injected Clock. The package never reads
//     the wall clock on its own: a Registry built by New has no clock and
//     every span is a no-op, so simulation packages can thread a *Registry
//     unconditionally. Production clocks (WallClock) are injected
//     exclusively by cmd/ binaries; the clockflow analyzer (DESIGN.md §14)
//     statically proves no timing value reaches algorithmic state, seeds,
//     or control flow in simulation packages.
//
// All handles and the Registry itself are nil-safe: methods on a nil
// *Registry return nil handles, and operations on nil handles do nothing.
// Instrumented code therefore needs no "telemetry enabled?" branches —
// which is exactly what keeps the telemetry-on-vs-off byte-identity test
// (TestTelemetryDoesNotPerturbResults) trivially true.
//
// Counters, gauges and histogram buckets are updated with atomic
// operations, so concurrent workers may observe into the same series.
// Deterministic counters and histograms stay worker-count-invariant under
// concurrency because their final state is a commutative fold (sums,
// bucket counts, min/max) of a worker-count-invariant multiset of
// observations. Gauges are last-write-wins and therefore must only be set
// from single-goroutine contexts (post-barrier, or a serialized engine).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Class partitions series by their relationship to the determinism
// contract.
type Class uint8

const (
	// Deterministic series are a pure function of the Config: identical
	// across worker counts and included in Fingerprint.
	Deterministic Class = iota
	// Timing series depend on the clock and the scheduler: excluded from
	// Fingerprint and from every equivalence comparison.
	Timing
)

// String returns the NDJSON class label.
func (c Class) String() string {
	if c == Timing {
		return "timing"
	}
	return "deterministic"
}

// Counter is a monotonic event counter. The zero value is ready to use; a
// nil *Counter ignores all operations.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (d < 0 is ignored: counters are
// monotonic).
func (c *Counter) Add(d int64) {
	if c == nil || d <= 0 {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins instantaneous value (queue depth, live-node
// count). Because it is last-write-wins, a deterministic gauge must only
// be set from a single-goroutine context; concurrent engines publish
// counters instead. A nil *Gauge ignores all operations.
type Gauge struct{ v atomic.Int64 }

// Set records the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the last value set (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Hist is a fixed-bucket histogram: bucket i counts observations v with
// v ≤ bounds[i] (and above bounds[i-1]), plus one overflow bucket past the
// last bound. A nil *Hist ignores all operations.
type Hist struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // math.MaxInt64 until the first observation
	max    atomic.Int64 // math.MinInt64 until the first observation
}

func newHist(bounds []int64) *Hist {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not strictly increasing at index %d (%d after %d)",
				i, bounds[i], bounds[i-1]))
		}
	}
	h := &Hist{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value.
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Hist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Hist) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Min returns the smallest observation (0 when empty).
func (h *Hist) Min() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest observation (0 when empty).
func (h *Hist) Max() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Buckets returns copies of the bucket upper bounds and the per-bucket
// counts (one extra trailing count for the overflow bucket).
func (h *Hist) Buckets() (bounds, counts []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]int64(nil), h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// upper edge of the bucket holding the ⌈q·count⌉-th smallest observation,
// clamped to the observed maximum (which also covers the unbounded
// overflow bucket). Returns 0 when the histogram is empty. The bound is
// exact to bucket resolution — the true quantile lies in the same bucket.
func (h *Hist) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	max := h.max.Load()
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			if i == len(h.bounds) || h.bounds[i] > max {
				return max
			}
			return h.bounds[i]
		}
	}
	return max
}

// DefaultLatencyBounds is the shared latency bucket layout: 1-2-5 decades
// from 1µs to 100s, in nanoseconds. Every span histogram uses it.
var DefaultLatencyBounds = []int64{
	1_000, 2_000, 5_000, // 1µs–5µs
	10_000, 20_000, 50_000,
	100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000, // 1ms–5ms
	10_000_000, 20_000_000, 50_000_000,
	100_000_000, 200_000_000, 500_000_000,
	1_000_000_000, 2_000_000_000, 5_000_000_000, // 1s–5s
	10_000_000_000, 20_000_000_000, 50_000_000_000,
	100_000_000_000, // 100s
}

// metric is one registered series.
type metric struct {
	name  string
	kind  string // "counter", "gauge" or "histogram"
	class Class
	unit  string // "ns" for span histograms, "" otherwise
	c     *Counter
	g     *Gauge
	h     *Hist
}

// Registry holds the named series of one collection domain. A nil
// *Registry is the "telemetry off" state: every method returns a nil
// handle (or a no-op Span), so instrumented code never branches.
type Registry struct {
	clock  Clock
	mu     sync.Mutex
	byName map[string]*metric
}

// New returns a registry with no clock: counters, gauges and histograms
// work, spans are no-ops. Simulation code can safely receive such a
// registry — there is no time source to leak.
func New() *Registry { return NewWithClock(nil) }

// NewWithClock returns a registry whose spans read the given clock.
// Production code injects WallClock (from a cmd/ binary only); tests
// inject a ManualClock.
func NewWithClock(c Clock) *Registry {
	return &Registry{clock: c, byName: make(map[string]*metric)}
}

// lookup returns the series named name, creating it on first use. Name
// collisions across kinds or classes are programmer errors and panic
// deterministically.
func (r *Registry) lookup(name, kind string, class Class, unit string, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind || m.class != class {
			panic(fmt.Sprintf("telemetry: series %q redefined as %s/%s (was %s/%s)",
				name, class, kind, m.class, m.kind))
		}
		return m
	}
	m := mk()
	m.name, m.kind, m.class, m.unit = name, kind, class, unit
	r.byName[name] = m
	return m
}

// Counter returns the deterministic counter named name.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, "counter", Deterministic, "", func() *metric {
		return &metric{c: &Counter{}}
	}).c
}

// Gauge returns the deterministic gauge named name. Gauges are
// last-write-wins: set them only from single-goroutine contexts.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, "gauge", Deterministic, "", func() *metric {
		return &metric{g: &Gauge{}}
	}).g
}

// Histogram returns the deterministic histogram named name with the given
// bucket bounds (strictly increasing). Re-requesting an existing histogram
// with different bounds panics.
func (r *Registry) Histogram(name string, bounds []int64) *Hist {
	if r == nil {
		return nil
	}
	return r.histogram(name, bounds, Deterministic, "")
}

// TimingHistogram returns the timing-class latency histogram named name,
// bucketed by DefaultLatencyBounds in nanoseconds. This is the series
// StartSpan records into.
func (r *Registry) TimingHistogram(name string) *Hist {
	if r == nil {
		return nil
	}
	return r.histogram(name, DefaultLatencyBounds, Timing, "ns")
}

// TimingValues returns a timing-class histogram with caller-chosen bounds,
// for scheduler-dependent values that are not durations (worker occupancy,
// batch sizes under contention).
func (r *Registry) TimingValues(name string, bounds []int64) *Hist {
	if r == nil {
		return nil
	}
	return r.histogram(name, bounds, Timing, "")
}

func (r *Registry) histogram(name string, bounds []int64, class Class, unit string) *Hist {
	m := r.lookup(name, "histogram", class, unit, func() *metric {
		return &metric{h: newHist(bounds)}
	})
	if len(m.h.bounds) != len(bounds) {
		panic(fmt.Sprintf("telemetry: histogram %q re-requested with %d bounds (has %d)",
			name, len(bounds), len(m.h.bounds)))
	}
	for i := range bounds {
		if m.h.bounds[i] != bounds[i] {
			panic(fmt.Sprintf("telemetry: histogram %q re-requested with different bounds at index %d", name, i))
		}
	}
	return m.h
}

// Span is one phase-scoped timing measurement: StartSpan reads the clock,
// End reads it again and records the duration into the span's timing
// histogram. The zero Span (from a nil registry or a clock-less one) is a
// no-op whose End returns 0.
type Span struct {
	h     *Hist
	clock Clock
	t0    int64
}

// StartSpan begins a span recording into the timing histogram named name.
// Without a clock (nil registry, or a registry built by New) the span is a
// no-op — which is how simulation packages can be instrumented while
// remaining provably timing-free.
func (r *Registry) StartSpan(name string) Span {
	if r == nil || r.clock == nil {
		return Span{}
	}
	return Span{h: r.TimingHistogram(name), clock: r.clock, t0: r.clock.Now()}
}

// End records the span's duration (clamped at 0) into its histogram and
// returns it in nanoseconds. End on a zero Span returns 0.
func (s Span) End() int64 {
	if s.clock == nil {
		return 0
	}
	d := s.clock.Now() - s.t0
	if d < 0 {
		d = 0
	}
	s.h.Observe(d)
	return d
}

// sorted returns the registered series sorted by name.
func (r *Registry) sorted() []*metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.byName))
	for _, m := range r.byName {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	return ms
}
