package telemetry

import (
	"io"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(7)
	r.Histogram("h", []int64{1, 2}).Observe(1)
	r.TimingHistogram("t").Observe(1)
	if d := r.StartSpan("s").End(); d != 0 {
		t.Fatalf("nil-registry span returned %d", d)
	}
	if got := r.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value %d", got)
	}
	if err := r.WriteNDJSON(&strings.Builder{}); err != nil {
		t.Fatalf("nil WriteNDJSON: %v", err)
	}
	var zero [32]byte
	if r.Fingerprint() == zero {
		// Fingerprint of an empty registry is the hash of the domain tag,
		// never the zero value.
		t.Fatal("nil fingerprint is zero")
	}
}

func TestCounterMonotonic(t *testing.T) {
	r := New()
	c := r.Counter("events")
	c.Add(3)
	c.Add(-5) // ignored: counters are monotonic
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("events") != c {
		t.Fatal("re-request returned a different handle")
	}
}

func TestRegistryCollisionPanics(t *testing.T) {
	r := New()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("kind collision did not panic")
		}
	}()
	r.Gauge("x")
}

// bucketOf mirrors Observe's bucket selection for the test oracle.
func bucketOf(bounds []int64, v int64) int {
	return sort.Search(len(bounds), func(i int) bool { return v <= bounds[i] })
}

// TestQuantileBounds is the percentile-correctness property test: for
// random observation sets, Quantile(q) must be an upper bound of the true
// q-quantile, lie in the same bucket, and never exceed the observed max.
func TestQuantileBounds(t *testing.T) {
	bounds := []int64{1, 2, 5, 10, 20, 50, 100, 200, 500}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		r := New()
		h := r.Histogram("q", bounds)
		n := 1 + rng.Intn(400)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(1000)) // beyond the last bound on purpose
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			target := int((q*float64(n) + 0.999999))
			if target < 1 {
				target = 1
			}
			if target > n {
				target = n
			}
			trueQ := vals[target-1]
			got := h.Quantile(q)
			if got < trueQ {
				t.Fatalf("trial %d q=%v: Quantile %d below true quantile %d", trial, q, got, trueQ)
			}
			if got > vals[n-1] {
				t.Fatalf("trial %d q=%v: Quantile %d above max %d", trial, q, got, vals[n-1])
			}
			if bucketOf(bounds, got) != bucketOf(bounds, trueQ) {
				t.Fatalf("trial %d q=%v: Quantile %d in bucket %d, true quantile %d in bucket %d",
					trial, q, got, bucketOf(bounds, got), trueQ, bucketOf(bounds, trueQ))
			}
		}
	}
	if (&Hist{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
}

func TestSpanRecordsWithManualClock(t *testing.T) {
	clk := &ManualClock{}
	r := NewWithClock(clk)
	sp := r.StartSpan("phase")
	clk.Advance(2500)
	if d := sp.End(); d != 2500 {
		t.Fatalf("span duration %d, want 2500", d)
	}
	h := r.TimingHistogram("phase")
	if h.Count() != 1 || h.Sum() != 2500 {
		t.Fatalf("span histogram count=%d sum=%d", h.Count(), h.Sum())
	}

	// Clock-less registries produce no-op spans and register no series.
	r2 := New()
	if d := r2.StartSpan("phase").End(); d != 0 {
		t.Fatalf("clock-less span recorded %d", d)
	}
	var b strings.Builder
	if err := r2.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("clock-less StartSpan registered series: %q", b.String())
	}
}

func TestManualClockTick(t *testing.T) {
	clk := &ManualClock{Tick: 10}
	if a, b := clk.Now(), clk.Now(); a != 0 || b != 10 {
		t.Fatalf("ticking clock read %d then %d, want 0 then 10", a, b)
	}
}

// TestFingerprintExcludesTiming pins the class split: timing series never
// influence the fingerprint, deterministic series always do.
func TestFingerprintExcludesTiming(t *testing.T) {
	mk := func(timingObs int64, detObs int64) [32]byte {
		clk := &ManualClock{Tick: 1}
		r := NewWithClock(clk)
		r.Counter("work").Add(detObs)
		sp := r.StartSpan("lat")
		clk.Advance(timingObs)
		sp.End()
		r.TimingValues("occupancy", []int64{1, 8}).Observe(timingObs)
		return r.Fingerprint()
	}
	if mk(5, 3) != mk(50_000, 3) {
		t.Fatal("timing series leaked into the fingerprint")
	}
	if mk(5, 3) == mk(5, 4) {
		t.Fatal("deterministic counter change did not change the fingerprint")
	}
}

// TestWriteNDJSONGolden is the -metrics schema snapshot test: the exact
// bytes are pinned, so any schema drift is a deliberate, reviewed change.
func TestWriteNDJSONGolden(t *testing.T) {
	r := New()
	r.Counter("core.tests").Add(5)
	r.Gauge("stream.pending").Set(2)
	h := r.Histogram("vpt.dirty_ball", []int64{1, 2, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(9)
	r.TimingValues("runner.occupancy", []int64{1, 2}).Observe(1)

	var b strings.Builder
	if err := r.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"schema":"dcc-metrics-v1","class":"deterministic","type":"counter","name":"core.tests","value":5}
{"schema":"dcc-metrics-v1","class":"timing","type":"histogram","name":"runner.occupancy","count":1,"sum":1,"min":1,"max":1,"buckets":[{"le":1,"n":1},{"le":2,"n":0},{"n":0}]}
{"schema":"dcc-metrics-v1","class":"deterministic","type":"gauge","name":"stream.pending","value":2}
{"schema":"dcc-metrics-v1","class":"deterministic","type":"histogram","name":"vpt.dirty_ball","count":3,"sum":13,"min":1,"max":9,"buckets":[{"le":1,"n":1},{"le":2,"n":0},{"le":4,"n":1},{"n":1}]}
`
	if b.String() != want {
		t.Fatalf("NDJSON snapshot drifted from the golden schema\n--- want ---\n%s--- got ---\n%s", want, b.String())
	}
}

func TestHandlerServesMetricsAndDebug(t *testing.T) {
	r := New()
	r.Counter("hits").Add(9)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, `"name":"hits","value":9`) {
		t.Fatalf("/metrics missing counter: %q", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars missing expvar memstats: %q", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}
