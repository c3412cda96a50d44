package experiments

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"dcc/internal/runner"
	"dcc/internal/telemetry"
)

// equivalenceWorkers (declared in equivalence_workers_*.go) are the pool
// sizes across which every figure and ablation must produce byte-identical
// output and deeply equal results (the keystone test of the parallel
// experiment engine; see DESIGN.md §9).

// equivCases enumerates every figure runner and ablation of the harness.
// Each returns its result as any for the NaN-tolerant deep comparison.
// The ablations exercise the distributed protocol, which is far more
// expensive per run, so they use a smaller deployment; both sizes keep
// Runs=2 so the index-ordered merge is genuinely exercised.
func equivCases() []struct {
	name string
	cfg  Config
	run  func(w io.Writer, cfg Config) (any, error)
} {
	figCfg := Config{Seed: 1, Runs: 2, Nodes: 100, MaxTau: 5, Quick: true}
	ablCfg := Config{Seed: 1, Runs: 2, Nodes: 40, MaxTau: 5, Quick: true}
	return []struct {
		name string
		cfg  Config
		run  func(w io.Writer, cfg Config) (any, error)
	}{
		{"Figure1", figCfg, func(w io.Writer, cfg Config) (any, error) { return Figure1(w) }},
		{"Figure2", figCfg, func(w io.Writer, cfg Config) (any, error) { return Figure2(w, cfg) }},
		{"Figure3", figCfg, func(w io.Writer, cfg Config) (any, error) { return Figure3(w, cfg) }},
		{"Figure4", figCfg, func(w io.Writer, cfg Config) (any, error) { return Figure4(w, cfg) }},
		{"Figure5", figCfg, func(w io.Writer, cfg Config) (any, error) { return Figure5(w, cfg) }},
		{"Figure6", figCfg, func(w io.Writer, cfg Config) (any, error) { return Figure6(w, cfg) }},
		{"Figure7", figCfg, func(w io.Writer, cfg Config) (any, error) { return Figure7(w, cfg) }},
		{"AblationEngines", ablCfg, func(w io.Writer, cfg Config) (any, error) { return AblationEngines(w, cfg) }},
		{"AblationLoss", ablCfg, func(w io.Writer, cfg Config) (any, error) { return AblationLoss(w, cfg) }},
		{"AblationReliability", ablCfg, func(w io.Writer, cfg Config) (any, error) { return AblationReliability(w, cfg) }},
		{"AblationQuasiUDG", ablCfg, func(w io.Writer, cfg Config) (any, error) { return AblationQuasiUDG(w, cfg) }},
		{"AblationRotation", ablCfg, func(w io.Writer, cfg Config) (any, error) { return AblationRotation(w, cfg) }},
		{"ScenarioOracles", figCfg, func(w io.Writer, cfg Config) (any, error) { return ScenarioOracles(w, cfg) }},
		{"ScenarioStability", figCfg, func(w io.Writer, cfg Config) (any, error) { return ScenarioStability(w, cfg) }},
		{"Streaming", figCfg, func(w io.Writer, cfg Config) (any, error) { return Streaming(w, cfg) }},
		// Telemetry re-runs a figure and the streaming experiment with a
		// live registry (manual clock, instrumented worker pool) and folds
		// the registry's deterministic-class fingerprint into the compared
		// output, pinning that every deterministic series is itself
		// worker-count-invariant — not just that collection is harmless.
		{"Telemetry", figCfg, func(w io.Writer, cfg Config) (any, error) {
			reg := telemetry.NewWithClock(&telemetry.ManualClock{Tick: 1})
			runner.Instrument(reg)
			defer runner.Instrument(nil)
			cfg.Telemetry = reg
			if _, err := Figure6(w, cfg); err != nil {
				return nil, err
			}
			res, err := Streaming(w, cfg)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "  deterministic telemetry fingerprint: %x\n", reg.Fingerprint())
			return res, nil
		}},
	}
}

// TestWorkerCountEquivalence pins the determinism contract of the parallel
// experiment engine: for every figure and ablation, any worker count
// yields the same bytes on the io.Writer and the same result struct as the
// sequential Workers=1 path. Under the dccdebug deep-assertion build the
// worker matrix shrinks to {1, 4} (equivalenceWorkers in the tagged
// files): the per-round MIS assertions multiply distributed-run cost, and
// the full {1,2,4,8} matrix is already pinned by the default -race gate.
func TestWorkerCountEquivalence(t *testing.T) {
	for _, c := range equivCases() {
		t.Run(c.name, func(t *testing.T) {
			var refOut string
			var refRes any
			for i, workers := range equivalenceWorkers {
				cfg := c.cfg
				cfg.Workers = workers
				var b strings.Builder
				res, err := c.run(&b, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if i == 0 {
					refOut, refRes = b.String(), res
					continue
				}
				if b.String() != refOut {
					t.Fatalf("workers=%d: output differs from workers=%d\n--- want ---\n%s\n--- got ---\n%s",
						workers, equivalenceWorkers[0], refOut, b.String())
				}
				if !deepEqualNaN(reflect.ValueOf(refRes), reflect.ValueOf(res)) {
					t.Fatalf("workers=%d: result struct differs from workers=%d:\nwant %+v\ngot  %+v",
						workers, equivalenceWorkers[0], refRes, res)
				}
			}
		})
	}
}

// deepEqualNaN is reflect.DeepEqual with one relaxation: two NaN floats in
// the same position compare equal (Figure 4 marks infeasible cells NaN,
// and NaN != NaN would otherwise fail the comparison on identical runs).
// It reads unexported fields without calling Interface(), so it works on
// the graph/network internals embedded in the result structs.
func deepEqualNaN(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Invalid:
		return b.Kind() == reflect.Invalid
	case reflect.Float32, reflect.Float64:
		af, bf := a.Float(), b.Float()
		return af == bf || (math.IsNaN(af) && math.IsNaN(bf))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Ptr, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return deepEqualNaN(a.Elem(), b.Elem())
	case reflect.Struct:
		if a.Type() != b.Type() {
			return false
		}
		for i := 0; i < a.NumField(); i++ {
			if !deepEqualNaN(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && (a.IsNil() || b.IsNil()) {
			return a.IsNil() == b.IsNil() && a.Len() == b.Len()
		}
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !deepEqualNaN(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil() && a.Len() == b.Len()
		}
		if a.Len() != b.Len() {
			return false
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() || !deepEqualNaN(iter.Value(), bv) {
				return false
			}
		}
		return true
	default:
		// Chan/Func/UnsafePointer do not occur in result structs.
		return false
	}
}

// TestDeepEqualNaN pins the helper itself.
func TestDeepEqualNaN(t *testing.T) {
	type s struct {
		f float64
		v []float64
	}
	a := s{f: math.NaN(), v: []float64{1, math.NaN()}}
	b := s{f: math.NaN(), v: []float64{1, math.NaN()}}
	c := s{f: math.NaN(), v: []float64{2, math.NaN()}}
	if !deepEqualNaN(reflect.ValueOf(a), reflect.ValueOf(b)) {
		t.Fatal("identical NaN structs must compare equal")
	}
	if deepEqualNaN(reflect.ValueOf(a), reflect.ValueOf(c)) {
		t.Fatal("differing structs must not compare equal")
	}
}

// TestFigure3EmptyBaseErrors is the regression test for the former silent
// `base == 0 → base = 1` fallback: a deployment whose τ=3 schedule keeps
// no internal nodes makes every normalized ratio meaningless, so Figure3
// must fail loudly — and identically on the sequential and parallel paths.
func TestFigure3EmptyBaseErrors(t *testing.T) {
	cfg := Config{Seed: 1, Runs: 1, Nodes: 8, AvgDegree: 8, MaxTau: 3, Quick: true}
	var first string
	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		_, err := Figure3(io.Discard, c)
		if err == nil {
			t.Fatalf("workers=%d: empty τ=3 cover must be an error, not a silent base=1 fallback", workers)
		}
		if !strings.Contains(err.Error(), "kept no internal nodes") {
			t.Fatalf("workers=%d: undescriptive error: %v", workers, err)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("error differs across worker counts: %q vs %q", first, err.Error())
		}
	}
}

// TestSeedDerivationDisjoint asserts that the per-run seed streams of all
// figure runners and ablations never collide for Runs ≤ 10000 — the
// guarantee the old ad-hoc `seed + run*prime` offsets silently lacked
// (e.g. fig3's deploy seed at run=1 equalled fig4's schedule seed at
// run=7919).
func TestSeedDerivationDisjoint(t *testing.T) {
	const maxRuns = 10_000
	for _, base := range []int64{0, 1, 42} {
		seen := make(map[int64]string, len(seedStreams)*maxRuns)
		for name, stream := range seedStreams {
			for run := 0; run < maxRuns; run++ {
				s := runner.DeriveSeed(base, stream, run)
				if prev, dup := seen[s]; dup {
					t.Fatalf("base %d: stream %q run %d collides with %s (seed %d)",
						base, name, run, prev, s)
				}
				seen[s] = name
			}
		}
	}
}
