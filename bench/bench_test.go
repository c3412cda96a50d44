package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dcc"
	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/shard"
)

// tinyWorkloads are the four workloads at smoke-test size.
var tinyWorkloads = []workload{
	{"fig3-dense", func(e *env) (*report, error) {
		return runFig3(e, fig3Params{Deployments: 1, Nodes: 150, AvgDegree: 25, Taus: []int{3, 4}})
	}},
	{"fig3-sparse", func(e *env) (*report, error) {
		return runFig3(e, fig3Params{Deployments: 2, Nodes: 300, AvgDegree: 8, Taus: []int{3, 4}})
	}},
	{"stream-churn", func(e *env) (*report, error) {
		return runStream(e, streamParams{Nodes: 200, AvgDegree: 10, Tau: 4, Events: 10, CoverEvery: 5})
	}},
	{"shard-1e5", func(e *env) (*report, error) {
		return runShard(e, shardParams{Nodes: 2000, Tau: 4, Workers: 1, Samples: 64})
	}},
}

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func runTiny(t *testing.T, w workload, seed int64, traced bool) result {
	t.Helper()
	e := &env{seed: seed, outDir: t.TempDir(), log: io.Discard}
	if traced {
		e.tr = newTracer()
	}
	res, err := runWorkload(w, e)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if traced {
		data, err := os.ReadFile(filepath.Join(e.outDir, fmt.Sprintf("%s-%d.trace.ndjson", w.name, seed)))
		if err != nil || len(data) == 0 {
			t.Errorf("%s: no span file (%v)", w.name, err)
		}
	}
	return res
}

// Every workload emits exactly the BENCHMARK.json metrics of its mode, with
// their units, and no operation fails.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	sp := mustSpec(t)
	for _, w := range tinyWorkloads {
		for _, traced := range []bool{false, true} {
			res := runTiny(t, w, 1, traced)
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.name, traced, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// The seed-determined metrics repeat exactly across runs of one seed.
func TestDeterministicMetricsRepeat(t *testing.T) {
	exact := map[string]bool{}
	for _, d := range append(slices.Clone(endToEndDefs), perLayerDefs...) {
		exact[d.name] = d.exact
	}
	for _, w := range tinyWorkloads {
		for _, traced := range []bool{false, true} {
			a, b := runTiny(t, w, 2, traced), runTiny(t, w, 2, traced)
			for name, m := range a.Metrics {
				if exact[name] && m.Value != b.Metrics[name].Value {
					t.Errorf("%s: %s = %v then %v", w.name, name, m.Value, b.Metrics[name].Value)
				}
			}
		}
	}
}

// BENCHMARK.json stays within the benchmark contract's limits and agrees
// with the metrics and workloads the program defines.
func TestSpecMatchesProgram(t *testing.T) {
	sp := mustSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(kind string, specs []specMetric, defs []metricDef) {
		if len(specs) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(specs), len(defs))
			return
		}
		for i, m := range specs {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s #%d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEndDefs)
	check("per_layer", sp.PerLayer, perLayerDefs)
	var setup float64
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s: bound %v above setup_s's %v", m.Name, m.Bound, setup)
		}
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name || tinyWorkloads[i].name != w.name {
			t.Errorf("workload %d: program %q, BENCHMARK.json %v", i, w.name, names)
		}
	}
}

func tinyDeployment(t *testing.T) (core.Network, dcc.ScheduleResult) {
	t.Helper()
	dep, err := dcc.Deploy(dcc.DeployOptions{Nodes: 200, AvgDegree: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.ScheduleDCC(4, dcc.ScheduleOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := core.RepairBoundaries(dep.Network())
	if err != nil {
		t.Fatal(err)
	}
	return net, res
}

// The certifier accepts real results and flags doctored ones.
func TestCertifierFlagsDoctoredResults(t *testing.T) {
	net, res := tinyDeployment(t)
	h := history{g: net.G, tau: 4, deleted: res.Deleted, kept: res.KeptInternal}
	if v := replay(h, nil, 0); v != 0 {
		t.Fatalf("genuine result: %d violations", v)
	}

	t.Run("kept node moved into Deleted", func(t *testing.T) {
		bad := h
		bad.deleted = append(slices.Clone(h.deleted), h.kept[0])
		bad.kept = h.kept[1:]
		if v := replay(bad, nil, 0); v == 0 {
			t.Error("not flagged")
		}
	})

	t.Run("out-of-order deletion", func(t *testing.T) {
		// A node deleted before its turn takes away a neighbour later
		// deletions relied on: moving some late deletion to the front of the
		// history must be refused.
		flagged := false
		for i := len(h.deleted) - 1; i > 0 && !flagged; i-- {
			bad := h
			bad.deleted = append([]graph.NodeID{h.deleted[i]}, slices.Delete(slices.Clone(h.deleted), i, i+1)...)
			flagged = replay(bad, nil, 0) > 0
		}
		if !flagged {
			t.Error("no reordered history flagged by the replay")
		}
		// Against the canonical election, any swap is a departure.
		canon, _ := canonicalElection(net, 1, 4)
		if n, same := orderDepartures(canon, canon); n != 0 || !same {
			t.Fatalf("genuine canonical order: %d departures, same set %v", n, same)
		}
		swapped := slices.Clone(canon)
		swapped[0], swapped[1] = swapped[1], swapped[0]
		if n, same := orderDepartures(canon, swapped); n != 2 || !same {
			t.Errorf("swapped order: %d departures, same set %v; want 2, true", n, same)
		}
		if _, same := orderDepartures(canon, canon[1:]); same {
			t.Error("a missing deletion kept the same set")
		}
	})

	t.Run("mismatched stream cover", func(t *testing.T) {
		want := res.KeptInternal
		if n := coverMismatches(want, want, slices.Clone(want)); n != 0 {
			t.Fatalf("equal covers: %d mismatches", n)
		}
		if n := coverMismatches(want, want, want[1:]); n != 1 {
			t.Errorf("one doctored cover: %d mismatches, want 1", n)
		}
	})

	t.Run("sharded node count", func(t *testing.T) {
		in := shard.UniformInput(1, 500, 10, 1)
		sres, _, err := shard.Schedule(in, shard.Options{Tau: 4, Seed: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !shardResultOK(len(in.Points), sres, 4, 1, 64) {
			t.Fatal("genuine sharded result flagged")
		}
		bad := sres
		bad.Deleted = bad.Deleted[1:]
		if shardResultOK(len(in.Points), bad, 4, 1, 64) {
			t.Error("not flagged")
		}
		g := geom.UDG(in.Points, in.Rc)
		if g.NumNodes() != len(in.Points) || g.NodeAt(0) != graph.NodeID(0) {
			t.Error("unit-disk graph does not keep the input's node ids")
		}
	})
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// quantile interpolates between the closest ranks, as Python's
// statistics.quantiles(xs, method="inclusive") does.
func TestQuantileInterpolates(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.9, 3.7},
		{[]float64{7}, 0.9, 7},
		{nil, 0.5, 0},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

// Compare mode reports two agreeing run sets as the same and a slower or
// drifted one as such.
func TestCompareVerdicts(t *testing.T) {
	mk := func(wall, kept float64) *runSet {
		s := &runSet{Schema: runSetSchema}
		for seed := int64(1); seed <= 5; seed++ {
			jitter := 1 + 0.01*float64(seed%3)
			s.Runs = append(s.Runs, runLine{Workload: "fig3-dense", Seed: seed, Result: result{
				Correct: true, Attempted: 1,
				Metrics: map[string]metric{
					"wall_s":    {Value: wall * jitter, Unit: "s"},
					"kept_frac": {Value: kept + float64(seed), Unit: "ratio"},
				},
			}})
		}
		return s
	}
	dir := t.TempDir()
	save := func(name string, s *runSet) string {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := save("a.json", mk(10, 0.2))
	spec := filepath.Join("..", "BENCHMARK.json")
	for _, c := range []struct {
		name     string
		other    *runSet
		code     int
		contains []string
	}{
		{"same", mk(10.1, 0.2), 0, []string{"wall_s", "same"}},
		{"slower", mk(20, 0.2), 1, []string{"worse"}},
		{"drift", mk(10, 0.3), 1, []string{"drift"}},
	} {
		var out bytes.Buffer
		code := compareMain(base, save(c.name+".json", c.other), spec, &out, io.Discard)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		for _, s := range c.contains {
			if !strings.Contains(out.String(), s) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, s, out.String())
			}
		}
	}
}
