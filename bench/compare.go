package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"text/tabwriter"
	"time"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSet is a file of recorded runs, as -record writes it.
type runSet struct {
	Schema string    `json:"schema"`
	Meta   runMeta   `json:"meta"`
	Runs   []runLine `json:"runs"`
}

type runMeta struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seconds    float64 `json:"seconds"`
	Recorded   string  `json:"recorded"`
}

type runLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

const runSetSchema = "dcc-bench-runs-v1"

// A recorded run set holds recordRuns untraced runs (seeds 1..recordRuns)
// and recordTraced traced ones (seeds 1..recordTraced) of every workload:
// ten values per metric, as the quartile spread is judged on.
const (
	recordRuns   = 10
	recordTraced = 2
)

// recordMain runs every workload recordRuns times untraced and recordTraced
// times traced, one child process per run, and writes all results to path.
func recordMain(path string, seconds float64, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	set := runSet{Schema: runSetSchema, Meta: runMeta{
		Commit:     buildCommit(),
		Go:         runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: procs,
		Seconds:    seconds,
		Recorded:   time.Now().UTC().Format(time.RFC3339),
	}}
	for _, w := range workloads {
		for trace, n := range []int{recordRuns, recordTraced} {
			for seed := int64(1); seed <= int64(n); seed++ {
				res, err := runChild(exe, w.name, seed, seconds, trace, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s seed %d trace %d: %v\n", w.name, seed, trace, err)
					return 1
				}
				set.Runs = append(set.Runs, runLine{Workload: w.name, Seed: seed, Trace: trace, Result: res})
			}
		}
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// buildCommit is the commit the binary was built from, as the Go toolchain
// stamped it, with "+modified" for a tree with uncommitted changes, or
// "unknown" for a build outside a git checkout.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			modified = "+modified"
		}
	}
	return rev + modified
}

// runChild runs one workload in its own process (max_rss_mb is per
// process) and parses the result line it prints last.
func runChild(exe, name string, seed int64, seconds float64, trace int, stderr io.Writer) (result, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}

func loadRuns(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != runSetSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, runSetSchema)
	}
	return &s, nil
}

// values returns the metric's value per seed over the runs of workload w
// with the given trace setting.
func (s *runSet) values(w, name string, trace int) map[int64]float64 {
	out := make(map[int64]float64)
	for _, r := range s.Runs {
		if r.Workload != w || r.Trace != trace {
			continue
		}
		if m, ok := r.Result.Metrics[name]; ok {
			out[r.Seed] = m.Value
		}
	}
	return out
}

// verdicts of compare mode.
const (
	vBetter     = "better"
	vSame       = "same"
	vWorse      = "worse"
	vUnresolved = "unresolved"
	vDrift      = "drift"
)

// judge sets B against A for a metric with a bound: unresolved when either
// side's quartile spread exceeds the bound (as a share of its median),
// otherwise worse or better when the medians differ by more than the bound
// in that direction, and same in between.
func judge(a, b []float64, m specMetric) string {
	qa, qb := quartiles(a), quartiles(b)
	spread := max(ratio(qa[2]-qa[0], math.Abs(qa[1])), ratio(qb[2]-qb[0], math.Abs(qb[1])))
	if spread > m.Bound {
		return vUnresolved
	}
	change := ratio(qb[1]-qa[1], math.Abs(qa[1]))
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return vWorse
	case change < -m.Bound:
		return vBetter
	}
	return vSame
}

// exactVerdict compares a seed-determined metric seed by seed: any seed the
// two sets share must give the same value.
func exactVerdict(a, b map[int64]float64) string {
	shared := 0
	for seed, va := range a {
		vb, ok := b[seed]
		if !ok {
			continue
		}
		shared++
		if va != vb {
			return vDrift
		}
	}
	if shared == 0 {
		return vUnresolved
	}
	return vSame
}

// compareMain prints one row per workload × metric: each side's median and
// quartiles, and the verdict. End-to-end metrics come from untraced runs and
// are judged against their BENCHMARK.json bound, except kept_frac; it and
// the per-layer counts that a seed fixes are checked for exact repeats
// (traced runs). It exits 1 when any row is worse or drifted.
func compareMain(pathA, pathB, specPath string, stdout, stderr io.Writer) int {
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	a, err := loadRuns(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := loadRuns(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	exact := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		exact[d.name] = d.exact
	}
	for _, s := range []struct {
		tag  string
		meta runMeta
	}{{"A", a.Meta}, {"B", b.Meta}} {
		fmt.Fprintf(stdout, "%s: commit %s, %s, %d cpus, GOMAXPROCS %d, %gs runs, recorded %s\n",
			s.tag, s.meta.Commit, s.meta.Go, s.meta.CPUs, s.meta.GOMAXPROCS, s.meta.Seconds, s.meta.Recorded)
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tbound\tverdict")
	bad := false
	row := func(w string, m specMetric, trace int, bound string) {
		va, vb := a.values(w, m.Name, trace), b.values(w, m.Name, trace)
		if len(va) == 0 || len(vb) == 0 || allZero(va) && allZero(vb) {
			return // not measured, or a layer this workload does not run
		}
		var verdict string
		if exact[m.Name] {
			verdict = exactVerdict(va, vb)
		} else {
			verdict = judge(valuesOf(va), valuesOf(vb), m)
		}
		bad = bad || verdict == vWorse || verdict == vDrift
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", w, m.Name, m.Unit,
			summary(valuesOf(va)), summary(valuesOf(vb)), bound, verdict)
	}
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			bound := strconv.FormatFloat(m.Bound, 'g', -1, 64)
			if exact[m.Name] {
				bound = "exact"
			}
			row(w.Name, m, 0, bound)
		}
		for _, m := range sp.PerLayer {
			if exact[m.Name] {
				row(w.Name, m, 1, "exact")
			}
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if bad {
		return 1
	}
	return 0
}

func allZero(m map[int64]float64) bool {
	for _, v := range m {
		if v != 0 {
			return false
		}
	}
	return true
}

func valuesOf(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func summary(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", q[1], q[0], q[2], len(xs))
}
