// Command bench is the repository's benchmark. One process runs one
// workload for a time budget, checks every result it produced, and prints
// one JSON line with the workload's metrics:
//
//	bash bench/run.sh --workload fig3-dense --seed 1 --seconds 20 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics listed in
// BENCHMARK.json. A traced run (--trace 1) runs the same timed calls, then
// replays every result's deletion history through the exported layer
// functions, and reports the per-layer metrics instead. It also writes the
// span file. The benchmark only calls exported functions; nothing inside
// the program is instrumented for it.
//
// Two more modes work on recorded runs: -record runs every workload in
// child processes and saves their results, and -compare sets two such files
// against the bounds in BENCHMARK.json (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Fixed paths, relative to the repository root the benchmark runs from:
// where span files, tail dumps and stream WALs go, and the benchmark
// description -compare reads the bounds from.
var (
	outDir   = filepath.Join("bench", "out")
	specPath = "BENCHMARK.json"
)

// A fig3 or shard run builds its inputs from scratch at least setupReps
// times and for at least setupMin (or the whole budget, if shorter);
// setup_s is the median build. The first few builds of a process grow the
// heap and run up to three times slower, so cheap builds repeat until the
// median lies past them. Over one second, the median of the millisecond
// shard build still moved by a third between processes as the shared
// machine's load came and went; over three it stayed within 4 %.
const (
	setupReps = 5
	setupMin  = 3 * time.Second
)

// buildInputs runs build as often as the rule above asks, each time on a
// freshly collected heap, and records every build's time.
func (e *env) buildInputs(rep *report, build func() error) error {
	start, least := time.Now(), min(setupMin, e.budget)
	for n := 0; n < setupReps || time.Since(start) < least; n++ {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return err
		}
		rep.setups = append(rep.setups, time.Since(t0))
	}
	return nil
}

// env is what a workload needs from the command line.
type env struct {
	seed   int64
	budget time.Duration
	tr     *tracer // nil in untraced runs
	outDir string
	log    io.Writer
}

// repeat runs pass until the time budget is spent: always once, then again
// only while one more pass as long as the last one still fits. pass gets its
// index and returns its timed duration, which becomes one wall_s sample; an
// error (a failed set-up, not a failed call) ends the run. Every pass starts
// on a freshly collected heap.
func (e *env) repeat(rep *report, pass func(n int) (time.Duration, error)) error {
	start := time.Now()
	for n := 0; ; n++ {
		runtime.GC()
		d, err := pass(n)
		if err != nil {
			return err
		}
		rep.passes = append(rep.passes, d)
		if time.Since(start)+d > e.budget {
			return nil
		}
	}
}

// procs is the GOMAXPROCS every workload runs with. Their calls are
// sequential, one client at a time (shard-1e5 on one worker, see
// shard1e5). With two, the concurrent garbage collector on the second CPU
// made identical ScheduleDCC calls vary by ±13% on the 2-vCPU box the
// baseline was recorded on, against ±2% on one.
const procs = 1

// workload is one named input set of the benchmark.
type workload struct {
	name string
	run  func(*env) (*report, error)
}

var workloads = []workload{
	{"fig3-dense", func(e *env) (*report, error) { return runFig3(e, fig3Dense) }},
	{"fig3-sparse", func(e *env) (*report, error) { return runFig3(e, fig3Sparse) }},
	{"stream-churn", func(e *env) (*report, error) { return runStream(e, streamChurn) }},
	{"shard-1e5", func(e *env) (*report, error) { return runShard(e, shard1e5) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig3-dense, fig3-sparse, stream-churn or shard-1e5")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are derived from")
	seconds := fs.Float64("seconds", 20, "time budget of the timed passes")
	trace := fs.Int("trace", 0, "1 replays every result layer by layer and reports per-layer metrics")
	compare := fs.Bool("compare", false, "compare two recorded run files: -compare A.json B.json")
	record := fs.String("record", "", "run every workload in child processes and save the results to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two run files")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1), specPath, stdout, stderr)
	case *record != "":
		return recordMain(*record, *seconds, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	e := &env{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		outDir: outDir,
		log:    stderr,
	}
	if *trace == 1 {
		e.tr = newTracer()
	}
	runtime.GOMAXPROCS(procs)
	res, err := runWorkload(w, e)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload runs w and assembles the result line: end-to-end metrics in
// untraced runs, per-layer metrics (and the span file) in traced ones.
func runWorkload(w workload, e *env) (result, error) {
	rep, err := w.run(e)
	if err != nil {
		return result{}, err
	}
	e2e := rep.endToEnd()
	printMetrics(e.log, w.name+" end-to-end", endToEndDefs, e2e)
	fmt.Fprintf(e.log, "%s: %d operations, %d failed\n", w.name, rep.attempted, rep.failed)
	if e.tr == nil {
		return newResult(rep, endToEndDefs, e2e)
	}
	printMetrics(e.log, w.name+" per-layer", perLayerDefs, rep.layers)
	path := filepath.Join(e.outDir, fmt.Sprintf("%s-%d.trace.ndjson", w.name, e.seed))
	if err := e.tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(e.log, "spans: %d written to %s, %d per-verdict spans over the cap aggregated only\n",
		len(e.tr.spans), path, e.tr.dropped)
	fmt.Fprintln(e.log, "tracing overhead: the end-to-end lines above minus those of an untraced run of the same seed")
	return newResult(rep, perLayerDefs, rep.layers)
}

// result is the one JSON line a run prints last on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(rep *report, defs []metricDef, values map[string]float64) (result, error) {
	if rep.attempted == 0 {
		return result{}, errors.New("no operation attempted")
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		ms[d.name] = metric{Value: v, Unit: d.unit}
	}
	return result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   ms,
	}, nil
}

func printMetrics(w io.Writer, title string, defs []metricDef, values map[string]float64) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, v, d.unit)
		}
	}
}
