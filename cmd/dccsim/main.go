// Command dccsim regenerates the paper's evaluation figures from the
// command line.
//
// Usage:
//
//	dccsim -fig all                # every figure at quick scale
//	dccsim -fig 3 -full -runs 100  # paper-scale Figure 3 (slow)
//	dccsim -fig 4 -nodes 800
//	dccsim -fig all -metrics m.ndjson -http 127.0.0.1:6060
//
// Each figure prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the expected shapes. Telemetry is on by default and
// never changes figure output (the observability contract, DESIGN.md §14);
// -metrics dumps the final registry as NDJSON and -http serves /metrics,
// /debug/vars and /debug/pprof while the figures run.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"dcc/internal/experiments"
	"dcc/internal/runner"
	"dcc/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dccsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dccsim", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "figure to regenerate: 1..7, 'engines', 'loss', 'reliability', 'rotation', 'scenarios', 'stability', 'streaming', 'sharded', comma-separated, or 'all'")
		seed     = fs.Int64("seed", 1, "random seed")
		runs     = fs.Int("runs", 0, "random repetitions (0 = preset default)")
		nodes    = fs.Int("nodes", 0, "deployment size (0 = preset default)")
		maxTau   = fs.Int("maxtau", 0, "largest confine size for Figure 3 (0 = preset default)")
		full     = fs.Bool("full", false, "paper-scale presets (1600 nodes; slow) instead of quick presets")
		workers  = fs.Int("workers", 0, "concurrent Monte-Carlo runs (0 = all CPUs, 1 = sequential; output is identical for any value)")
		telOn    = fs.Bool("telemetry", true, "collect metrics and spans while figures run (never changes figure output)")
		timings  = fs.Bool("timings", true, "print per-figure wall-clock durations (needs -telemetry)")
		metrics  = fs.String("metrics", "", "write the final metrics registry to this file as NDJSON (schema dcc-metrics-v1)")
		httpAddr = fs.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on this address while figures run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg, err := newRegistry(*telOn, *metrics, *httpAddr)
	if err != nil {
		return err
	}
	runner.Instrument(reg)
	defer runner.Instrument(nil)
	cfg := experiments.Config{
		Seed:      *seed,
		Runs:      *runs,
		Nodes:     *nodes,
		MaxTau:    *maxTau,
		Quick:     !*full,
		Workers:   *workers,
		Telemetry: reg,
	}

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: reg.Handler()}
		go func() { _ = srv.Serve(ln) }()
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(w, "[metrics] serving on http://%s/metrics\n\n", ln.Addr())
	}

	want := map[string]bool{}
	all := *fig == "all"
	if !all {
		for _, f := range strings.Split(*fig, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}

	type figRunner struct {
		id string
		fn func() error
	}
	runners := []figRunner{
		{"1", func() error { _, err := experiments.Figure1(w); return err }},
		{"2", func() error { _, err := experiments.Figure2(w, cfg); return err }},
		{"3", func() error { _, err := experiments.Figure3(w, cfg); return err }},
		{"4", func() error { _, err := experiments.Figure4(w, cfg); return err }},
		{"5", func() error { _, err := experiments.Figure5(w, cfg); return err }},
		{"6", func() error { _, err := experiments.Figure6(w, cfg); return err }},
		{"7", func() error { _, err := experiments.Figure7(w, cfg); return err }},
		{"engines", func() error { _, err := experiments.AblationEngines(w, cfg); return err }},
		{"loss", func() error { _, err := experiments.AblationLoss(w, cfg); return err }},
		{"reliability", func() error { _, err := experiments.AblationReliability(w, cfg); return err }},
		{"rotation", func() error { _, err := experiments.AblationRotation(w, cfg); return err }},
		{"quasiudg", func() error { _, err := experiments.AblationQuasiUDG(w, cfg); return err }},
		{"scenarios", func() error { _, err := experiments.ScenarioOracles(w, cfg); return err }},
		{"stability", func() error { _, err := experiments.ScenarioStability(w, cfg); return err }},
		{"streaming", func() error { _, err := experiments.Streaming(w, cfg); return err }},
		{"sharded", func() error { _, err := experiments.Sharded(w, cfg); return err }},
	}
	ran := 0
	for _, r := range runners {
		if !all && !want[r.id] {
			continue
		}
		sp := reg.StartSpan("sim.figure." + r.id)
		if err := r.fn(); err != nil {
			return fmt.Errorf("figure %s: %w", r.id, err)
		}
		if d := time.Duration(sp.End()); *timings && reg != nil {
			fmt.Fprintf(w, "  (figure %s: %v)\n\n", r.id, d.Round(time.Millisecond))
		} else {
			fmt.Fprintln(w)
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no figure matched %q (want 1..7 or 'all')", *fig)
	}
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			return err
		}
		if err := reg.WriteNDJSON(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "[metrics] wrote %s\n", *metrics)
	}
	return nil
}

// newRegistry builds the process-wide registry, or nil (collection
// disabled) with every dependent flag validated up front.
func newRegistry(enabled bool, metrics, httpAddr string) (*telemetry.Registry, error) {
	if !enabled {
		if metrics != "" {
			return nil, fmt.Errorf("-metrics requires -telemetry")
		}
		if httpAddr != "" {
			return nil, fmt.Errorf("-http requires -telemetry")
		}
		return nil, nil
	}
	return telemetry.NewWithClock(telemetry.WallClock{}), nil
}
