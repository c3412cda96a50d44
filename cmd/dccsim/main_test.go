package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "42"}, io.Discard); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunFigure1(t *testing.T) {
	// Figure 1 is instant and exercises the full wiring.
	if err := run([]string{"-fig", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunStreaming(t *testing.T) {
	// The streaming figure end to end at a tiny scale: the deterministic
	// convergence/recovery check.
	var out strings.Builder
	if err := run([]string{"-fig", "streaming", "-nodes", "60", "-runs", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if want := "streaming cover == batch canonical schedule"; !strings.Contains(out.String(), want) {
		t.Fatalf("streaming figure output missing %q:\n%s", want, out.String())
	}
}

func TestRunWorkersFlag(t *testing.T) {
	// -workers reaches the engine; any value must be accepted and produce
	// the same figure (byte equivalence is covered in internal/experiments).
	for _, w := range []string{"1", "4"} {
		if err := run([]string{"-fig", "6", "-nodes", "60", "-runs", "1", "-workers", w}, io.Discard); err != nil {
			t.Fatalf("workers=%s: %v", w, err)
		}
	}
}

func TestTelemetryOffMatchesOn(t *testing.T) {
	// The observability contract at the CLI surface: with the wall-clock
	// timing lines suppressed, enabling collection must not change a byte.
	var off, on strings.Builder
	base := []string{"-fig", "1,6", "-nodes", "60", "-runs", "1", "-timings=false"}
	if err := run(append([]string{"-telemetry=false"}, base...), &off); err != nil {
		t.Fatal(err)
	}
	if err := run(base, &on); err != nil {
		t.Fatal(err)
	}
	if off.String() != on.String() {
		t.Fatalf("telemetry changed CLI output\n--- off ---\n%s\n--- on ---\n%s", off.String(), on.String())
	}
}

func TestRunMetricsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ndjson")
	var out strings.Builder
	if err := run([]string{"-fig", "6", "-nodes", "60", "-runs", "1", "-metrics", path}, &out); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dump := string(b)
	for _, want := range []string{`"schema":"dcc-metrics-v1"`, "core.runs", "sim.figure.6"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, dump)
		}
	}
	if !strings.Contains(out.String(), "[metrics] wrote "+path) {
		t.Fatalf("missing metrics confirmation line in output:\n%s", out.String())
	}
}

func TestRunHTTPEndpoint(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "1", "-http", "127.0.0.1:0"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[metrics] serving on http://127.0.0.1:") {
		t.Fatalf("missing serving line in output:\n%s", out.String())
	}
}

func TestFlagsRequireTelemetry(t *testing.T) {
	for _, args := range [][]string{
		{"-telemetry=false", "-metrics", "x.ndjson", "-fig", "1"},
		{"-telemetry=false", "-http", "127.0.0.1:0", "-fig", "1"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("args %v: want error, got nil", args)
		}
	}
}
