package dcc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcc/internal/core"
	"dcc/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/verdict_golden.txt from this build")

// verdictGoldenPath holds the schedules TestVerdictGolden compares against.
// Regenerate (with -update-golden) only for a deliberate behaviour change
// of the deletability test or the engines around it, and say so.
var verdictGoldenPath = filepath.Join("testdata", "verdict_golden.txt")

// TestVerdictGolden pins the verdict kernel end to end: for two
// deployments (degree 8 and 25) at τ 3–6, the Sequential and Canonical
// engines' (and at degree 8 the Parallel engine's, whose batched verdicts
// and multi-node commits take the other paths through the cache) deletion
// order (hashed), test count and every vpt counter — lookups, computes,
// invalidations, witness-kept verdicts, certified verdicts and refutations
// by kind — and a hash of every deterministic series (the dirty-ball
// histogram's buckets among them) must equal the recorded line. A
// verdict, a witness or a dirty ball that moves shows up in at least one
// of them.
func TestVerdictGolden(t *testing.T) {
	var w bytes.Buffer
	modes := []struct {
		name string
		mode core.Mode
	}{{"sequential", core.Sequential}, {"canonical", core.Canonical}, {"parallel", core.Parallel}}
	for _, deg := range []float64{8, 25} {
		d, err := Deploy(DeployOptions{Nodes: 300, AvgDegree: deg, Seed: 26})
		if err != nil {
			t.Fatal(err)
		}
		net, _, err := core.RepairBoundaries(d.Network())
		if err != nil {
			t.Fatal(err)
		}
		for tau := 3; tau <= 6; tau++ {
			for _, m := range modes {
				if m.mode == core.Parallel && deg != 8 {
					continue
				}
				reg := telemetry.New()
				res, err := core.Schedule(net, core.Options{Tau: tau, Seed: 5, Mode: m.mode, Workers: 2, Telemetry: reg})
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				for _, v := range res.Deleted {
					h.Write(binary.AppendUvarint(nil, uint64(v)))
				}
				c := func(name string) int64 { return reg.Counter("vpt." + name).Value() }
				fp := reg.Fingerprint()
				fmt.Fprintf(&w, "deg=%g tau=%d %s deleted=%d order=%x rounds=%d tests=%d lookups=%d computes=%d invalidated=%d kept=%d certified=%d refuted=%d/%d/%d/%d metrics=%x\n",
					deg, tau, m.name, len(res.Deleted), h.Sum(nil)[:8], res.Stats.Rounds, res.Stats.Tests,
					c("lookups"), c("computes"), c("invalidated"), c("kept"), c("certified"),
					c("refuted_empty"), c("refuted_disconnected"), c("refuted_unconfined"), c("refuted_unspanned"),
					fp[:8])
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(verdictGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(verdictGoldenPath, w.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(verdictGoldenPath)
	if err != nil {
		t.Fatalf("%v (record with -update-golden)", err)
	}
	got, exp := strings.Split(w.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("line %d differs from %s:\ngot:  %s\nwant: %s", i+1, verdictGoldenPath, g, e)
		}
	}
}
