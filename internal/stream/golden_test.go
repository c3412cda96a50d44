package stream

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/topology_golden.txt from this build")

// goldenPath holds the per-event fingerprints TestTopologyGolden compares
// against. They were recorded with the CSR-recompiling topology that
// predates the in-place adjacency lists, so the test pins the
// representation change as invisible. Regenerate only for a deliberate
// behaviour change, and say so.
var goldenPath = filepath.Join("testdata", "topology_golden.txt")

// relabel returns net and pos with every node ID v renamed to 2v+10, so
// fresh IDs can join before, between and after the genesis IDs.
func relabel(t *testing.T, net core.Network, pos map[graph.NodeID]geom.Point) (core.Network, map[graph.NodeID]geom.Point) {
	t.Helper()
	id := func(v graph.NodeID) graph.NodeID { return 2*v + 10 }
	b := graph.NewBuilder()
	for _, v := range net.G.Nodes() {
		b.AddNode(id(v))
	}
	for _, e := range net.G.Edges() {
		b.AddEdge(id(e.U), id(e.V))
	}
	out := core.Network{G: b.MustBuild(), Boundary: make(map[graph.NodeID]bool)}
	for v := range net.Boundary {
		out.Boundary[id(v)] = true
	}
	for _, cyc := range net.BoundaryCycles {
		var c []graph.NodeID
		for _, v := range cyc {
			c = append(c, id(v))
		}
		out.BoundaryCycles = append(out.BoundaryCycles, c)
	}
	p := make(map[graph.NodeID]geom.Point, len(pos))
	for v, pt := range pos {
		p[id(v)] = pt
	}
	return out, p
}

// goldenStream drives one engine through a fixed Mutator stream with
// explicit events spliced in — an in-place revival, a revival elsewhere,
// joins of fresh IDs that sort before and between the universe's IDs, and
// a snapshot followed later by recovery from it and the WAL — and writes
// one line per event: its verdict, both fingerprints, and the running
// work counters. The final line holds every Stats field.
func goldenStream(t *testing.T, w *bytes.Buffer, mode string, radius float64) {
	net, pos := testDeploy(t, 91, 12, 12, 1.6)
	net, pos = relabel(t, net, pos)
	var wal, snap bytes.Buffer
	cfg := Config{Tau: 4, Seed: 17, Radius: radius, Positions: pos, WAL: &wal}
	e, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Cover()
	m := NewMutator(net, cfg, 92)
	seq := uint64(0)
	step := func(label string, ev Event) {
		seq++
		ev.Seq = seq
		verdict := "ok"
		if err := e.Step(ev); err != nil {
			verdict = "rejected"
		}
		sf, cf := e.StateFingerprint(), e.CoverFingerprint()
		s := e.Stats()
		fmt.Fprintf(w, "%s %d %s %s %s %x %x tests=%d replay=%d memo=%d witness=%d rebuilds=%d restores=%d\n",
			mode, seq, label, ev.Kind, verdict, sf[:8], cf[:8],
			s.Tests, s.ReplayHits, s.MemoHits, s.WitnessHits, s.Rebuilds, s.FastRestores)
	}
	mutate := func(n int) {
		for range n {
			step("mutator", m.Next())
		}
	}
	// interior returns the live internal nodes, ascending.
	interior := func() []NodeAt {
		var out []NodeAt
		for _, na := range e.LiveNodesAt() {
			if !net.Boundary[na.ID] {
				out = append(out, na)
			}
		}
		return out
	}

	mutate(30)
	in := interior()
	v := in[len(in)/3]
	step("in-place-revival", Event{Kind: KindLeave, Node: v.ID})
	step("in-place-revival", Event{Kind: KindJoin, Node: v.ID, X: v.X, Y: v.Y})

	mutate(20)
	in = interior()
	u := in[len(in)/2]
	step("revival-elsewhere", Event{Kind: KindCrash, Node: u.ID})
	step("revival-elsewhere", Event{Kind: KindJoin, Node: u.ID, X: u.X + 0.3, Y: u.Y + 0.2})

	in = interior()
	mid := in[len(in)/2].ID | 1 // odd: between two relabelled IDs
	for _, fresh := range []graph.NodeID{1, mid} {
		step("fresh-join", Event{Kind: KindJoin, Node: fresh, X: 5.5, Y: 5.5})
		if radius == 0 {
			step("fresh-edge", Event{Kind: KindEdgeUp, Node: fresh, Peer: in[0].ID})
			step("fresh-edge", Event{Kind: KindEdgeUp, Node: fresh, Peer: in[len(in)-1].ID})
		}
	}
	mutate(10)

	if _, err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	mutate(20)
	var info RecoveryInfo
	e, info, err = Recover(net, cfg, bytes.NewReader(snap.Bytes()), bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "%s recovered snapshot=%v replayed=%d skipped=%d rejected=%d\n",
		mode, info.FromSnapshot, info.Replayed, info.SkippedOld, info.Rejected)
	mutate(40)

	s := e.Stats()
	fmt.Fprintf(w, "%s final admitted=%d applied=%d rejected=%d duplicates=%d rebuilds=%d restores=%d elections=%d tests=%d memo=%d/%d resets=%d witness=%d replay=%d wal=%d snapshots=%d\n",
		mode, s.Admitted, s.Applied, s.Rejected, s.Duplicates, s.Rebuilds, s.FastRestores,
		s.Elections, s.Tests, s.MemoHits, s.MemoMisses, s.MemoResets, s.WitnessHits, s.ReplayHits,
		s.WALBytes, s.Snapshots)
}

// TestTopologyGolden: fixed event streams in both topology modes reach
// the recorded state and cover fingerprints after every event, with the
// recorded test, replay, memo, witness, rebuild and restore counts.
func TestTopologyGolden(t *testing.T) {
	var got bytes.Buffer
	goldenStream(t, &got, "explicit", 0)
	goldenStream(t, &got, "geometric", 1.6)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %s\n want %s", goldenPath, i+1, g, w)
		}
	}
}
