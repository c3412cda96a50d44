package shard

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// canonicalResult runs the canonical engine over the input's topology and
// assembles the same Result shape core.Schedule returns — the ground truth
// Schedule must match byte-for-byte.
func canonicalResult(t *testing.T, in Input, tau int, seed int64) core.Result {
	t.Helper()
	g := in.G
	if g == nil {
		g = geom.UDG(in.Points, in.Rc)
	}
	boundary := make(map[graph.NodeID]bool, len(in.Boundary))
	for i, b := range in.Boundary {
		if b {
			boundary[graph.NodeID(i)] = true
		}
	}
	net := core.Network{G: g, Boundary: boundary}
	cache := vpt.NewCache(g, tau)
	deleted, tests := core.CanonicalElect(net, seed, cache, cache.Deletable)
	final := cache.LiveGraph()
	kept := final.Nodes()
	var internal []graph.NodeID
	for _, v := range kept {
		if !boundary[v] {
			internal = append(internal, v)
		}
	}
	return core.Result{
		Final:        final,
		Kept:         kept,
		KeptInternal: internal,
		Deleted:      deleted,
		Stats: core.Stats{
			Rounds:    1,
			Tests:     tests,
			Deletions: len(deleted),
		},
	}
}

func mustSchedule(t *testing.T, in Input, opts Options) (core.Result, Stats) {
	t.Helper()
	res, st, err := Schedule(in, opts)
	if err != nil {
		t.Fatalf("Schedule(%+v): %v", opts, err)
	}
	return res, st
}

// TestScheduleMatchesCanonical: the full Result — Final graph, kept
// sets, deletion order, Stats — must be reflect.DeepEqual to the canonical
// engine on the input's topology, and the Stats counters must agree.
func TestScheduleMatchesCanonical(t *testing.T) {
	for _, tau := range []int{3, 4, 5} {
		for _, seed := range []int64{1, 7} {
			in := UniformInput(seed, 140, 10, 1.35)
			want := canonicalResult(t, in, tau, seed)
			if want.Stats.Deletions == 0 {
				t.Fatalf("tau=%d seed=%d: degenerate scenario, no deletions", tau, seed)
			}
			got, st := mustSchedule(t, in, Options{Tau: tau, Seed: seed})
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("tau=%d seed=%d: result differs from canonical\nwant stats %+v deleted %v\ngot  stats %+v deleted %v",
					tau, seed, want.Stats, want.Deleted, got.Stats, got.Deleted)
			}
			if st != (Stats{Tests: want.Stats.Tests, Deletions: want.Stats.Deletions}) {
				t.Fatalf("stats %+v disagree with core stats %+v", st, want.Stats)
			}
		}
	}
}

// TestDenseDeploymentMatchesCanonical: a 1000-node deployment at the
// benchmark's average degree ≈ 8 matches the canonical engine. An earlier
// batching coordinator consumed a node out of canonical order on exactly
// this deployment.
func TestDenseDeploymentMatchesCanonical(t *testing.T) {
	const tau, seed = 4, 14
	in := UniformInput(seed, 1000, math.Sqrt(1000*math.Pi/8), 1)
	want := canonicalResult(t, in, tau, seed)
	got, _ := mustSchedule(t, in, Options{Tau: tau, Seed: seed})
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("result differs from canonical\nwant stats %+v\ngot  stats %+v", want.Stats, got.Stats)
	}
}

// TestExplicitGraphMatchesGeometric: handing the UDG explicitly must
// yield the identical result to deriving it geometrically — the two
// edge-ingestion paths are interchangeable when the link model is
// unit-disk.
func TestExplicitGraphMatchesGeometric(t *testing.T) {
	in := UniformInput(3, 120, 10, 1.3)
	opts := Options{Tau: 4, Seed: 3}
	geo, _ := mustSchedule(t, in, opts)
	in.G = geom.UDG(in.Points, in.Rc)
	exp, _ := mustSchedule(t, in, opts)
	if !reflect.DeepEqual(geo, exp) {
		t.Fatal("explicit-graph input differs from geometric input")
	}
}

// TestScheduleValidation: every malformed input is rejected with a
// message naming the problem, before any scheduling work happens.
func TestScheduleValidation(t *testing.T) {
	good := UniformInput(1, 40, 6, 1.3)
	cases := []struct {
		name string
		in   Input
		opts Options
		frag string
	}{
		{"empty", Input{Rc: 1}, Options{Tau: 3}, "empty"},
		{"rc", Input{Points: good.Points, Boundary: good.Boundary}, Options{Tau: 3}, "Rc"},
		{"rcNaN", Input{Points: good.Points, Rc: math.NaN(), Boundary: good.Boundary}, Options{Tau: 3}, "Rc"},
		{"rcPosInf", Input{Points: good.Points, Rc: math.Inf(1), Boundary: good.Boundary}, Options{Tau: 3}, "Rc"},
		{"rcNegInf", Input{Points: good.Points, Rc: math.Inf(-1), Boundary: good.Boundary}, Options{Tau: 3}, "Rc"},
		{"boundaryLen", Input{Points: good.Points, Rc: 1.3, Boundary: good.Boundary[1:]}, Options{Tau: 3}, "boundary flags"},
		{"tau", good, Options{Tau: 2}, "confine size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Schedule(tc.in, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %v, want fragment %q", err, tc.frag)
			}
			if tooSmall := tc.opts.Tau < 3; errors.Is(err, core.ErrTauTooSmall) != tooSmall {
				t.Fatalf("error %v: errors.Is(err, core.ErrTauTooSmall) = %v, want %v", err, !tooSmall, tooSmall)
			}
		})
	}

	// A link longer than Rc is scheduled as given, like any other link.
	t.Run("longEdge", func(t *testing.T) {
		in := UniformInput(2, 60, 6, 1.3)
		b := graph.NewBuilder()
		for i := range in.Points {
			b.AddNode(graph.NodeID(i))
		}
		for _, e := range geom.UDG(in.Points, in.Rc).Edges() {
			b.AddEdge(e.U, e.V)
		}
		far := graph.NodeID(len(in.Points) - 1)
		for v := graph.NodeID(0); v < far; v++ {
			if geom.Dist(in.Points[v], in.Points[far]) > 3*in.Rc {
				b.AddEdge(v, far)
				break
			}
		}
		in.G = b.MustBuild()
		want := canonicalResult(t, in, 4, 2)
		if in.G.NumEdges() != geom.UDG(in.Points, in.Rc).NumEdges()+1 {
			t.Fatal("no long link was added")
		}
		got, _ := mustSchedule(t, in, Options{Tau: 4, Seed: 2})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("long-link schedule differs from canonical\nwant stats %+v\ngot  stats %+v", want.Stats, got.Stats)
		}
	})

	t.Run("sparseIDs", func(t *testing.T) {
		b := graph.NewBuilder()
		b.AddEdge(0, 2)
		in := Input{
			Points:   []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}},
			Rc:       1,
			Boundary: []bool{false, false},
			G:        b.MustBuild(),
		}
		_, _, err := Schedule(in, Options{Tau: 3})
		if err == nil || !strings.Contains(err.Error(), "dense") {
			t.Fatalf("error %v, want dense-ID rejection", err)
		}
	})
}
