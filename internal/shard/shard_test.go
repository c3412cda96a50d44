package shard

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// canonicalResult runs the unsharded canonical engine over the input's
// global topology and assembles the same Result shape core.Schedule
// returns — the ground truth every sharded configuration must match
// byte-for-byte.
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
// sets, deletion order, Stats — must be reflect.DeepEqual to the
// unsharded canonical engine for every (shards, workers, halo)
// configuration, on both geometric and explicit-graph inputs.
func TestScheduleMatchesCanonical(t *testing.T) {
	taus, seeds, shardCounts := []int{3, 4, 5}, []int64{1, 7}, []int{1, 2, 4, 9, 16}
	if testing.Short() {
		// Smoke slice for the check.sh race gate: one tau, one seed, the
		// shard counts that exercise 1×1, square and non-square grids.
		taus, seeds, shardCounts = []int{4}, []int64{1}, []int{1, 4, 9}
	}
	for _, tau := range taus {
		for _, seed := range seeds {
			in := UniformInput(seed, 140, 10, 1.35)
			want := canonicalResult(t, in, tau, seed)
			if want.Stats.Deletions == 0 {
				t.Fatalf("tau=%d seed=%d: degenerate scenario, no deletions", tau, seed)
			}
			for _, shards := range shardCounts {
				for _, workers := range []int{1, 4} {
					got, st := mustSchedule(t, in, Options{
						Tau: tau, Seed: seed, Workers: workers, Shards: shards,
					})
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("tau=%d seed=%d shards=%d workers=%d: result differs from canonical\nwant stats %+v deleted %v\ngot  stats %+v deleted %v",
							tau, seed, shards, workers, want.Stats, want.Deleted, got.Stats, got.Deleted)
					}
					if st.Shards != shards || st.GridX*st.GridY != shards {
						t.Fatalf("shard stats %+v inconsistent with requested %d", st, shards)
					}
					if st.Tests != want.Stats.Tests || st.Deletions != want.Stats.Deletions {
						t.Fatalf("shard stats %+v disagree with core stats %+v", st, want.Stats)
					}
				}
			}
		}
	}
}

// TestDenseDeploymentMatchesCanonical: a 1000-node deployment at the
// benchmark's average degree ≈ 8, on one region and on four, matches the
// unsharded canonical engine. An earlier batching coordinator consumed a
// node out of canonical order on exactly this deployment.
func TestDenseDeploymentMatchesCanonical(t *testing.T) {
	const tau, seed = 4, 14
	in := UniformInput(seed, 1000, math.Sqrt(1000*math.Pi/8), 1)
	want := canonicalResult(t, in, tau, seed)
	for _, shards := range []int{1, 4} {
		got, _ := mustSchedule(t, in, Options{Tau: tau, Seed: seed, Shards: shards})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("shards=%d: result differs from canonical\nwant stats %+v\ngot  stats %+v",
				shards, want.Stats, got.Stats)
		}
	}
}

// TestExplicitGraphMatchesGeometric: handing the UDG explicitly must
// yield the identical result to deriving it geometrically — the two
// edge-ingestion paths are interchangeable when the link model is
// unit-disk.
func TestExplicitGraphMatchesGeometric(t *testing.T) {
	in := UniformInput(3, 120, 10, 1.3)
	opts := Options{Tau: 4, Seed: 3, Shards: 4}
	geo, _ := mustSchedule(t, in, opts)
	in.G = geom.UDG(in.Points, in.Rc)
	exp, _ := mustSchedule(t, in, opts)
	if !reflect.DeepEqual(geo, exp) {
		t.Fatal("explicit-graph input differs from geometric input")
	}
}

// TestDeepHaloMatchesMinimum: replicating deeper than ⌈τ/2⌉ changes
// memory, never the schedule.
func TestDeepHaloMatchesMinimum(t *testing.T) {
	in := UniformInput(5, 120, 10, 1.3)
	minHalo, _ := mustSchedule(t, in, Options{Tau: 5, Seed: 5, Shards: 9})
	deep, st := mustSchedule(t, in, Options{Tau: 5, Seed: 5, Shards: 9, HaloHops: 5})
	if !reflect.DeepEqual(minHalo, deep) {
		t.Fatal("deep halo changed the schedule")
	}
	if st.HaloHops != 5 {
		t.Fatalf("HaloHops stat = %d, want 5", st.HaloHops)
	}
}

// TestAutoShards: Shards 0 picks a grid and still matches canonical.
func TestAutoShards(t *testing.T) {
	in := UniformInput(2, 150, 10, 1.3)
	want := canonicalResult(t, in, 4, 2)
	got, st := mustSchedule(t, in, Options{Tau: 4, Seed: 2})
	if !reflect.DeepEqual(want, got) {
		t.Fatal("auto-sharded result differs from canonical")
	}
	if st.Shards < 1 {
		t.Fatalf("auto shard count %d", st.Shards)
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
		{"boundaryLen", Input{Points: good.Points, Rc: 1.3, Boundary: good.Boundary[1:]}, Options{Tau: 3}, "boundary flags"},
		{"tau", good, Options{Tau: 2}, "confine size"},
		{"negShards", good, Options{Tau: 3, Shards: -1}, "negative shard count"},
		{"thinHalo", good, Options{Tau: 5, HaloHops: 1}, "halo depth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Schedule(tc.in, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %v, want fragment %q", err, tc.frag)
			}
		})
	}

	t.Run("longEdge", func(t *testing.T) {
		b := graph.NewBuilder()
		b.AddEdge(0, 1)
		in := Input{
			Points:   []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}},
			Rc:       1,
			Boundary: []bool{false, false},
			G:        b.MustBuild(),
		}
		_, _, err := Schedule(in, Options{Tau: 3})
		if err == nil || !strings.Contains(err.Error(), "halo invariant") {
			t.Fatalf("error %v, want long-edge rejection", err)
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

// TestHaloDeltasFlow: with more than one shard on a dense deployment,
// some deletion must land on a replica — otherwise the halo exchange is
// dead code and the equivalence tests prove nothing about it.
func TestHaloDeltasFlow(t *testing.T) {
	in := UniformInput(1, 150, 10, 1.35)
	_, st := mustSchedule(t, in, Options{Tau: 4, Seed: 1, Shards: 9})
	if st.HaloDeltas == 0 {
		t.Fatal("no halo deltas on a 9-shard dense deployment")
	}
	if st.Replicas <= len(in.Points) {
		t.Fatalf("replicas %d imply an empty halo", st.Replicas)
	}
	if st.Tests == 0 {
		t.Fatalf("degenerate stats %+v", st)
	}
}
