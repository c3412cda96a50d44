package dcc

import (
	"reflect"
	"testing"

	"dcc/internal/core"
	"dcc/internal/shard"
)

// shardSchedule runs the spatial shard engine on a deployment without
// obstacles: positions, Rc, the boundary flags and the explicit graph,
// whose links the engine checks against Rc (quasi-UDG links cannot be
// re-derived from positions).
func shardSchedule(dep *Deployment, tau int, opts shard.Options) (ScheduleResult, error) {
	boundary := make([]bool, len(dep.Points))
	for _, v := range dep.BoundaryNodes {
		boundary[v] = true
	}
	opts.Tau = tau
	res, _, err := shard.Schedule(shard.Input{Points: dep.Points, Rc: dep.Rc, Boundary: boundary, G: dep.G}, opts)
	return res, err
}

// TestShardCountEquivalence: the shard engine must return a byte-identical
// ScheduleResult for every shard count × worker count combination on a
// public deployment, and that result must equal the unsharded
// canonical-mode engine on the same repaired network — the equivalence
// contract of DESIGN.md §15, asserted on Deploy's output.
func TestShardCountEquivalence(t *testing.T) {
	const tau = 4
	seeds := []int64{1, 5}
	if testing.Short() {
		seeds = seeds[:1] // smoke slice for the check.sh race gate
	}
	for _, seed := range seeds {
		// AvgDegree 12 keeps 2-hop verdict balls small enough that the
		// full sweep stays fast under the check.sh race gate; density is
		// orthogonal to the equivalence contract being pinned here.
		dep, err := Deploy(DeployOptions{Nodes: 150, Seed: seed, AvgDegree: 12})
		if err != nil {
			t.Fatal(err)
		}
		net, _, err := core.RepairBoundaries(dep.Network())
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Schedule(net, core.Options{Tau: tau, Seed: seed, Mode: core.Canonical})
		if err != nil {
			t.Fatal(err)
		}
		if want.Stats.Deletions == 0 {
			t.Fatalf("seed %d: degenerate scenario, canonical engine deleted nothing", seed)
		}
		for _, shards := range []int{1, 2, 4, 9} {
			for _, workers := range []int{1, 4} {
				got, err := shardSchedule(dep, tau, shard.Options{Seed: seed, Workers: workers, Shards: shards})
				if err != nil {
					t.Fatalf("seed=%d shards=%d workers=%d: %v", seed, shards, workers, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed=%d shards=%d workers=%d: sharded result differs from the unsharded canonical engine\nwant stats %+v\ngot  stats %+v",
						seed, shards, workers, want.Stats, got.Stats)
				}
			}
		}
	}
}

// TestShardedQuasiUDG: the sharded engine must accept non-geometric link
// models through the explicit graph (quasi-UDG links cannot be re-derived
// from positions) and still match the unsharded canonical engine.
func TestShardedQuasiUDG(t *testing.T) {
	dep, err := Deploy(DeployOptions{Nodes: 120, Seed: 9, Model: QuasiUDG})
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := core.RepairBoundaries(dep.Network())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Schedule(net, core.Options{Tau: 4, Seed: 9, Mode: core.Canonical})
	if err != nil {
		t.Fatal(err)
	}
	got, err := shardSchedule(dep, 4, shard.Options{Seed: 9, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("sharded quasi-UDG schedule differs from the unsharded canonical engine")
	}
}

// TestShardedTelemetryNeutral: attaching a registry must not change the
// sharded schedule (the observability contract), and the deterministic
// shard counters must be worker-count invariant.
func TestShardedTelemetryNeutral(t *testing.T) {
	dep, err := Deploy(DeployOptions{Nodes: 120, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := shardSchedule(dep, 4, shard.Options{Seed: 4, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	counters := func(workers int) (ScheduleResult, *Telemetry) {
		reg := NewTelemetry()
		res, err := shardSchedule(dep, 4, shard.Options{Seed: 4, Shards: 4, Workers: workers, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		return res, reg
	}
	res1, reg1 := counters(1)
	res4, reg4 := counters(4)
	if !reflect.DeepEqual(bare, res1) || !reflect.DeepEqual(bare, res4) {
		t.Fatal("telemetry collection changed the sharded schedule")
	}
	if reg1.Fingerprint() != reg4.Fingerprint() {
		t.Fatal("deterministic shard metrics differ across worker counts")
	}
	if reg1.Counter("shard.tests").Value() == 0 {
		t.Fatal("expected the shard.tests counter to be populated")
	}
}
