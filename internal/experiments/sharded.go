package experiments

import (
	"fmt"
	"io"
	"reflect"

	"dcc/internal/core"
	"dcc/internal/runner"
	"dcc/internal/shard"
)

// shardedTau is the confine size of the shard-engine experiment; matches
// the streaming experiment so the two dynamic/scale extensions report on
// the same verdict locality (k = 2 hops).
const shardedTau = 4

// shardedCounts is the shard-count sweep checked against the unsharded
// canonical engine in every run. Stats are reported at the largest count,
// where cross-shard traffic (halo deltas) is busiest.
var shardedCounts = []int{1, 4, 9}

// ShardedResult summarizes the spatial-shard-engine experiment: every run
// schedules one deployment with the unsharded canonical engine and with
// the shard engine at each shard count, requiring byte-identical results,
// and reports the coordinator's work profile at the largest shard count.
type ShardedResult struct {
	Runs int
	Tau  int
	// Matched counts byte-identical (deployment, shard-count) schedules;
	// success ⇒ Runs·len(shardedCounts).
	Matched int
	// Per-run averages of the canonical schedule being reproduced.
	AvgDeletions float64
	AvgTests     float64
	// Coordinator profile at the largest shard count, averaged per run.
	AvgHaloDeltas float64
	// AvgReplication is mean total shard residents (owned + halo copies)
	// divided by n — the memory price of the halo invariant.
	AvgReplication float64
}

// shardedRun is one Monte-Carlo run's contribution.
type shardedRun struct {
	matched   int
	deletions int
	tests     int
	st        shard.Stats
	nodes     int
}

// Sharded exercises the spatial shard engine (DESIGN.md §15) as a figure
// runner: the sharded schedule must equal the unsharded canonical engine
// for every shard count, on every deployment, while the engine only ever
// materializes per-shard subgraphs. Runs are independent Monte-Carlo jobs
// on the worker pool; the shard engine's own parallel sections run
// sequentially inside each job so the outer pool owns all concurrency.
func Sharded(w io.Writer, cfg Config) (ShardedResult, error) {
	cfg = cfg.withDefaults()
	out := ShardedResult{Runs: cfg.Runs, Tau: shardedTau}

	perRun, err := runner.Map(cfg.Runs, cfg.Workers, func(run int) (shardedRun, error) {
		dep, err := cfg.deploy(runner.DeriveSeed(cfg.Seed, streamShardedDeploy, run), 1.0)
		if err != nil {
			return shardedRun{}, err
		}
		schedSeed := runner.DeriveSeed(cfg.Seed, streamShardedSchedule, run)
		net, _, err := core.RepairBoundaries(dep.Network())
		if err != nil {
			return shardedRun{}, err
		}
		want, err := core.Schedule(net, core.Options{Tau: shardedTau, Seed: schedSeed, Mode: core.Canonical})
		if err != nil {
			return shardedRun{}, fmt.Errorf("run %d: canonical reference: %w", run, err)
		}

		boundary := make([]bool, len(dep.Points))
		for _, v := range dep.BoundaryNodes {
			boundary[v] = true
		}
		in := shard.Input{Points: dep.Points, Rc: dep.Rc, Boundary: boundary, G: dep.G}

		r := shardedRun{deletions: want.Stats.Deletions, tests: want.Stats.Tests, nodes: len(dep.Points)}
		for _, shards := range shardedCounts {
			got, st, err := shard.Schedule(in, shard.Options{
				Tau: shardedTau, Seed: schedSeed, Shards: shards, Workers: 1,
			})
			if err != nil {
				return shardedRun{}, fmt.Errorf("run %d shards=%d: %w", run, shards, err)
			}
			if !reflect.DeepEqual(want, got) {
				return shardedRun{}, fmt.Errorf(
					"run %d shards=%d: sharded schedule diverged from the unsharded canonical engine", run, shards)
			}
			r.matched++
			r.st = st
		}
		return r, nil
	})
	if err != nil {
		return ShardedResult{}, err
	}

	for _, r := range perRun {
		out.Matched += r.matched
		out.AvgDeletions += float64(r.deletions)
		out.AvgTests += float64(r.tests)
		out.AvgHaloDeltas += float64(r.st.HaloDeltas)
		out.AvgReplication += float64(r.st.Replicas) / float64(r.nodes)
	}
	// Aggregate telemetry is published only here, after the barrier, like
	// the streaming experiment: per-run engines never see the registry.
	if reg := cfg.Telemetry; reg != nil {
		var deltas int64
		for _, r := range perRun {
			deltas += int64(r.st.HaloDeltas)
		}
		reg.Counter("experiments.sharded.matched").Add(int64(out.Matched))
		reg.Counter("experiments.sharded.halo_deltas").Add(deltas)
	}

	n := float64(cfg.Runs)
	out.AvgDeletions /= n
	out.AvgTests /= n
	out.AvgHaloDeltas /= n
	out.AvgReplication /= n

	fmt.Fprintf(w, "Sharded — spatial shard engine vs unsharded canonical (n=%d, %d runs, τ=%d, shards %v)\n",
		cfg.Nodes, cfg.Runs, shardedTau, shardedCounts)
	fmt.Fprintf(w, "  byte-identical schedules: %d/%d\n", out.Matched, cfg.Runs*len(shardedCounts))
	fmt.Fprintf(w, "  avg per run: deletions %.1f  tests %.1f\n", out.AvgDeletions, out.AvgTests)
	fmt.Fprintf(w, "  coordinator at %d shards: halo deltas %.1f  replication ×%.2f\n",
		shardedCounts[len(shardedCounts)-1], out.AvgHaloDeltas, out.AvgReplication)
	return out, nil
}
