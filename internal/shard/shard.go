// Package shard schedules confine-based coverage over a deployment given
// in geometric form: positions, a communication range Rc and boundary
// flags, with the links either supplied as a graph or derived as the
// unit-disk graph of the positions. It is the scale harness's entry point
// (UniformInput, the benchmark's shard-1e5 workload).
//
// Schedule builds one CSR graph and runs core's canonical election over
// one vpt.Cache, which is what core.Schedule does in Canonical mode. The
// deletability test (Definition 5) reads only the ⌈τ/2⌉-hop ball of the
// graph, so a link of any length is scheduled as given.
//
// Equivalence contract: Schedule returns a core.Result byte-identical
// (reflect.DeepEqual) to core.Schedule in Canonical mode on the same
// topology, for every worker count.
package shard

import (
	"errors"
	"fmt"

	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/telemetry"
	"dcc/internal/vpt"
)

// Options configures a schedule. The Seed/Workers/Telemetry trio follows
// the repo-wide config vocabulary (DESIGN.md §15): Seed is the base seed of
// the canonical priorities, Workers is accepted and ignored, Telemetry is
// the optional metrics registry (nil = no collection; never changes
// results).
type Options struct {
	// Tau is the confine size τ ≥ 3.
	Tau int
	// Seed is the base seed of the canonical deletion priorities. The
	// kept set is a pure function of (topology, Seed).
	Seed int64
	// Workers has no effect: the election is sequential on one graph. It
	// stays for the config vocabulary and for callers that set it.
	Workers int
	// Telemetry is the optional metrics registry (nil = off). Collection
	// never changes the schedule.
	Telemetry *telemetry.Registry
}

// Input is a deployment in geometric form: positions plus boundary flags,
// with links either taken from an explicit graph or derived from the
// positions. Node IDs are the position indices 0..n-1.
type Input struct {
	// Points holds the node positions; node i sits at Points[i].
	Points []geom.Point
	// Rc is the communication range, which must be positive. With G nil
	// it defines the links; with G set, G's links are scheduled as given,
	// whatever their length.
	Rc float64
	// Boundary flags the undeletable frame nodes (len(Boundary) ==
	// len(Points)).
	Boundary []bool
	// G optionally supplies the link graph over IDs 0..n-1 (required
	// for non-geometric link models such as quasi-UDG, where links
	// cannot be re-derived from positions). nil derives the unit-disk
	// graph, i ↔ j iff dist ≤ Rc (geom.UDG).
	G *graph.Graph
}

// Stats describes the work a schedule performed, alongside the core.Result
// counters.
type Stats struct {
	// Tests and Deletions mirror the core.Result counters.
	Tests, Deletions int
	// Batches, Deferred, Replicas, MaxLocal and HaloDeltas always read 0:
	// the election runs one test at a time on one graph, so there are no
	// verdict batches, region replicas or halo deltas to count. They stay
	// so that callers reading them compile.
	Batches, Deferred, Replicas, MaxLocal, HaloDeltas int
}

// Schedule runs the canonical election over the deployment and returns a
// core.Result byte-identical to core.Schedule with Mode Canonical on the
// same topology, plus the work counters.
func Schedule(in Input, opts Options) (core.Result, Stats, error) {
	if err := validate(in, opts); err != nil {
		return core.Result{}, Stats{}, err
	}
	g := in.G
	if g == nil {
		g = geom.UDG(in.Points, in.Rc)
	}
	boundary := make(map[graph.NodeID]bool)
	for i, b := range in.Boundary {
		if b {
			boundary[graph.NodeID(i)] = true
		}
	}
	reg := opts.Telemetry
	sp := reg.StartSpan("shard.elect")
	cache := vpt.NewCache(g, opts.Tau)
	cache.Instrument(reg)
	deleted, tests := core.CanonicalElect(core.Network{G: g, Boundary: boundary}, opts.Seed, cache, cache.Deletable)
	final := cache.LiveGraph()
	sp.End()

	kept := final.Nodes()
	var internal []graph.NodeID
	for _, v := range kept {
		if !in.Boundary[v] {
			internal = append(internal, v)
		}
	}
	// Both counters are pure functions of (topology, seed), so they land
	// in the deterministic class.
	reg.Counter("shard.tests").Add(int64(tests))
	reg.Counter("shard.deletions").Add(int64(len(deleted)))
	return core.Result{
		Final:        final,
		Kept:         kept,
		KeptInternal: internal,
		Deleted:      deleted,
		Stats:        core.Stats{Rounds: 1, Tests: tests, Deletions: len(deleted)},
	}, Stats{Tests: tests, Deletions: len(deleted)}, nil
}

// validate rejects malformed inputs before any scheduling work happens.
func validate(in Input, opts Options) error {
	n := len(in.Points)
	if n == 0 {
		return errors.New("shard: empty deployment")
	}
	if in.Rc <= 0 {
		return fmt.Errorf("shard: non-positive Rc %v", in.Rc)
	}
	if len(in.Boundary) != n {
		return fmt.Errorf("shard: %d boundary flags for %d nodes", len(in.Boundary), n)
	}
	if opts.Tau < 3 {
		return fmt.Errorf("shard: confine size %d < 3", opts.Tau)
	}
	if in.G != nil {
		if got := in.G.NumNodes(); got != n {
			return fmt.Errorf("shard: graph has %d nodes, deployment has %d", got, n)
		}
		for i := 0; i < n; i++ {
			if in.G.NodeAt(i) != graph.NodeID(i) {
				return fmt.Errorf("shard: node IDs must be dense 0..n-1 (index %d holds %d)", i, in.G.NodeAt(i))
			}
		}
	}
	return nil
}
