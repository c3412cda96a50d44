// Package hgc implements the baseline the paper compares against:
// homology-group coverage (HGC) by Ghrist et al. — coverage verification
// through the triviality of the first homology group of the Rips
// 2-complex, and node scheduling restricted to triangle granularity.
//
// Over GF(2), H1 of a Rips complex is trivial exactly when the cycle space
// of the connectivity graph is spanned by its 3-cycles, which connects the
// homology criterion to the cycle-partition framework: HGC is the special,
// stricter case τ = 3 (paper §IV-B). So Verify asks the τ = 3 span
// question of the cycles package on the graph with its inner boundaries
// coned, and cycles.Corank(g, 3) is the rank of H1. The möbius-band
// network of Figure 1 separates the two criteria: its boundary is
// 3-partitionable (DCC accepts) while H1 is non-trivial (HGC reports a
// phantom hole).
//
// Two schedulers are provided:
//
//   - Schedule: the scalable triangle-granularity scheduler (the τ = 3
//     pattern run through the DCC machinery, per §III-C), whose output is
//     verified with the homology criterion;
//   - ScheduleExact: greedy deletion with a full homology recomputation
//     after every tentative deletion — the literal centralized procedure,
//     quadratic and intended for small networks and cross-validation.
package hgc

import (
	"fmt"
	"math/rand"

	"dcc/internal/core"
	"dcc/internal/cycles"
	"dcc/internal/graph"
)

// Verify runs the homology-group coverage verification on a connectivity
// graph: it cones every inner boundary (regions declared as not requiring
// coverage) with graph.Cone, which makes the pair's relative H1 the coned
// graph's absolute H1 (the fenced criterion of de Silva and Ghrist), and
// reports whether that H1 is trivial, i.e. whether the coned graph's
// triangles span its cycle space. A trivial H1 certifies blanket coverage
// under the HGC range condition Rs ≥ Rc/√3; a non-trivial H1 reports a
// hole (possibly spuriously — see the möbius example).
func Verify(g *graph.Graph, innerBoundaries [][]graph.NodeID) bool {
	return cycles.SpannedByShort(g.Cone(innerBoundaries), 3)
}

// Options configures HGC scheduling.
type Options struct {
	// Seed drives the deletion order.
	Seed int64
}

// Result is the outcome of an HGC scheduling run.
type Result struct {
	// Final is the reduced graph.
	Final *graph.Graph
	// Kept, KeptInternal, Deleted follow core.Result semantics.
	Kept, KeptInternal, Deleted []graph.NodeID
	// HomologyOK records whether the final set passes Verify.
	HomologyOK bool
}

// Schedule computes an HGC coverage set at triangle granularity: the τ = 3
// confine pattern (the only granularity HGC supports), with the final set
// verified against the homology criterion. Inner boundary cycles (all but
// the first) are coned for the verification, mirroring Ghrist et al.'s
// boundary repair.
func Schedule(net core.Network, opts Options) (Result, error) {
	res, err := core.Schedule(net, core.Options{Tau: 3, Seed: opts.Seed})
	if err != nil {
		return Result{}, fmt.Errorf("hgc: %w", err)
	}
	var inner [][]graph.NodeID
	if len(net.BoundaryCycles) > 1 {
		inner = net.BoundaryCycles[1:]
	}
	return Result{
		Final:        res.Final,
		Kept:         res.Kept,
		KeptInternal: res.KeptInternal,
		Deleted:      res.Deleted,
		HomologyOK:   Verify(res.Final, inner),
	}, nil
}

// ScheduleExact runs the literal centralized HGC scheduling: visit internal
// nodes in random order and delete a node whenever the homology criterion
// still holds afterwards, repeating until no deletion survives
// verification. Every tentative deletion costs a full H1 computation, so
// this is intended for small networks (hundreds of nodes) and for
// validating Schedule.
func ScheduleExact(net core.Network, opts Options) (Result, error) {
	if err := net.Validate(); err != nil {
		return Result{}, fmt.Errorf("hgc: %w", err)
	}
	var inner [][]graph.NodeID
	if len(net.BoundaryCycles) > 1 {
		inner = net.BoundaryCycles[1:]
	}
	g := net.G
	if !Verify(g, inner) {
		return Result{}, fmt.Errorf("hgc: input network fails the homology criterion")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var deleted []graph.NodeID
	for {
		candidates := internalNodes(net, g)
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		progressed := false
		for _, v := range candidates {
			if !g.HasNode(v) {
				continue
			}
			reduced := g.DeleteVertices([]graph.NodeID{v})
			if Verify(reduced, inner) {
				g = reduced
				deleted = append(deleted, v)
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	kept := g.Nodes()
	var internal []graph.NodeID
	for _, v := range kept {
		if !net.Boundary[v] {
			internal = append(internal, v)
		}
	}
	return Result{
		Final:        g,
		Kept:         kept,
		KeptInternal: internal,
		Deleted:      deleted,
		HomologyOK:   true,
	}, nil
}

func internalNodes(net core.Network, g *graph.Graph) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range g.Nodes() {
		if !net.Boundary[v] {
			out = append(out, v)
		}
	}
	return out
}
