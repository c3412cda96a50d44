package main

import (
	"math/rand"
	"slices"

	"dcc"
	"dcc/internal/core"
	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// The certifier: every check here runs after the timed passes, and every
// violation counts one failed operation.

// history is one schedule to certify: the graph it ran on, its confine
// size, its deletions in order and the internal nodes it kept.
type history struct {
	g       *graph.Graph
	tau     int
	deleted []graph.NodeID
	kept    []graph.NodeID
}

// replay re-runs h's deletions on a fresh vpt.Cache and returns how many
// steps break the schedule's contract: a deletion the verdict refused at its
// turn, or a kept internal node still deletable at the end (the result is
// not maximal). With a non-nil prober every verdict and commit is also
// timed layer by layer, as spans under parent.
func replay(h history, p *prober, parent int64) int {
	cache := vpt.NewCache(h.g, h.tau)
	verdict := cache.Deletable
	commit := func(v graph.NodeID) { cache.Commit([]graph.NodeID{v}) }
	if p != nil {
		verdict = func(v graph.NodeID) bool { return p.verdict(cache, v, parent) }
		commit = func(v graph.NodeID) { p.commit(cache, v, parent) }
	}
	violations := 0
	for _, v := range h.deleted {
		if !verdict(v) {
			violations++
		}
		commit(v)
	}
	for _, v := range h.kept {
		if verdict(v) {
			violations++
		}
	}
	return violations
}

// theorem5 checks scheduling preserved τ-partitionability (Theorem 5): for
// every confine size in broken, where the reduced graph is not
// τ-partitionable, the full deployment must not have been either. It
// returns the number of sizes that break the theorem. broken must be in
// descending order: partitionability only grows with τ, so once the full
// graph fails at one size it fails at every smaller one, and usually only
// the largest broken size costs a global check.
func theorem5(dep *dcc.Deployment, broken []int) (int, error) {
	violations := 0
	for _, tau := range broken {
		holds, err := dep.VerifyConfine(dep.G, tau)
		if err != nil {
			return violations, err
		}
		if !holds {
			return violations, nil
		}
		violations++
	}
	return violations, nil
}

// canonicalElection runs the canonical election (core.CanonicalElect, the
// loop the shard and stream engines share) on net and returns its
// deletions in order and its test count.
func canonicalElection(net core.Network, seed int64, tau int) ([]graph.NodeID, int) {
	cache := vpt.NewCache(net.G, tau)
	return core.CanonicalElect(net, seed, cache, cache.Deletable)
}

// orderDepartures compares a deletion history with the canonical one: the
// number of positions where they differ, and whether they delete the same
// nodes at all.
func orderDepartures(want, got []graph.NodeID) (departures int, sameSet bool) {
	for i := range min(len(want), len(got)) {
		if want[i] != got[i] {
			departures++
		}
	}
	a, b := slices.Clone(want), slices.Clone(got)
	slices.Sort(a)
	slices.Sort(b)
	return departures, slices.Equal(a, b)
}

// shardResultOK checks a sharded schedule without a global graph walk:
// every node is either kept or deleted, and a seeded sample of kept
// internal nodes is not deletable on the final graph.
func shardResultOK(points int, res core.Result, tau int, seed int64, samples int) bool {
	if len(res.Kept)+len(res.Deleted) != points {
		return false
	}
	rng := rand.New(rand.NewSource(seed))
	kept := res.KeptInternal
	for _, i := range rng.Perm(len(kept))[:min(samples, len(kept))] {
		if vpt.VertexDeletable(res.Final, kept[i], tau) {
			return false
		}
	}
	return true
}

// coverMismatches counts the final stream covers that differ from want.
func coverMismatches(want []graph.NodeID, got ...[]graph.NodeID) int {
	n := 0
	for _, g := range got {
		if !slices.Equal(want, g) {
			n++
		}
	}
	return n
}
