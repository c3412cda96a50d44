//go:build dccdebug

package dist

import (
	"fmt"

	"dcc/internal/core"
	"dcc/internal/graph"
)

// debugChecks gates the protocol's deep invariant assertions; this build
// has them on (-tags dccdebug).
const debugChecks = true

// debugCheckWinners deep-checks one super-round's MIS election against the
// ground-truth topology (which a real node never sees — this is exactly
// what the distributed protocol cannot check for itself):
//
//   - winners are strictly sorted and were candidates;
//   - winners are pairwise ≥ m hops apart, the independence radius at
//     which simultaneous deletions are safe (§V-B);
//   - each winner's round bid (core.RoundBid) beats every rival candidate
//     within m−1 hops, i.e. the election picked exactly the local maxima.
//
// cands is the effective electorate of the round (candidates minus
// AckFloods withdrawals).
//
// Under ReliabilityNone with a lossy channel the flood may not reach
// everyone and the safety guarantee is explicitly waived (see
// Config.Loss), so the topology checks are skipped for exactly that
// combination. Under AckFloods they stay on even with loss — the chaos
// harness pins that they never fire on its seeded runs. Hop distances are
// measured on the live communication topology: crashed nodes do not
// forward floods, and partition-severed links carry nothing.
func (r *runtime) debugCheckWinners(cands, winners []graph.NodeID, superRound int) {
	isCand := make(map[graph.NodeID]bool, len(cands))
	for _, c := range cands {
		isCand[c] = true
	}
	for i, w := range winners {
		if i > 0 && winners[i-1] >= w {
			panic(fmt.Sprintf("dist debug: winners not strictly sorted at %d: %d >= %d", i, winners[i-1], w))
		}
		if !isCand[w] {
			panic(fmt.Sprintf("dist debug: winner %d was never a candidate", w))
		}
	}
	if r.unreliableLossy() {
		return
	}
	top := r.commTopology()
	for _, w := range winners {
		t := top.BFS(w, r.m-1)
		own := core.RoundBid(r.cfg.Seed, w, superRound)
		for _, o := range winners {
			if o != w && t.Depth(o) >= 0 {
				panic(fmt.Sprintf("dist debug: winners %d and %d are %d hops apart, want ≥ %d",
					w, o, t.Depth(o), r.m))
			}
		}
		for _, c := range cands {
			if c == w || t.Depth(c) < 0 {
				continue
			}
			if core.RoundBid(r.cfg.Seed, c, superRound).Beats(own) {
				panic(fmt.Sprintf("dist debug: winner %d is not locally maximal: candidate %d within %d hops outbids it",
					w, c, r.m-1))
			}
		}
	}
}

// debugCheckDeletionLog verifies that the round's appended deletion-log
// segment is exactly the elected winner set in announcement order, so the
// global deletion order replayed from a Result matches the priority-ordered
// election that produced it.
func (r *runtime) debugCheckDeletionLog(before int, winners []graph.NodeID) {
	seg := r.deleted[before:]
	if len(seg) != len(winners) {
		panic(fmt.Sprintf("dist debug: deletion log grew by %d entries for %d winners", len(seg), len(winners)))
	}
	for i := range seg {
		if seg[i] != winners[i] {
			panic(fmt.Sprintf("dist debug: deletion log[%d] = %d, want winner %d", before+i, seg[i], winners[i]))
		}
	}
}
