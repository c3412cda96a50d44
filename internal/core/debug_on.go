//go:build dccdebug

package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// The replay oracle (-tags dccdebug): every replayed election on a live
// graph of at most debugReplayLimit nodes is re-run without its trace and
// must delete the same nodes in the same order with the same test count,
// and a capped number of replayed verdicts and recorded balls are
// re-derived on the live residual.
const (
	debugReplayLimit      = 1000 // max live nodes for the full re-election, like cycles' debugSpanLimit
	debugReplayCheckLimit = 4096 // replayed verdicts and balls re-derived per process, like the stream memo check
)

var debugReplayChecks atomic.Int64

// debugReplay is the oracle's scratch, kept per Replay so concurrent
// engines share nothing.
type debugReplay struct {
	s *graph.Scratch
	t *vpt.Tester
}

func (d *debugReplay) scratch() *graph.Scratch {
	if d.s == nil {
		d.s, d.t = graph.NewScratch(nil), vpt.NewTester()
	}
	return d.s
}

// debugCheckReplayedVerdict re-derives the replayed verdict x of v on the
// live residual.
func debugCheckReplayedVerdict(r *Replay, v graph.NodeID, x vpt.Verdict) {
	if debugReplayChecks.Add(1) > debugReplayCheckLimit {
		return
	}
	if fresh := r.cache.ComputeFresh(v, r.dbg.scratch(), r.dbg.t); fresh.Deletable() != x.Deletable() {
		panic(fmt.Sprintf("core: replayed verdict for node %d is %v, fresh computation says %v",
			v, x.Deletable(), fresh.Deletable()))
	}
}

// debugCheckReplayedBall compares the recorded dirty ball a replayed
// "yes" of v commits with the BFS ball on the live residual.
func debugCheckReplayedBall(r *Replay, v graph.NodeID, ball []int32) {
	if debugReplayChecks.Add(1) > debugReplayCheckLimit {
		return
	}
	if want := r.cache.View().KHopBallIndices(v, r.cache.Radius(), r.dbg.scratch()); !slices.Equal(want, ball) {
		panic(fmt.Sprintf("core: replayed dirty ball of node %d is %v, BFS says %v", v, ball, want))
	}
}

// debugCheckReplay re-runs a replayed election without the trace.
func debugCheckReplay(r *Replay, net Network, seed int64, deleted []graph.NodeID, tests int) {
	if !r.on || r.g.NumNodes() > debugReplayLimit {
		return
	}
	cache := vpt.NewCache(r.g, r.cache.Tau())
	want, wantTests := CanonicalElect(net, seed, cache, cache.Deletable)
	if !slices.Equal(want, deleted) || wantTests != tests {
		panic(fmt.Sprintf("core: replayed election deleted %v in %d tests, the plain election %v in %d",
			deleted, tests, want, wantTests))
	}
}
