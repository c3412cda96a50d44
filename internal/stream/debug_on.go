//go:build dccdebug

package stream

import (
	"fmt"

	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// debugCheckLimit caps the number of memo hits, and separately of
// witness hits, cross-checked per process: enough to catch a
// fingerprint-collision, witness or staleness bug in any test, cheap
// enough to leave on for the whole dccdebug suite.
const debugCheckLimit = 4096

var debugMemoChecks, debugWitnessChecks int

// debugCheckMemoVerdict re-derives a memoized deletability verdict from
// the residual neighborhood and panics on disagreement — the soundness
// check behind the memo: fingerprint equality must imply verdict equality.
func debugCheckMemoVerdict(cache *vpt.Cache, v graph.NodeID, memoized bool, s *graph.Scratch, t *vpt.Tester) {
	debugCheckServed(&debugMemoChecks, "memoized", "fingerprint collision or stale memo", cache, v, memoized, s, t)
}

// debugCheckWitnessHit re-derives a verdict the election's cache kept
// across a deletion that missed its witness — the soundness check behind
// witness-carrying "no" verdicts.
func debugCheckWitnessHit(cache *vpt.Cache, v graph.NodeID, kept bool, s *graph.Scratch, t *vpt.Tester) {
	debugCheckServed(&debugWitnessChecks, "witness-kept", "witness missed a change", cache, v, kept, s, t)
}

func debugCheckServed(checks *int, what, cause string, cache *vpt.Cache, v graph.NodeID, served bool, s *graph.Scratch, t *vpt.Tester) {
	if *checks >= debugCheckLimit {
		return
	}
	*checks++
	if fresh := cache.ComputeFresh(v, s, t).Deletable(); fresh != served {
		panic(fmt.Sprintf("stream: %s verdict for node %d is %v, fresh computation says %v (%s)",
			what, v, served, fresh, cause))
	}
}

// debugCheckTelemetryMirror asserts that the amounts published into the
// telemetry registry equal the engine's Stats, field for field — the
// cross-check that no Stats field is missing from publish and no delta
// was dropped. Runs after every publish, under e.mu.
func debugCheckTelemetryMirror(e *Engine) {
	if e.tel == nil {
		return
	}
	if e.telPub != e.stats {
		panic(fmt.Sprintf("stream: telemetry mirror diverged from Stats: published %+v, stats %+v",
			e.telPub, e.stats))
	}
}
