//go:build dccdebug

package stream

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"

	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// debugCheckLimit caps the number of memo hits, and separately of
// witness hits, cross-checked per process: enough to catch a
// fingerprint-collision, witness or staleness bug in any test, cheap
// enough to leave on for the whole dccdebug suite.
const debugCheckLimit = 4096

var debugMemoChecks, debugWitnessChecks int

// debugLiveGraphChecks counts the live graphs compared with a Builder
// build; engines on concurrent workers share it.
var debugLiveGraphChecks atomic.Int64

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

// debugCheckTopology panics unless the universe is consistent after an
// edit: parallel slices of equal length, IDs strictly ascending, the dead
// count right, and every neighbour list strictly ascending, in range,
// free of self-loops and mirrored by the other endpoint's list.
func debugCheckTopology(t *topology) {
	n := len(t.ids)
	if len(t.pos) != n || len(t.dead) != n || len(t.adj) != n {
		panic(fmt.Sprintf("stream: topology slices disagree: %d ids, %d positions, %d flags, %d lists",
			n, len(t.pos), len(t.dead), len(t.adj)))
	}
	dead := 0
	for i, d := range t.dead {
		if i > 0 && t.ids[i-1] >= t.ids[i] {
			panic(fmt.Sprintf("stream: universe ids not strictly ascending at %d", i))
		}
		if d {
			dead++
		}
		for k, j := range t.adj[i] {
			switch {
			case j < 0 || int(j) >= n:
				panic(fmt.Sprintf("stream: node %d lists neighbour index %d of %d", t.ids[i], j, n))
			case int(j) == i:
				panic(fmt.Sprintf("stream: node %d lists itself", t.ids[i]))
			case k > 0 && t.adj[i][k-1] >= j:
				panic(fmt.Sprintf("stream: neighbour list of node %d not strictly ascending", t.ids[i]))
			}
			if _, ok := slices.BinarySearch(t.adj[j], int32(i)); !ok {
				panic(fmt.Sprintf("stream: edge %d-%d listed by one endpoint only", t.ids[i], t.ids[j]))
			}
		}
	}
	if dead != t.numDead {
		panic(fmt.Sprintf("stream: %d dead nodes, topology counts %d", dead, t.numDead))
	}
}

// debugCheckLiveGraph compares, for a capped number of builds per
// process, the live graph built from the neighbour lists with a Builder
// build of the live nodes and the universe edges between them.
func debugCheckLiveGraph(t *topology, g *graph.Graph) {
	if debugLiveGraphChecks.Add(1) > debugCheckLimit {
		return
	}
	b := graph.NewBuilder()
	for i, v := range t.ids {
		if !t.dead[i] {
			b.AddNode(v)
		}
	}
	for _, e := range t.edges(true) {
		b.AddEdge(e.U, e.V)
	}
	if want := b.MustBuild(); !reflect.DeepEqual(g, want) {
		panic(fmt.Sprintf("stream: live graph (%d nodes, %d edges) differs from the Builder build (%d nodes, %d edges)",
			g.NumNodes(), g.NumEdges(), want.NumNodes(), want.NumEdges()))
	}
}
