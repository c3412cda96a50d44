//go:build !dccdebug

package stream

import (
	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// debugCheckMemoVerdict and debugCheckWitnessHit are no-ops in release
// builds; the dccdebug build re-derives a capped number of memo- and
// cache-served verdicts from scratch (debug_on.go).
func debugCheckMemoVerdict(*vpt.Cache, graph.NodeID, bool, *graph.Scratch, *vpt.Tester) {}

func debugCheckWitnessHit(*vpt.Cache, graph.NodeID, bool, *graph.Scratch, *vpt.Tester) {}

// debugCheckTelemetryMirror is a no-op in release builds; the dccdebug
// build asserts published telemetry mirrors Stats (debug_on.go).
func debugCheckTelemetryMirror(*Engine) {}

// debugCheckTopology and debugCheckLiveGraph are no-ops in release
// builds; the dccdebug build checks the neighbour lists after every edit
// and the live graph against a Builder build (debug_on.go).
func debugCheckTopology(*topology) {}

func debugCheckLiveGraph(*topology, *graph.Graph) {}
