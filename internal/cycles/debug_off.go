//go:build !dccdebug

package cycles

import (
	"dcc/internal/bitvec"
	"dcc/internal/graph"
)

// Release builds compile the span cross-check away; build with
// -tags dccdebug to arm it.

type debugState struct{}

func debugCheckSpan(*Workspace, *graph.Graph, int, bool) {}

func debugCheckCertified(*Workspace, *graph.Adjacency, int) {}

func debugCheckFilter(*Workspace, *graph.Graph, int, bool) {}

func debugCheckCorank(*Workspace, *graph.Graph, int, int) {}

func debugCheckPartition(*graph.Graph, bitvec.Vector, int, bool) {}
