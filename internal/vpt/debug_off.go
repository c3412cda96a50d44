//go:build !dccdebug

package vpt

import "dcc/internal/graph"

// Release builds compile the deep cache-consistency assertions away; build
// with -tags dccdebug to arm them.

func debugCheckCacheVerdict(*Cache, graph.NodeID, bool) {}

func debugAuditClean(*Cache) {}

func debugCheckWitness(*Cache, graph.NodeID, Verdict, *Tester) {}
