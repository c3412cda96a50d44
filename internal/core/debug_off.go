//go:build !dccdebug

package core

import (
	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// Release builds compile the replay oracle away; build with -tags dccdebug
// to arm it (debug_on.go).

type debugReplay struct{}

func debugCheckReplayedVerdict(*Replay, graph.NodeID, vpt.Verdict) {}

func debugCheckReplayedBall(*Replay, graph.NodeID, []int32) {}

func debugCheckReplay(*Replay, Network, int64, []graph.NodeID, int) {}
