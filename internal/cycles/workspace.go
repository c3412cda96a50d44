package cycles

import (
	"dcc/internal/bitvec"
	"dcc/internal/graph"
)

// Workspace holds reusable state for repeated short-span tests: the
// echelon (with its recycled row storage), a flat arena for the Horton
// candidates of the current graph, the 2-core graph under test and the
// graph scratch of the 2-core peel, component count and Horton search. A
// warm Workspace makes SpannedByShortWS allocation-free across the
// thousands of deletability evaluations a scheduling run performs; it is
// NOT safe for concurrent use — give each worker its own.
type Workspace struct {
	ech   *bitvec.Echelon
	offs  []int32 // candidate i occupies arena[offs[i]:offs[i+1]]
	arena []int32 // concatenated candidate edge lists
	s     *graph.Scratch
	core  graph.GraphBuf // the 2-core under test, valid until the next test
}

// NewWorkspace returns an empty Workspace.
func NewWorkspace() *Workspace {
	return &Workspace{ech: bitvec.NewEchelon(0), s: graph.NewScratch(nil)}
}

// SpannedByShortWS is SpannedByShort evaluated with ws's reusable buffers —
// same verdict, allocation-free once ws is warm. This is the form the
// incremental deletability engine (internal/vpt Cache) calls per
// candidate.
func SpannedByShortWS(g *graph.Graph, tau int, ws *Workspace) bool {
	// Trees carry no cycles; restricting to the 2-core preserves the cycle
	// space while shrinking the candidate generation work.
	return ws.spansAll(g.TwoCoreInto(&ws.core, ws.s), tau, true)
}

// spansAll resets ws's echelon to g's edge space, inserts the cycles of
// length ≤ tau of g, and reports whether they span the entire cycle space.
// Triangles are inserted straight from the adjacency intersection first —
// in the dense unit-disk patches the deletability test sees, they usually
// reach full rank on their own — then the remaining Horton candidates are
// gathered into the arena (no per-candidate copies or sorting: span
// membership is order-independent) and eliminated. Insertion stops once
// the rank reaches ν, which loses nothing. With abort set it also stops as
// soon as even a fully independent tail of candidates could not reach ν;
// the echelon then holds a partial span, so a caller that tests a specific
// target against ws.ech must not set it.
func (ws *Workspace) spansAll(g *graph.Graph, tau int, abort bool) bool {
	nu := g.CycleSpaceDimWith(ws.s)
	ws.ech.Reset(g.NumEdges())
	if nu == 0 || tau < 3 {
		return nu == 0
	}
	ech := ws.ech
	scratch := ech.TakeScratch()
	full := false
	g.ForEachTriangle(func(e1, e2, e3 int32) bool {
		scratch.Set(int(e1), true)
		scratch.Set(int(e2), true)
		scratch.Set(int(e3), true)
		if _, taken := ech.InsertOwned(scratch); taken {
			if ech.Rank() == nu {
				full = true
				return false
			}
			scratch = ech.TakeScratch()
		}
		// A rejected scratch comes back zeroed by the reduction.
		return true
	})
	if full {
		return true
	}
	if tau == 3 {
		// The triangles are the only generators ≤ 3 (every 3-cycle is a
		// 3-clique), so the span is already complete.
		ech.Recycle(scratch)
		return false
	}
	ws.offs = ws.offs[:0]
	ws.arena = ws.arena[:0]
	g.ForEachHortonCandidateWith(ws.s, tau, func(_ graph.NodeID, _ int, edges []int32) bool {
		ws.offs = append(ws.offs, int32(len(ws.arena)))
		ws.arena = append(ws.arena, edges...)
		return true
	})
	ws.offs = append(ws.offs, int32(len(ws.arena)))
	ncand := len(ws.offs) - 1
	for i := 0; i < ncand; i++ {
		if abort && ech.Rank()+(ncand-i) < nu {
			break // even a fully independent tail cannot reach ν
		}
		for _, e := range ws.arena[ws.offs[i]:ws.offs[i+1]] {
			scratch.Set(int(e), true)
		}
		if _, taken := ech.InsertOwned(scratch); taken {
			if ech.Rank() == nu {
				return true
			}
			scratch = ech.TakeScratch()
		}
	}
	ech.Recycle(scratch)
	return false
}
