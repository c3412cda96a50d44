//go:build dccdebug

package cycles

import (
	"fmt"
	"slices"

	"dcc/internal/bitvec"
	"dcc/internal/graph"
)

// Deep assertions for the span engine (-tags dccdebug): every span
// verdict, membership answer and corank must equal the m-bit elimination
// of referenceSpan, which shares no code with the co-tree engine beyond the
// triangle and Horton enumerations. The reference costs what the verdict
// cost before the engine, so the check is gated to graphs of at most
// debugSpanLimit edges (the 2-core, for a span verdict) to keep dccdebug
// test runs tractable. A span the fan certificate proves is also checked
// by the co-tree engine, at any size.
const debugSpanLimit = 1000

// debugState is the reference's echelon and the unfiltered engine's
// workspace, reused so that a warm Workspace stays allocation-free with
// the checks armed.
type debugState struct {
	ech *bitvec.Echelon
	ref *Workspace
}

// debugCheckSpan cross-checks the span verdict ws computed on g.
func debugCheckSpan(ws *Workspace, g *graph.Graph, tau int, got bool) {
	if g.NumEdges() > debugSpanLimit {
		return
	}
	if ws.dbg.ech == nil {
		ws.dbg.ech = bitvec.NewEchelon(0)
	}
	if want := referenceSpan(g, tau, ws.dbg.ech, ws.s); want != got {
		panic(fmt.Sprintf("cycles debug: short-cycle span = %v, m-bit reference = %v (n=%d m=%d tau=%d)",
			got, want, g.NumNodes(), g.NumEdges(), tau))
	}
}

// debugCheckCertified cross-checks a span the fan certificate proved on
// a: the co-tree engine, whatever a's size, and the reference, within its
// limit, must find it too. It leaves the engine's state in ws.
func debugCheckCertified(ws *Workspace, a *graph.Adjacency, tau int) {
	core := a.TwoCoreInto(&ws.core, ws.s)
	if !ws.spansAll(core, tau) {
		panic(fmt.Sprintf("cycles debug: fan certificate holds, co-tree engine finds no span (n=%d m=%d tau=%d)",
			core.NumNodes(), core.NumEdges(), tau))
	}
	debugCheckSpan(ws, core, tau, true)
}

// debugCheckFilter cross-checks the end state of a span built with the
// Horton pass's empty-image filter against an unfiltered pass over g: the
// verdict, the rank, the class partition, the deferred images and, for a
// "no", the unspanned cycle must all agree.
func debugCheckFilter(ws *Workspace, g *graph.Graph, tau int, got bool) {
	if ws.dbg.ref == nil {
		ws.dbg.ref = NewWorkspace()
	}
	ref := ws.dbg.ref
	want := ref.span(g, tau, false)
	fail := func(what string) {
		panic(fmt.Sprintf("cycles debug: filtered Horton pass differs from an unfiltered one in its %s (n=%d m=%d tau=%d)",
			what, g.NumNodes(), g.NumEdges(), tau))
	}
	if got != want {
		fail("verdict")
	}
	if ws.rank != ref.rank || ws.ech.Rank() != ref.ech.Rank() {
		fail("rank")
	}
	for c := range ws.uf {
		if ws.find(int32(c)) != ref.find(int32(c)) {
			fail("partition")
		}
	}
	if !slices.Equal(ws.def, ref.def) {
		fail("deferred images")
	}
	if !got && !slices.Equal(ws.UnspannedCycle(), ref.UnspannedCycle()) {
		fail("unspanned cycle")
	}
}

// debugCheckCorank cross-checks a Corank answer against the rank the
// reference's echelon reaches.
func debugCheckCorank(ws *Workspace, g *graph.Graph, tau, got int) {
	if g.NumEdges() > debugSpanLimit {
		return
	}
	if ws.dbg.ech == nil {
		ws.dbg.ech = bitvec.NewEchelon(0)
	}
	referenceSpan(g, tau, ws.dbg.ech, ws.s)
	if want := g.CycleSpaceDimWith(ws.s) - ws.dbg.ech.Rank(); want != got {
		panic(fmt.Sprintf("cycles debug: Corank = %d, m-bit reference = %d (n=%d m=%d tau=%d)",
			got, want, g.NumNodes(), g.NumEdges(), tau))
	}
}

// debugCheckPartition cross-checks a Partitionable answer.
func debugCheckPartition(g *graph.Graph, target bitvec.Vector, tau int, got bool) {
	if g.NumEdges() > debugSpanLimit {
		return
	}
	if want := referencePartitionable(g, target, tau); want != got {
		panic(fmt.Sprintf("cycles debug: Partitionable = %v, m-bit reference = %v (n=%d m=%d tau=%d)",
			got, want, g.NumNodes(), g.NumEdges(), tau))
	}
}
