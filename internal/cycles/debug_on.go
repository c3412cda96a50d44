//go:build dccdebug

package cycles

import (
	"fmt"

	"dcc/internal/bitvec"
	"dcc/internal/graph"
)

// Deep assertions for the span engine (-tags dccdebug): every span verdict
// and every membership answer must equal the m-bit elimination of
// referenceSpan, which shares no code with the co-tree engine beyond the
// triangle and Horton enumerations. The reference costs what the verdict
// cost before the engine, so the check is gated to graphs of at most
// debugSpanLimit edges (the 2-core, for a span verdict) to keep dccdebug
// test runs tractable. A span the fan certificate proves is also checked
// by the co-tree engine, at any size.
const debugSpanLimit = 1000

// debugState is the reference's echelon, reused so that a warm Workspace
// stays allocation-free with the check armed.
type debugState struct {
	ech *bitvec.Echelon
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
// g: the co-tree engine, whatever g's size, and the reference, within its
// limit, must find it too. It leaves the engine's state in ws.
func debugCheckCertified(ws *Workspace, g *graph.Graph, tau int) {
	core := g.TwoCoreInto(&ws.core, ws.s)
	if !ws.spansAll(core, tau) {
		panic(fmt.Sprintf("cycles debug: fan certificate holds, co-tree engine finds no span (n=%d m=%d tau=%d)",
			g.NumNodes(), g.NumEdges(), tau))
	}
	debugCheckSpan(ws, core, tau, true)
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
