package cycles

import (
	"dcc/internal/bitvec"
	"dcc/internal/graph"
)

// referenceSpan is the elimination the co-tree engine replaced, kept as
// its independent oracle for the tests and the dccdebug cross-check: ech
// is reset to g's edge space and takes the triangles, then the Horton
// candidates of length ≤ tau, as m-bit incidence vectors until its rank
// reaches ν = m − n + c. It reports whether it did; either way ech then
// spans exactly the cycles of length ≤ tau. A warm ech and s make it
// allocation-free.
func referenceSpan(g *graph.Graph, tau int, ech *bitvec.Echelon, s *graph.Scratch) bool {
	nu := g.CycleSpaceDimWith(s)
	ech.Reset(g.NumEdges())
	if nu == 0 || tau < 3 {
		return nu == 0
	}
	v := ech.TakeScratch()
	full := false
	insert := func(edges []int32) bool {
		for _, e := range edges {
			v.Set(int(e), true)
		}
		if _, taken := ech.InsertOwned(v); taken {
			if full = ech.Rank() == nu; full {
				return false
			}
			v = ech.TakeScratch()
		}
		// A rejected scratch comes back zeroed by the reduction.
		return true
	}
	g.ForEachTriangle(func(e1, e2, e3 int32) bool {
		t := [3]int32{e1, e2, e3}
		return insert(t[:])
	})
	if !full && tau > 3 {
		g.ForEachHortonCandidateWith(s, tau, nil, func(_ graph.NodeID, _ int, edges []int32) bool {
			return insert(edges)
		})
	}
	if !full {
		ech.Recycle(v)
	}
	return full
}

// referencePartitionable is Partitionable decided by referenceSpan.
func referencePartitionable(g *graph.Graph, target bitvec.Vector, tau int) bool {
	ech := bitvec.NewEchelon(0)
	referenceSpan(g, tau, ech, graph.NewScratch(nil))
	return ech.Spans(target)
}
