// Package hotdep is a callee package for the hotalloc corpus: its Helper
// is reachable from the hotmain root across the package boundary.
package hotdep

// Scratch mimics the real reusable-buffer carriers (graph.Scratch,
// cycles.Workspace): appends into its fields are amortized by
// construction.
type Scratch struct {
	Queue []int32
}

// Helper is hot via hotmain.Root. The raw make is flagged; the appends
// provably target the scratch carrier and are not.
func Helper(s *Scratch, n int) int {
	tmp := make([]int32, n) // want `make of \[\]int32 in hotdep.Helper, which is reachable from a //lint:hotpath root`
	s.Queue = s.Queue[:0]
	for i := 0; i < n; i++ {
		s.Queue = append(s.Queue, int32(i))
		tmp[i] = int32(i)
	}
	queue := s.Queue[:0]
	queue = append(queue, tmp...)
	return len(queue)
}

// GraphBuf mimics graph.GraphBuf, the reusable storage a graph is built
// into: allocations assigned to its fields and appends into them are
// amortized by construction.
type GraphBuf struct {
	IDs []int
}

// Graph is not a carrier: storage built into it is not amortized.
type Graph struct {
	IDs []int
}

// BuildInto is hot via hotmain.Root. Growing the GraphBuf's storage is
// not flagged; the same build into a plain Graph is.
func BuildInto(b *GraphBuf, g *Graph, n int) int {
	if cap(b.IDs) < n {
		b.IDs = make([]int, 0, n)
	}
	b.IDs = append(b.IDs[:0], n)
	g.IDs = make([]int, 0, n)    // want `make of \[\]int in hotdep.BuildInto, which is reachable from a //lint:hotpath root`
	g.IDs = append(g.IDs[:0], n) // want `append of g.IDs\[:0\] in hotdep.BuildInto`
	return len(b.IDs) + len(g.IDs)
}

// NewBuf allocates caller-owned storage by contract: the whole function
// is waived from the declaration line.
//
//lint:ignore hotalloc constructor of caller-owned storage, cold by contract
func NewBuf(n int) []int {
	return make([]int, n)
}

// Cold is never reached from a root: its allocations are fine.
func Cold() []int {
	return []int{1, 2, 3}
}
