package graph

// ForEachTriangle enumerates each 3-clique of g once as an edge-index
// triple, stopping early when fn returns false. Every edge {u,v} with
// u < v is visited from u's adjacency, and the parts of the sorted
// adjacency lists of u and v above v are merge-intersected: a triangle is
// reported at its common neighbour w > v only, so each triangle is seen
// exactly once. Edges are sorted by (U,V), so walking each u's adjacency
// above u, u ascending, visits them in edge-index order, and the
// triangles come in increasing order of their lowest edge index.
//
// Triangles are the first generators the short-cycle span inserts (see
// internal/cycles), which makes this a hot path; the merge works entirely
// on the dense internal arrays and performs no allocation.
func (g *Graph) ForEachTriangle(fn func(e1, e2, e3 int32) bool) {
	for ui, au := range g.adj {
		aeu := g.adjEdge[ui]
		// The neighbours above u are a suffix of its sorted adjacency.
		for i := above(au, int32(ui)); i < len(au); i++ {
			vi := au[i]
			av, aev := g.adj[vi], g.adjEdge[vi]
			a, b := i+1, above(av, vi)
			for a < len(au) && b < len(av) {
				switch {
				case au[a] < av[b]:
					a++
				case au[a] > av[b]:
					b++
				default:
					if !fn(aeu[i], aeu[a], aev[b]) {
						return
					}
					a++
					b++
				}
			}
		}
	}
}

// above returns the position of the first entry of the sorted list adj
// greater than x.
func above(adj []int32, x int32) int {
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if adj[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
