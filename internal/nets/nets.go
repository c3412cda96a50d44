// Package nets provides small, hand-constructed example networks used by
// tests, examples and documentation — most importantly the möbius-band
// network of the paper's Figure 1, the separating example between the
// cycle-partition criterion and the homology-group criterion.
package nets

import "dcc/internal/graph"

// Mobius returns the möbius-band network of Figure 1: an outer boundary
// 8-cycle (nodes 0..7, the paper's a..h), a core 4-cycle (nodes 8..11, the
// paper's 1..4), and a strip of 16 triangles that wraps around the core
// twice. The 16 triangles are exactly the graph's 3-cliques, so the strip
// is the Rips 2-complex of the graph. The outer boundary is the GF(2) sum
// of all triangles (hence 3-partitionable), yet the complex has the
// homology type of a circle (H1 ≅ Z/2, cycles.Corank(g, 3) = 1), so the
// homology-group criterion wrongly reports a hole.
//
// It returns the connectivity graph and the outer boundary vertex order.
func Mobius() (*graph.Graph, []graph.NodeID) {
	outer := func(j int) graph.NodeID { return graph.NodeID(j % 8) }
	core := func(i int) graph.NodeID { return graph.NodeID(8 + i%4) }

	b := graph.NewBuilder()
	for j := 0; j < 8; j++ {
		b.AddEdge(outer(j), outer(j+1)) // outer boundary
		b.AddEdge(outer(j), core(j))    // spoke
		b.AddEdge(outer(j+1), core(j))  // diagonal
	}
	for i := 0; i < 4; i++ {
		b.AddEdge(core(i), core(i+1)) // core circle
	}

	boundary := make([]graph.NodeID, 8)
	for j := 0; j < 8; j++ {
		boundary[j] = outer(j)
	}
	return b.MustBuild(), boundary
}
