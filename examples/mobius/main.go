// Möbius example (paper Figure 1): the separating instance between the
// cycle-partition criterion and the homology-group criterion.
//
// The network's connectivity forms a möbius band: twelve nodes, an outer
// boundary 8-cycle, and sixteen connectivity triangles wrapping twice
// around a core 4-cycle. Every point under the band is covered (for
// γ ≤ √3), and indeed the outer boundary is the GF(2) sum of all sixteen
// triangles — so the cycle-partition criterion certifies 3-confine (full
// blanket) coverage. The first homology group, however, has the type of a
// circle: the homology criterion reports a hole that does not exist.
package main

import (
	"fmt"
	"log"

	"dcc/internal/cycles"
	"dcc/internal/graph"
	"dcc/internal/hgc"
	"dcc/internal/nets"
)

func main() {
	g, boundaryOrder := nets.Mobius()
	triangles := 0
	g.ForEachTriangle(func(_, _, _ int32) bool {
		triangles++
		return true
	})
	fmt.Printf("möbius network: %d nodes, %d links, %d triangles\n",
		g.NumNodes(), g.NumEdges(), triangles)

	// Homology-group criterion (HGC, Ghrist et al.): H1 of the Rips
	// complex, whose rank is the codimension of the triangles' span.
	fmt.Printf("H1 rank over GF(2): %d → HGC verdict: covered=%v\n",
		cycles.Corank(g, 3), hgc.Verify(g, nil))

	// Cycle-partition criterion (this paper).
	outer, err := cycles.FromVertices(g, boundaryOrder)
	if err != nil {
		log.Fatal(err)
	}
	target := outer.Vector(g.NumEdges())
	fmt.Printf("cycle-partition verdict: covered=%v\n",
		cycles.Partitionable(g, target, 3))

	// Exhibit the witness: an explicit 3-partition of the outer boundary.
	part, err := cycles.FindPartition(g, target, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("explicit cycle partition of the outer boundary: %d triangles\n", len(part))
	for i, c := range part {
		order, err := cycles.VertexOrder(g, c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  triangle %2d: %v\n", i+1, names(order))
	}

	fmt.Println("\nwhy HGC fails: the core circle cannot shrink across the band —")
	core4 := []graph.NodeID{8, 9, 10, 11}
	c, err := cycles.FromVertices(g, core4)
	if err != nil {
		log.Fatal(err)
	}
	_, err = cycles.FindPartition(g, c.Vector(g.NumEdges()), 3)
	fmt.Printf("core circle %v 3-partitionable: %v\n", names(core4), err == nil)
}

// names maps node IDs to the paper's labels: 0..7 → a..h, 8..11 → 1..4.
func names(ids []graph.NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		if id < 8 {
			out[i] = string(rune('a' + id))
		} else {
			out[i] = fmt.Sprint(int(id) - 7)
		}
	}
	return out
}
