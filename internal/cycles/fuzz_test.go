package cycles

import (
	"testing"

	"dcc/internal/bitvec"
	"dcc/internal/graph"
)

// fuzzGraph decodes a fuzz input: data[0] picks n ∈ [3, 24] nodes, data[1]
// picks τ ∈ [3, 8], and the bits of data[3:] (bit i of byte j is pair
// 8j+i, zero past the end) select edges among the pairs u < v in
// row-major order. data[2] is left to the target.
func fuzzGraph(data []byte) (*graph.Graph, int) {
	n, tau := 3, 3
	if len(data) > 0 {
		n += int(data[0]) % 22
	}
	if len(data) > 1 {
		tau += int(data[1]) % 6
	}
	b := graph.NewBuilder()
	pair := 0
	for u := 0; u < n; u++ {
		b.AddNode(graph.NodeID(u))
		for v := u + 1; v < n; v++ {
			if j := 3 + pair/8; j < len(data) && data[j]&(1<<(pair%8)) != 0 {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
			pair++
		}
	}
	return b.MustBuild(), tau
}

// fuzzTarget derives a target from mask: the sum of up to seven Horton
// candidates spread over the length-sorted candidate list (bit i picks
// the one at i/7 of the way), with one edge flipped when the high bit is
// set, which leaves two odd-degree vertices.
func fuzzTarget(g *graph.Graph, mask byte) bitvec.Vector {
	m := g.NumEdges()
	cands := Candidates(g, -1)
	v := bitvec.New(m)
	for i := 0; i < 7; i++ {
		if mask&(1<<i) != 0 && len(cands) > 0 {
			v.Xor(cands[i*len(cands)/7].Vector(m))
		}
	}
	if mask&0x80 != 0 && m > 0 {
		v.Flip(int(mask) % m)
	}
	return v
}

// FuzzShortSpan checks the co-tree span engine against the m-bit
// reference on arbitrary graphs of up to 24 nodes: SpannedByShortWS on a
// Workspace reused across inputs, and Partitionable of a derived target,
// answer exactly as referenceSpan does. The fan certificate is checked on
// its own too: every graph it certifies, the reference finds spanned.
func FuzzShortSpan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0x03, 0xff, 0xff})
	f.Add([]byte{21, 2, 0x55, 0x12, 0x48, 0x91, 0x24, 0x42, 0x18, 0x81, 0x33, 0xcc})
	ws := NewWorkspace()
	ech, s := bitvec.NewEchelon(0), graph.NewScratch(nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, tau := fuzzGraph(data)
		want := referenceSpan(g, tau, ech, s)
		if got := SpannedByShortWS(g, tau, ws); got != want {
			t.Fatalf("n=%d m=%d tau=%d: SpannedByShortWS = %v, reference %v", g.NumNodes(), g.NumEdges(), tau, got, want)
		}
		if g.FanCertified(s, tau) && !want {
			t.Fatalf("n=%d m=%d tau=%d: fan certificate holds, reference finds no span", g.NumNodes(), g.NumEdges(), tau)
		}
		var mask byte
		if len(data) > 2 {
			mask = data[2]
		}
		target := fuzzTarget(g, mask)
		if got, want := Partitionable(g, target, tau), referencePartitionable(g, target, tau); got != want {
			t.Fatalf("n=%d m=%d tau=%d target %v: Partitionable = %v, reference %v",
				g.NumNodes(), g.NumEdges(), tau, target.Indices(), got, want)
		}
	})
}
