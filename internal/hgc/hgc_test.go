package hgc

import (
	"math/rand"
	"slices"
	"testing"

	"dcc/internal/core"
	"dcc/internal/cycles"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/nets"
)

func TestVerifyKnownGraphs(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"filled triangle", graph.Complete(3), true},
		{"hollow hexagon", graph.Cycle(6), false},
		{"triangulated grid", graph.TriangulatedGrid(5, 5), true},
		{"plain grid", graph.Grid(4, 4), false},
		{"K5", graph.Complete(5), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Verify(tt.g, nil); got != tt.want {
				t.Fatalf("Verify = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestVerifyMobiusFalsePositive is the paper's Figure 1: the möbius
// network is fully covered (its boundary is 3-partitionable, accepted by
// DCC), but the homology criterion reports a hole.
func TestVerifyMobiusFalsePositive(t *testing.T) {
	g, boundary := nets.Mobius()
	if Verify(g, nil) {
		t.Fatal("HGC should report a (phantom) hole on the möbius network")
	}
	outer, err := cycles.FromVertices(g, boundary)
	if err != nil {
		t.Fatal(err)
	}
	if !cycles.Partitionable(g, outer.Vector(g.NumEdges()), 3) {
		t.Fatal("DCC criterion should accept the möbius network")
	}
}

// TestVerifyConedInnerBoundary checks the fenced criterion: Verify on
// the graph with its fences coned, and the H1 rank of that cone.
//
//   - A carved triangulated grid (hexagonal hole around node 14) has a
//     non-trivial absolute H1, but coning the declared inner boundary
//     makes the criterion pass.
//   - A triangulated annulus has H1 = Z/2, so the absolute criterion
//     detects the inner hole. Its inner and outer boundary classes are
//     homologous, hence coning either boundary kills the class. That is
//     why hole detection must use absolute H1 and cone only the
//     boundaries declared as not requiring coverage.
func TestVerifyConedInnerBoundary(t *testing.T) {
	carved := graph.TriangulatedGrid(6, 6).DeleteVertices([]graph.NodeID{14})
	hexagon := []graph.NodeID{7, 8, 15, 21, 20, 13}
	ann, inner, outer := annulus()
	tests := []struct {
		name   string
		g      *graph.Graph
		fences [][]graph.NodeID
		rank   int
	}{
		{"carved grid", carved, nil, 1},
		{"carved grid, hexagon coned", carved, [][]graph.NodeID{hexagon}, 0},
		{"annulus", ann, nil, 1},
		{"annulus, outer coned", ann, [][]graph.NodeID{outer}, 0},
		{"annulus, inner coned", ann, [][]graph.NodeID{inner}, 0},
		{"annulus, both coned by one apex", ann, [][]graph.NodeID{append(slices.Clone(outer), inner...)}, 0},
		{"annulus, each coned", ann, [][]graph.NodeID{inner, outer}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got, want := Verify(tt.g, tt.fences), tt.rank == 0; got != want {
				t.Fatalf("Verify = %v, want %v", got, want)
			}
			if got := cycles.Corank(tt.g.Cone(tt.fences), 3); got != tt.rank {
				t.Fatalf("H1 rank = %d, want %d", got, tt.rank)
			}
		})
	}
}

// annulus builds a triangulated annulus: inner square 0..3, outer octagon
// 4..11, and a strip between them whose triangles are the graph's
// 3-cliques.
func annulus() (g *graph.Graph, inner, outer []graph.NodeID) {
	inner = []graph.NodeID{0, 1, 2, 3}
	outer = []graph.NodeID{4, 5, 6, 7, 8, 9, 10, 11}
	b := graph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddEdge(inner[i], inner[(i+1)%4])
	}
	for j := 0; j < 8; j++ {
		// Outer vertices j and j+1 both see inner vertex j/2; where the
		// strip turns a corner, j+1 also sees the next inner vertex.
		in, inNext := inner[j/2], inner[((j+1)/2)%4]
		b.AddEdge(outer[j], outer[(j+1)%8])
		b.AddEdge(outer[j], in)
		b.AddEdge(outer[(j+1)%8], in)
		if in != inNext {
			b.AddEdge(outer[(j+1)%8], inNext)
		}
	}
	return b.MustBuild(), inner, outer
}

// denseNet mirrors the construction in the core tests.
func denseNet(t *testing.T, seed int64, rows, cols int, radius float64) core.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rect := geom.Rect{MaxX: float64(cols), MaxY: float64(rows)}
	pts := geom.PerturbedGrid(rng, rows, cols, rect, 0.15)
	g := geom.UDG(pts, radius)
	if !g.IsConnected() {
		t.Fatal("test network disconnected")
	}
	var order []graph.NodeID
	for c := 0; c < cols; c++ {
		order = append(order, graph.NodeID(c))
	}
	for r := 1; r < rows; r++ {
		order = append(order, graph.NodeID(r*cols+cols-1))
	}
	for c := cols - 2; c >= 0; c-- {
		order = append(order, graph.NodeID((rows-1)*cols+c))
	}
	for r := rows - 2; r >= 1; r-- {
		order = append(order, graph.NodeID(r*cols))
	}
	b := make(map[graph.NodeID]bool, len(order))
	for _, v := range order {
		b[v] = true
	}
	net := core.Network{G: g, Boundary: b, BoundaryCycles: [][]graph.NodeID{order}}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestScheduleProducesVerifiedSet(t *testing.T) {
	net := denseNet(t, 80, 7, 7, 1.9)
	res, err := Schedule(net, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HomologyOK {
		t.Fatal("scheduled set fails homology verification")
	}
	if len(res.Deleted) == 0 {
		t.Fatal("no deletions on a dense network")
	}
	// Boundary preserved.
	for v := range net.Boundary {
		if !res.Final.HasNode(v) {
			t.Fatalf("boundary node %d deleted", v)
		}
	}
}

func TestScheduleExactSmall(t *testing.T) {
	net := denseNet(t, 81, 5, 5, 1.9)
	res, err := ScheduleExact(net, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HomologyOK {
		t.Fatal("exact scheduler returned unverified set")
	}
	// Exhaustive: no further single deletion can preserve the criterion.
	for _, v := range res.KeptInternal {
		if Verify(res.Final.DeleteVertices([]graph.NodeID{v}), nil) {
			t.Fatalf("node %d still deletable under the homology criterion", v)
		}
	}
}

func TestScheduleVsExactComparable(t *testing.T) {
	net := denseNet(t, 82, 5, 5, 1.9)
	fast, err := Schedule(net, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ScheduleExact(net, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	nf, ne := len(fast.KeptInternal), len(exact.KeptInternal)
	if ne == 0 {
		t.Skip("degenerate exact result")
	}
	ratio := float64(nf) / float64(ne)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("pattern scheduler kept %d vs exact %d", nf, ne)
	}
}

func TestScheduleExactRejectsUncoveredInput(t *testing.T) {
	// A hollow grid fails the homology criterion up front.
	g := graph.Grid(4, 4)
	var order []graph.NodeID
	for c := 0; c < 4; c++ {
		order = append(order, graph.NodeID(c))
	}
	for r := 1; r < 4; r++ {
		order = append(order, graph.NodeID(r*4+3))
	}
	for c := 2; c >= 0; c-- {
		order = append(order, graph.NodeID(12+c))
	}
	for r := 2; r >= 1; r-- {
		order = append(order, graph.NodeID(r*4))
	}
	b := make(map[graph.NodeID]bool)
	for _, v := range order {
		b[v] = true
	}
	net := core.Network{G: g, Boundary: b, BoundaryCycles: [][]graph.NodeID{order}}
	if _, err := ScheduleExact(net, Options{}); err == nil {
		t.Fatal("hollow grid accepted by exact HGC")
	}
}

// TestHGCKeepsMoreThanLargerTau is the motivation for Figure 4: HGC is
// stuck at triangle granularity, so a τ=5 DCC schedule on the same network
// retains no more (and typically fewer) nodes.
func TestHGCKeepsMoreThanLargerTau(t *testing.T) {
	net := denseNet(t, 83, 8, 8, 1.9)
	hgcRes, err := Schedule(net, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	dccRes, err := core.Schedule(net, core.Options{Tau: 5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(dccRes.KeptInternal) > len(hgcRes.KeptInternal) {
		t.Fatalf("DCC τ=5 kept %d > HGC %d", len(dccRes.KeptInternal), len(hgcRes.KeptInternal))
	}
}
