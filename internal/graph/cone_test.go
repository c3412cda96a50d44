package graph_test

import (
	"reflect"
	"testing"

	"dcc"
	"dcc/internal/graph"
)

// TestConeMatchesRepairBuilder checks Cone on a deployment with two
// obstacles against the Builder construction that filled its inner rings
// before Cone existed: every node and edge of the graph, plus per ring a
// fresh apex, numbered up from the largest ID + 1, joined to the ring.
func TestConeMatchesRepairBuilder(t *testing.T) {
	dep, err := dcc.Deploy(dcc.DeployOptions{Nodes: 150, Seed: 3, Obstacles: []dcc.Circle{
		{Center: dcc.Point{X: 1.5, Y: 1.5}, R: 0.5},
		{Center: dcc.Point{X: 3.3, Y: 3.3}, R: 0.5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.InnerCycles) != 2 {
		t.Fatalf("inner cycles = %d, want 2", len(dep.InnerCycles))
	}
	b := graph.NewBuilder()
	for _, v := range dep.G.Nodes() {
		b.AddNode(v)
	}
	for _, e := range dep.G.Edges() {
		b.AddEdge(e.U, e.V)
	}
	next := graph.NodeID(0)
	for _, v := range dep.G.Nodes() {
		if v >= next {
			next = v + 1
		}
	}
	for _, ring := range dep.InnerCycles {
		for _, v := range ring {
			b.AddEdge(next, v)
		}
		next++
	}
	want := b.MustBuild()
	got := dep.G.Cone(dep.InnerCycles)
	if !reflect.DeepEqual(got.Nodes(), want.Nodes()) || !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("Cone: %d nodes, %d edges; Builder: %d nodes, %d edges",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
}
