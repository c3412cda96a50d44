package hgc_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcc"
	"dcc/internal/cycles"
	"dcc/internal/graph"
	"dcc/internal/hgc"
	"dcc/internal/nets"
	"dcc/internal/scenario"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/verify_golden.txt from this build")

// verifyGoldenPath holds the HGC verdicts and H1 ranks TestVerifyGolden
// compares against. Regenerate (with -update-golden) only for a
// deliberate change of what the homology baseline answers, and say so.
var verifyGoldenPath = filepath.Join("testdata", "verify_golden.txt")

// verifyInput is one homology question: a connectivity graph and the
// inner boundaries (fences) that Verify cones.
type verifyInput struct {
	name  string
	g     *graph.Graph
	inner [][]graph.NodeID
}

// verifyGoldenInputs returns the fixed inputs of TestVerifyGolden: every
// scenario-catalogue graph with and without its inner cycles, the möbius
// network, the carved triangulated grid with and without its hexagon,
// seeded random graphs of 3–24 nodes with 0–2 fences over their own
// nodes, and the ScheduleHGC finals of three deployments with obstacles.
func verifyGoldenInputs(t *testing.T) []verifyInput {
	t.Helper()
	var in []verifyInput
	cat, err := scenario.Catalogue()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range cat {
		in = append(in,
			verifyInput{sc.Name, sc.Dep.G, nil},
			verifyInput{sc.Name + "+inner", sc.Dep.G, sc.Dep.InnerCycles})
	}
	mobius, _ := nets.Mobius()
	in = append(in, verifyInput{"mobius", mobius, nil})
	carved := graph.TriangulatedGrid(6, 6).DeleteVertices([]graph.NodeID{14})
	in = append(in,
		verifyInput{"carved", carved, nil},
		verifyInput{"carved+hexagon", carved, [][]graph.NodeID{{7, 8, 15, 21, 20, 13}}})

	r := rand.New(rand.NewSource(27))
	for i := 0; i < 200; i++ {
		n := 3 + r.Intn(22)
		p := 0.1 + 0.6*r.Float64()
		b := graph.NewBuilder()
		for u := 0; u < n; u++ {
			b.AddNode(graph.NodeID(u))
			for v := u + 1; v < n; v++ {
				if r.Float64() < p {
					b.AddEdge(graph.NodeID(u), graph.NodeID(v))
				}
			}
		}
		var fences [][]graph.NodeID
		for f := r.Intn(3); f > 0; f-- {
			var fence []graph.NodeID
			for _, v := range r.Perm(n)[:1+r.Intn(n)] {
				fence = append(fence, graph.NodeID(v))
			}
			fences = append(fences, fence)
		}
		in = append(in, verifyInput{fmt.Sprintf("random/%d", i), b.MustBuild(), fences})
	}

	obstacles := [][]dcc.Circle{
		{{Center: dcc.Point{X: 2.2, Y: 2.2}, R: 0.7}},
		{{Center: dcc.Point{X: 2.6, Y: 2.0}, R: 0.5}},
		{{Center: dcc.Point{X: 1.5, Y: 1.5}, R: 0.5}, {Center: dcc.Point{X: 3.3, Y: 3.3}, R: 0.5}},
	}
	for i, obs := range obstacles {
		seed := int64(i + 1)
		dep, err := dcc.Deploy(dcc.DeployOptions{Nodes: 150, Seed: seed, Obstacles: obs})
		if err != nil {
			t.Fatal(err)
		}
		res, err := dep.ScheduleHGC(seed)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, verifyInput{fmt.Sprintf("obstacles/%d/final", seed), res.Final, dep.InnerCycles})
	}
	return in
}

// TestVerifyGolden pins the homology baseline's answers on fixed inputs:
// for each, the Verify verdict and the H1 rank of the coned Rips complex
// (cycles.Corank at τ = 3 on the coned graph) must equal the recorded
// line, and the verdict must be "covered" exactly when the rank is 0. The
// file was recorded with a separate simplicial-complex implementation (a
// Rips complex, its ∂2 echelon and fence coning). Under -tags dccdebug
// every span verdict on a 2-core of at most 1,000 edges, and every rank on
// a graph of at most 1,000 edges, is also checked against the m-bit
// reference elimination.
func TestVerifyGolden(t *testing.T) {
	var w bytes.Buffer
	for _, in := range verifyGoldenInputs(t) {
		ok, rank := hgc.Verify(in.g, in.inner), cycles.Corank(in.g.Cone(in.inner), 3)
		if ok != (rank == 0) {
			t.Errorf("%s: Verify = %v with H1 rank %d", in.name, ok, rank)
		}
		fmt.Fprintf(&w, "%s n=%d m=%d fences=%d verify=%v h1=%d\n",
			in.name, in.g.NumNodes(), in.g.NumEdges(), len(in.inner), ok, rank)
	}
	if *updateGolden {
		if err := os.WriteFile(verifyGoldenPath, w.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(verifyGoldenPath)
	if err != nil {
		t.Fatalf("%v (record with -update-golden)", err)
	}
	got, exp := strings.Split(w.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("line %d differs from %s:\ngot:  %s\nwant: %s", i+1, verifyGoldenPath, g, e)
		}
	}
}
