package cycles

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcc/internal/graph"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/span_golden.txt from this build")

// spanGoldenPath holds the span engine end states TestSpanGolden compares
// against. Regenerate (with -update-golden) only for a deliberate change
// of what the engine computes, and say so.
var spanGoldenPath = filepath.Join("testdata", "span_golden.txt")

// spanGoldenGraphs returns the fixed inputs of TestSpanGolden: unit-disk
// patches from sparse to dense, random connected graphs, and square and
// triangulated grids with holes, whose cycle spaces keep more than 64
// classes after the triangle pass.
func spanGoldenGraphs() []*graph.Graph {
	r := rand.New(rand.NewSource(26))
	var gs []*graph.Graph
	for _, n := range []int{20, 40, 80, 160, 320} {
		for _, deg := range []float64{5, 8, 14, 25} {
			gs = append(gs, udgPatch(r, n, deg))
		}
	}
	for i := 0; i < 8; i++ {
		gs = append(gs, randomConnected(r, 10+r.Intn(30), 0.05+0.2*r.Float64()))
	}
	holes := []graph.NodeID{26, 27, 40, 41, 88, 101, 102, 115}
	gs = append(gs, graph.Grid(14, 14), graph.Grid(14, 14).DeleteVertices(holes),
		graph.TriangulatedGrid(14, 14).DeleteVertices(holes))
	return gs
}

// TestSpanGolden pins the span engine's end state on fixed graphs: for the
// 2-core of each input at τ 3–8, the verdict, the final rank (union-find
// merges plus residue echelon), a hash of the class partition and of the
// deferred images, and the unspanned cycle of a "no" must equal the
// recorded line.
func TestSpanGolden(t *testing.T) {
	var w bytes.Buffer
	ws := NewWorkspace()
	for gi, g := range spanGoldenGraphs() {
		core := g.TwoCore()
		for tau := 3; tau <= 8; tau++ {
			ok := ws.spansAll(core, tau)
			part := sha256.New()
			for c := 0; c <= ws.nu; c++ {
				part.Write(binary.AppendUvarint(nil, uint64(ws.find(int32(c)))))
			}
			def := sha256.New()
			for _, x := range ws.def {
				def.Write(binary.AppendUvarint(nil, uint64(x)))
			}
			var cyc []graph.NodeID
			if !ok {
				cyc = ws.UnspannedCycle()
			}
			fmt.Fprintf(&w, "graph=%d n=%d m=%d tau=%d nu=%d spanned=%v rank=%d merges=%d partition=%x deferred=%x cycle=%v\n",
				gi, core.NumNodes(), core.NumEdges(), tau, ws.nu, ok, ws.rank+ws.ech.Rank(), ws.rank,
				part.Sum(nil)[:8], def.Sum(nil)[:8], cyc)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(spanGoldenPath, w.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(spanGoldenPath)
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
			t.Fatalf("line %d differs from %s:\ngot:  %s\nwant: %s", i+1, spanGoldenPath, g, e)
		}
	}
}
