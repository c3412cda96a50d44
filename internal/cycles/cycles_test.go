package cycles

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"dcc/internal/bitvec"
	"dcc/internal/graph"
	"dcc/internal/nets"
)

func mustFromVertices(t *testing.T, g *graph.Graph, verts []graph.NodeID) Cycle {
	t.Helper()
	c, err := FromVertices(g, verts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCycleDedup(t *testing.T) {
	c := NewCycle([]int{3, 1, 3, 2, 1})
	if got := c.EdgeIndices(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("EdgeIndices = %v", got)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestFromVerticesAndVector(t *testing.T) {
	g := graph.Cycle(4)
	c := mustFromVertices(t, g, []graph.NodeID{0, 1, 2, 3})
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	v := c.Vector(g.NumEdges())
	if v.PopCount() != 4 {
		t.Fatalf("vector weight %d, want 4", v.PopCount())
	}
	if _, err := FromVertices(g, []graph.NodeID{0, 1}); err == nil {
		t.Fatal("2-vertex cycle accepted")
	}
	if _, err := FromVertices(g, []graph.NodeID{0, 1, 3}); err == nil {
		t.Fatal("cycle with missing edge accepted")
	}
}

func TestSumCancels(t *testing.T) {
	// Two triangles sharing an edge sum to the 4-cycle around them.
	b := graph.NewBuilder()
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.AddEdge(0, 2)
	g := b.MustBuild()
	t1 := mustFromVertices(t, g, []graph.NodeID{0, 1, 2})
	t2 := mustFromVertices(t, g, []graph.NodeID{0, 2, 3})
	outer := mustFromVertices(t, g, []graph.NodeID{0, 1, 2, 3})
	if !Sum(g.NumEdges(), t1, t2).Equal(outer.Vector(g.NumEdges())) {
		t.Fatal("triangle sum does not equal outer 4-cycle")
	}
	if !Sum(g.NumEdges(), t1, t1).IsZero() {
		t.Fatal("C ⊕ C != 0")
	}
}

func TestVertexOrderRoundTrip(t *testing.T) {
	g := graph.Cycle(7)
	c := mustFromVertices(t, g, []graph.NodeID{0, 1, 2, 3, 4, 5, 6})
	order, err := VertexOrder(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 7 {
		t.Fatalf("order length %d, want 7", len(order))
	}
	// Walking the order must reproduce the same edge set.
	c2, err := FromVertices(g, order)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.EdgeIndices(), c2.EdgeIndices()) {
		t.Fatal("vertex order does not reproduce cycle")
	}
}

func TestVertexOrderRejectsNonCycle(t *testing.T) {
	g := graph.Complete(5)
	// Edge set {0-1, 1-2, 2-3}: a path, not a cycle.
	e1, _ := g.EdgeIndex(0, 1)
	e2, _ := g.EdgeIndex(1, 2)
	e3, _ := g.EdgeIndex(2, 3)
	if _, err := VertexOrder(g, NewCycle([]int{e1, e2, e3})); err == nil {
		t.Fatal("path accepted as cycle")
	}
	// Two disjoint triangles in K6.
	g6 := graph.Complete(6)
	var idx []int
	for _, pair := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		e, _ := g6.EdgeIndex(pair[0], pair[1])
		idx = append(idx, e)
	}
	if _, err := VertexOrder(g6, NewCycle(idx)); err == nil {
		t.Fatal("disjoint union of cycles accepted as simple cycle")
	}
}

func TestCandidatesTriangle(t *testing.T) {
	g := graph.Complete(3)
	cands := Candidates(g, -1)
	if len(cands) == 0 {
		t.Fatal("no candidates for triangle")
	}
	for _, c := range cands {
		if c.Len() != 3 {
			t.Fatalf("triangle candidate of length %d", c.Len())
		}
	}
}

func TestCandidatesRespectMaxLen(t *testing.T) {
	g := graph.Cycle(8)
	if cands := Candidates(g, 7); len(cands) != 0 {
		t.Fatalf("got %d candidates below the girth", len(cands))
	}
	cands := Candidates(g, 8)
	if len(cands) == 0 {
		t.Fatal("8-cycle candidate missing at maxLen=8")
	}
	for _, c := range cands {
		if c.Len() > 8 {
			t.Fatalf("candidate of length %d exceeds bound", c.Len())
		}
	}
}

func TestCandidatesSortedByLength(t *testing.T) {
	g := graph.TriangulatedGrid(4, 4)
	cands := Candidates(g, -1)
	for i := 1; i < len(cands); i++ {
		if cands[i].Len() < cands[i-1].Len() {
			t.Fatal("candidates not sorted by length")
		}
	}
}

func TestMCBKnownGraphs(t *testing.T) {
	tests := []struct {
		name     string
		g        *graph.Graph
		nu       int
		min, max int
	}{
		{"triangle", graph.Complete(3), 1, 3, 3},
		{"K4", graph.Complete(4), 3, 3, 3},
		{"K5", graph.Complete(5), 6, 3, 3},
		{"C6", graph.Cycle(6), 1, 6, 6},
		{"grid3x3", graph.Grid(3, 3), 4, 4, 4},
		{"triangulated grid", graph.TriangulatedGrid(3, 3), 8, 3, 3},
		{"theta", thetaGraph(), 2, 4, 5},
		{"petersen", petersen(), 6, 5, 5},
		{"tree", graph.Path(6), 0, 0, 0},
		{"path5", graph.Path(5), 0, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			basis, err := MCB(tt.g)
			if err != nil {
				t.Fatal(err)
			}
			if len(basis) != tt.nu {
				t.Fatalf("|MCB| = %d, want %d", len(basis), tt.nu)
			}
			mn, mx, err := MinMaxIrreducible(tt.g)
			if err != nil {
				t.Fatal(err)
			}
			if mn != tt.min || mx != tt.max {
				t.Fatalf("MinMaxIrreducible = (%d,%d), want (%d,%d)", mn, mx, tt.min, tt.max)
			}
		})
	}
}

// thetaGraph: vertices 0 and 1 joined by three internally disjoint paths of
// lengths 2, 2 and 3. Cycle lengths: 4 (two short paths), 5, 5.
// MCB = {4, 5}.
func thetaGraph() *graph.Graph {
	b := graph.NewBuilder()
	b.AddEdge(0, 2)
	b.AddEdge(2, 1) // path A, length 2
	b.AddEdge(0, 3)
	b.AddEdge(3, 1) // path B, length 2
	b.AddEdge(0, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 1) // path C, length 3
	return b.MustBuild()
}

// petersen returns the Petersen graph (girth 5, ν = 6, all MCB cycles of
// length 5).
func petersen() *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < 5; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%5))     // outer C5
		b.AddEdge(graph.NodeID(5+i), graph.NodeID(5+(i+2)%5)) // inner pentagram
		b.AddEdge(graph.NodeID(i), graph.NodeID(5+i))         // spokes
	}
	return b.MustBuild()
}

func TestMCBIsBasis(t *testing.T) {
	g := graph.TriangulatedGrid(4, 5)
	basis, err := MCB(g)
	if err != nil {
		t.Fatal(err)
	}
	m := g.NumEdges()
	ech := bitvec.NewEchelon(m)
	for _, c := range basis {
		if !ech.Insert(c.Vector(m)) {
			t.Fatal("MCB contains dependent cycle")
		}
	}
	if ech.Rank() != g.CycleSpaceDim() {
		t.Fatalf("MCB rank %d, want %d", ech.Rank(), g.CycleSpaceDim())
	}
}

func TestMCBMinimalVsFundamental(t *testing.T) {
	// The MCB total length never exceeds that of a BFS fundamental basis.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomConnected(r, 12, 0.3)
		basis, err := MCB(g)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range basis {
			total += c.Len()
		}
		return total <= fundamentalTotal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// fundamentalTotal computes the total length of the fundamental cycle basis
// induced by a BFS tree (an independent upper bound on the MCB total).
func fundamentalTotal(g *graph.Graph) int {
	nodes := g.Nodes()
	if len(nodes) == 0 {
		return 0
	}
	tr := g.BFS(nodes[0], -1)
	total := 0
	for i := 0; i < g.NumEdges(); i++ {
		e := g.EdgeAt(i)
		if p, ok := tr.Parent(e.U); ok && p == e.V {
			continue
		}
		if p, ok := tr.Parent(e.V); ok && p == e.U {
			continue
		}
		lca, ok := tr.LCA(e.U, e.V)
		if !ok {
			continue
		}
		total += tr.Depth(e.U) + tr.Depth(e.V) - 2*tr.Depth(lca) + 1
	}
	return total
}

func TestMCBLengthMultisetInvariantUnderRelabeling(t *testing.T) {
	// Chickering et al.: every MCB has the same multiset of lengths, so the
	// multiset must be invariant under vertex relabelling.
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(r, 14, 0.25)
		perm := r.Perm(1000)
		b := graph.NewBuilder()
		for _, v := range g.Nodes() {
			b.AddNode(graph.NodeID(perm[v]))
		}
		for _, e := range g.Edges() {
			b.AddEdge(graph.NodeID(perm[e.U]), graph.NodeID(perm[e.V]))
		}
		h := b.MustBuild()
		if !reflect.DeepEqual(lengthMultiset(t, g), lengthMultiset(t, h)) {
			t.Fatal("MCB length multiset changed under relabelling")
		}
	}
}

func lengthMultiset(t *testing.T, g *graph.Graph) []int {
	t.Helper()
	basis, err := MCB(g)
	if err != nil {
		t.Fatal(err)
	}
	ls := make([]int, len(basis))
	for i, c := range basis {
		ls[i] = c.Len()
	}
	sort.Ints(ls)
	return ls
}

// TestSpannedByShort checks the span verdict and Corank together: the
// cycles of length ≤ τ span the cycle space exactly when the corank is 0.
// At τ = 3 the corank is the rank of H1 of the Rips 2-complex.
func TestSpannedByShort(t *testing.T) {
	mobius, _ := nets.Mobius()
	twoSquares, err := graph.FromEdges([]graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0},
		{U: 10, V: 11}, {U: 11, V: 12}, {U: 12, V: 13}, {U: 13, V: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		g      *graph.Graph
		tau    int
		corank int
	}{
		{"triangulated grid tau=3", graph.TriangulatedGrid(4, 4), 3, 0},
		{"plain grid tau=3", graph.Grid(4, 4), 3, 9},
		{"plain grid tau=4", graph.Grid(4, 4), 4, 0},
		{"C6 tau=2", graph.Cycle(6), 2, 1}, // no cycle is that short
		{"C6 tau=3", graph.Cycle(6), 3, 1},
		{"C6 tau=4", graph.Cycle(6), 4, 1},
		{"C6 tau=5", graph.Cycle(6), 5, 1},
		{"C6 tau=6", graph.Cycle(6), 6, 0},
		{"theta tau=4", thetaGraph(), 4, 1},
		{"theta tau=5", thetaGraph(), 5, 0},
		{"tree tau=3", graph.Path(9), 3, 0}, // empty cycle space
		{"K3 tau=3", graph.Complete(3), 3, 0},
		{"K5 tau=3", graph.Complete(5), 3, 0},
		{"two squares tau=3", twoSquares, 3, 2},
		{"two squares tau=4", twoSquares, 4, 0},
		{"mobius tau=3", mobius, 3, 1}, // the core circle
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got, want := SpannedByShort(tt.g, tt.tau), tt.corank == 0; got != want {
				t.Fatalf("SpannedByShort = %v, want %v", got, want)
			}
			if got := Corank(tt.g, tt.tau); got != tt.corank {
				t.Fatalf("Corank = %d, want %d", got, tt.corank)
			}
		})
	}
}

func TestSpannedByShortMatchesMaxIrreducible(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomConnected(r, 12, 0.25)
		_, mx, err := MinMaxIrreducible(g)
		if err != nil {
			return false
		}
		if g.CycleSpaceDim() == 0 {
			return SpannedByShort(g, 3)
		}
		// Spanned exactly from τ = max irreducible size upward.
		return !SpannedByShort(g, mx-1) && SpannedByShort(g, mx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionableGridPerimeter(t *testing.T) {
	g := graph.Grid(4, 4)
	perim := gridPerimeter(t, g, 4, 4)
	target := perim.Vector(g.NumEdges())
	if Partitionable(g, target, 3) {
		t.Fatal("grid perimeter reported 3-partitionable")
	}
	if !Partitionable(g, target, 4) {
		t.Fatal("grid perimeter not 4-partitionable")
	}
	// The perimeter is trivially partitionable by itself at τ = its length.
	if !Partitionable(g, target, perim.Len()) {
		t.Fatal("cycle not partitionable by itself")
	}
}

func gridPerimeter(t *testing.T, g *graph.Graph, rows, cols int) Cycle {
	t.Helper()
	var verts []graph.NodeID
	for c := 0; c < cols; c++ {
		verts = append(verts, graph.NodeID(c))
	}
	for r := 1; r < rows; r++ {
		verts = append(verts, graph.NodeID(r*cols+cols-1))
	}
	for c := cols - 2; c >= 0; c-- {
		verts = append(verts, graph.NodeID((rows-1)*cols+c))
	}
	for r := rows - 2; r >= 1; r-- {
		verts = append(verts, graph.NodeID(r*cols))
	}
	return mustFromVertices(t, g, verts)
}

func TestPartitionableMonotoneInTau(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomConnected(r, 12, 0.3)
		basis, err := MCB(g)
		if err != nil || len(basis) < 2 {
			return true
		}
		// Random target in the cycle space.
		var pick []Cycle
		for _, c := range basis {
			if r.Intn(2) == 1 {
				pick = append(pick, c)
			}
		}
		target := Sum(g.NumEdges(), pick...)
		prev := false
		for tau := 3; tau <= g.NumNodes(); tau++ {
			cur := Partitionable(g, target, tau)
			if prev && !cur {
				return false // must be monotone
			}
			prev = cur
		}
		// At τ = n every cycle-space vector is partitionable.
		return prev || target.IsZero()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFindPartitionGrid(t *testing.T) {
	g := graph.Grid(3, 3)
	perim := gridPerimeter(t, g, 3, 3)
	target := perim.Vector(g.NumEdges())
	part, err := FindPartition(g, target, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(part) != 4 {
		t.Fatalf("partition size %d, want 4 unit squares", len(part))
	}
	for _, c := range part {
		if c.Len() > 4 {
			t.Fatalf("partition cycle of length %d exceeds τ", c.Len())
		}
	}
	if !Sum(g.NumEdges(), part...).Equal(target) {
		t.Fatal("partition does not sum to target")
	}
}

func TestFindPartitionFailure(t *testing.T) {
	g := graph.Grid(3, 3)
	perim := gridPerimeter(t, g, 3, 3)
	_, err := FindPartition(g, perim.Vector(g.NumEdges()), 3)
	if !errors.Is(err, ErrNotPartitionable) {
		t.Fatalf("err = %v, want ErrNotPartitionable", err)
	}
}

func TestFindPartitionZeroTarget(t *testing.T) {
	g := graph.Grid(3, 3)
	part, err := FindPartition(g, bitvec.New(g.NumEdges()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(part) != 0 {
		t.Fatalf("zero target produced %d cycles", len(part))
	}
}

func TestFindPartitionAgreesWithPartitionable(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomConnected(r, 10, 0.3)
		basis, err := MCB(g)
		if err != nil {
			return false
		}
		if len(basis) == 0 {
			return true
		}
		target := Sum(g.NumEdges(), basis[r.Intn(len(basis))])
		tau := 3 + r.Intn(6)
		part, ferr := FindPartition(g, target, tau)
		ok := Partitionable(g, target, tau)
		if ok != (ferr == nil) {
			return false
		}
		if ferr == nil && !Sum(g.NumEdges(), part...).Equal(target) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomConnected returns a connected random graph: a random spanning tree
// plus G(n,p) extra edges.
func randomConnected(r *rand.Rand, n int, p float64) *graph.Graph {
	b := graph.NewBuilder()
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(r.Intn(i)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				b.AddEdge(graph.NodeID(i), graph.NodeID(j))
			}
		}
	}
	if n == 1 {
		b.AddNode(0)
	}
	return b.MustBuild()
}

func BenchmarkMCBTriangulatedGrid(b *testing.B) {
	g := graph.TriangulatedGrid(8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MCB(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpannedByShort times the span test on a warm Workspace: a
// triangulated grid that triangles span at τ = 3, a ball shaped like the
// fig3-dense benchmark's (75 unit-disk nodes, m = 516, ν = 442) spanned
// at τ = 5, both of which the fan certificate decides, and a sparser
// unit-disk ball (75 nodes at degree 12, m = 373) that the cycles of
// length ≤ 5 do not span, which only the span engine decides: the
// triangle and Horton passes run to the end.
func BenchmarkSpannedByShort(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
		tau  int
		want bool
	}{
		{"triangulated-grid", graph.TriangulatedGrid(10, 10), 3, true},
		{"fig3-dense-ball", udgPatch(rand.New(rand.NewSource(3)), 75, 18), 5, true},
		{"refuted-ball", udgPatch(rand.New(rand.NewSource(2)), 75, 12), 5, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			ws := NewWorkspace()
			for i := 0; i < b.N; i++ {
				if SpannedByShortWS(c.g, c.tau, ws) != c.want {
					b.Fatalf("spanned = %v, want %v", !c.want, c.want)
				}
			}
		})
	}
}
