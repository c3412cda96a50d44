package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder()
	b.AddEdge(3, 1)
	b.AddEdge(1, 3) // duplicate, reversed
	b.AddEdge(1, 2)
	b.AddNode(7)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(3, 1) || !g.HasEdge(1, 3) {
		t.Fatal("edge {1,3} missing")
	}
	if g.HasEdge(2, 3) {
		t.Fatal("phantom edge {2,3}")
	}
	if got := g.Nodes(); !reflect.DeepEqual(got, []NodeID{1, 2, 3, 7}) {
		t.Fatalf("Nodes = %v", got)
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []NodeID{2, 3}) {
		t.Fatalf("Neighbors(1) = %v", got)
	}
	if g.Degree(7) != 0 {
		t.Fatalf("Degree(7) = %d, want 0", g.Degree(7))
	}
	if g.Degree(100) != 0 {
		t.Fatalf("Degree of absent node = %d, want 0", g.Degree(100))
	}
}

func TestBuilderSelfLoop(t *testing.T) {
	b := NewBuilder()
	b.AddEdge(5, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("self-loop not rejected")
	}
}

// TestBuilderSelfLoopAmongRecords: a self-loop recorded among duplicate and
// implicit-endpoint records surfaces as Build's error, naming its node, on
// every Build, and MustBuild panics with it.
func TestBuilderSelfLoopAmongRecords(t *testing.T) {
	b := NewBuilder()
	b.AddNode(1)
	b.AddNode(1)
	b.AddEdge(3, 1)
	b.AddEdge(1, 3)
	b.AddEdge(4, 4)
	b.AddEdge(2, 9)
	for i := 0; i < 2; i++ {
		_, err := b.Build()
		if err == nil {
			t.Fatalf("Build %d accepted a self-loop", i)
		}
		if want := "graph: self-loop at node 4"; err.Error() != want {
			t.Fatalf("Build %d: error %q, want %q", i, err, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild accepted a self-loop")
		}
	}()
	b.MustBuild()
}

// TestBuilderMatchesSortedRecords: on random records — duplicates, both
// orientations, non-contiguous IDs, isolated nodes and endpoints never added
// as nodes — Build yields the Graph that the same records, deduplicated and
// sorted before they are added, yield.
func TestBuilderMatchesSortedRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = NodeID(i*3 + rng.Intn(2)) // collisions on purpose
		}
		b := NewBuilder()
		var nodes []NodeID
		for _, v := range ids {
			if rng.Intn(4) != 0 { // the rest enter only as endpoints
				b.AddNode(v)
				nodes = append(nodes, v)
			}
		}
		var edges []Edge
		for i := rng.Intn(3 * n); i > 0; i-- {
			u, v := ids[rng.Intn(n)], ids[rng.Intn(n)]
			if u == v {
				continue
			}
			b.AddEdge(v, u)
			if rng.Intn(3) == 0 {
				b.AddEdge(u, v)
			}
			edges = append(edges, NormEdge(u, v))
		}
		got := b.MustBuild()

		slices.Sort(nodes)
		nodes = slices.Compact(nodes)
		slices.SortFunc(edges, func(x, y Edge) int {
			if x.U != y.U {
				return int(x.U - y.U)
			}
			return int(x.V - y.V)
		})
		edges = slices.Compact(edges)
		ref := NewBuilder()
		for _, v := range nodes {
			ref.AddNode(v)
		}
		for _, e := range edges {
			ref.AddEdge(e.U, e.V)
		}
		want := ref.MustBuild()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: graph differs from the sorted records' graph\nwant ids=%v edges=%v\ngot  ids=%v edges=%v",
				trial, want.Nodes(), want.Edges(), got.Nodes(), got.Edges())
		}
		if !slices.Equal(got.Edges(), edges) {
			t.Fatalf("trial %d: edges %v, want %v", trial, got.Edges(), edges)
		}
		for _, e := range edges {
			nodes = append(nodes, e.U, e.V)
		}
		slices.Sort(nodes)
		if want := slices.Compact(nodes); !slices.Equal(got.Nodes(), want) {
			t.Fatalf("trial %d: nodes %v, want %v", trial, got.Nodes(), want)
		}
	}
}

// TestBuilderEmpty: zero records build the empty graph, identical to the
// empty induced subgraph.
func TestBuilderEmpty(t *testing.T) {
	g := Path(3)
	want := g.compactInduced(nil, NewScratch(g))
	if got := NewBuilder().MustBuild(); !reflect.DeepEqual(want, got) {
		t.Fatalf("empty graph %+v, want %+v", got, want)
	}
}

// TestBuilderImplicitEndpoints: AddEdge implies its endpoints.
func TestBuilderImplicitEndpoints(t *testing.T) {
	b := NewBuilder()
	b.AddEdge(5, 2)
	ref := NewBuilder()
	ref.AddNode(2)
	ref.AddNode(5)
	ref.AddEdge(2, 5)
	if want, got := ref.MustBuild(), b.MustBuild(); !reflect.DeepEqual(want, got) {
		t.Fatalf("implicit endpoints differ: want %v, got %v", want.Nodes(), got.Nodes())
	}
}

// TestBuilderRebuild: Build leaves the records valid, so a Builder grows
// and builds again, and the first Graph does not alias the records.
func TestBuilderRebuild(t *testing.T) {
	b := NewBuilder()
	b.AddEdge(4, 1)
	b.AddEdge(1, 2)
	b.AddNode(9)
	b.AddEdge(2, 1)
	first := b.MustBuild()
	b.AddEdge(0, 4)
	b.AddEdge(9, 2)
	second := b.MustBuild()

	want1, err := FromEdges([]Edge{{1, 2}, {1, 4}}, 9)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := FromEdges([]Edge{{0, 4}, {1, 2}, {1, 4}, {2, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want1, first) {
		t.Fatalf("first build %v %v, want %v %v", first.Nodes(), first.Edges(), want1.Nodes(), want1.Edges())
	}
	if !reflect.DeepEqual(want2, second) {
		t.Fatalf("second build %v %v, want %v %v", second.Nodes(), second.Edges(), want2.Nodes(), want2.Edges())
	}
}

func TestEdgeIndexingStable(t *testing.T) {
	// Two builders adding the same edges in different orders must produce
	// identical edge indexing.
	b1 := NewBuilder()
	b1.AddEdge(0, 1)
	b1.AddEdge(1, 2)
	b1.AddEdge(0, 2)
	b2 := NewBuilder()
	b2.AddEdge(0, 2)
	b2.AddEdge(1, 2)
	b2.AddEdge(0, 1)
	g1, g2 := b1.MustBuild(), b2.MustBuild()
	for i := 0; i < g1.NumEdges(); i++ {
		if g1.EdgeAt(i) != g2.EdgeAt(i) {
			t.Fatalf("edge %d differs: %v vs %v", i, g1.EdgeAt(i), g2.EdgeAt(i))
		}
	}
}

func TestEdgeIndexRoundTrip(t *testing.T) {
	g := Complete(5)
	for i := 0; i < g.NumEdges(); i++ {
		e := g.EdgeAt(i)
		j, ok := g.EdgeIndex(e.V, e.U) // reversed on purpose
		if !ok || j != i {
			t.Fatalf("EdgeIndex(%v) = %d,%v want %d", e, j, ok, i)
		}
	}
	if _, ok := g.EdgeIndex(0, 100); ok {
		t.Fatal("EdgeIndex of absent edge reported ok")
	}
}

func TestBFSDepths(t *testing.T) {
	g := Path(5)
	tree := g.BFS(0, -1)
	for i := 0; i < 5; i++ {
		if d := tree.Depth(NodeID(i)); d != i {
			t.Fatalf("Depth(%d) = %d, want %d", i, d, i)
		}
	}
	if _, ok := tree.Parent(0); ok {
		t.Fatal("root has a parent")
	}
	for i := 1; i < 5; i++ {
		if p, ok := tree.Parent(NodeID(i)); !ok || p != NodeID(i-1) {
			t.Fatalf("Parent(%d) = %d,%v want %d", i, p, ok, i-1)
		}
	}
}

func TestBFSMaxDepth(t *testing.T) {
	g := Path(10)
	tree := g.BFS(0, 3)
	if d := tree.Depth(3); d != 3 {
		t.Fatalf("Depth(3) = %d, want 3", d)
	}
	if d := tree.Depth(4); d != -1 {
		t.Fatalf("Depth(4) = %d, want -1 (beyond horizon)", d)
	}
}

func TestBFSDisconnected(t *testing.T) {
	g, err := FromEdges([]Edge{{0, 1}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	tree := g.BFS(0, -1)
	if tree.Depth(5) != -1 {
		t.Fatal("unreachable node has non-negative depth")
	}
	if _, ok := tree.Parent(5); ok {
		t.Fatal("unreachable node has a parent")
	}
}

func TestLCA(t *testing.T) {
	//      0
	//     / \
	//    1   2
	//   / \   \
	//  3   4   5
	g, err := FromEdges([]Edge{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	tree := g.BFS(0, -1)
	tests := []struct {
		u, v, want NodeID
	}{
		{3, 4, 1},
		{3, 5, 0},
		{1, 4, 1},
		{0, 5, 0},
		{3, 3, 3},
	}
	for _, tt := range tests {
		got, ok := tree.LCA(tt.u, tt.v)
		if !ok || got != tt.want {
			t.Fatalf("LCA(%d,%d) = %d,%v want %d", tt.u, tt.v, got, ok, tt.want)
		}
	}
}

func TestKHopNeighbors(t *testing.T) {
	g := Path(7)
	got := g.KHopNeighbors(3, 2)
	want := []NodeID{1, 2, 4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("KHopNeighbors(3,2) = %v, want %v", got, want)
	}
	if g.KHopNeighbors(3, 0) != nil {
		t.Fatal("k=0 should return nil")
	}
	// k-hop neighbours never include the centre.
	for _, v := range g.KHopNeighbors(3, 6) {
		if v == 3 {
			t.Fatal("centre included in its own k-hop neighbourhood")
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(5)
	sub := g.InducedSubgraph([]NodeID{0, 1, 2, 99}) // 99 ignored
	if sub.NumNodes() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced K3: n=%d m=%d", sub.NumNodes(), sub.NumEdges())
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || !sub.HasEdge(0, 2) {
		t.Fatal("induced subgraph missing edges")
	}
}

func TestDeleteVertices(t *testing.T) {
	g := Cycle(5)
	h := g.DeleteVertices([]NodeID{2})
	if h.NumNodes() != 4 || h.NumEdges() != 3 {
		t.Fatalf("after delete: n=%d m=%d, want 4,3", h.NumNodes(), h.NumEdges())
	}
	if h.HasNode(2) {
		t.Fatal("deleted node still present")
	}
	if h.HasEdge(1, 2) || h.HasEdge(2, 3) {
		t.Fatal("incident edge survived vertex deletion")
	}
	// Original graph untouched.
	if !g.HasNode(2) || g.NumEdges() != 5 {
		t.Fatal("DeleteVertices mutated the receiver")
	}
}

func TestDeleteEdges(t *testing.T) {
	g := Cycle(4)
	h := g.DeleteEdges([]Edge{{1, 0}}) // reversed endpoints on purpose
	if h.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", h.NumEdges())
	}
	if h.NumNodes() != 4 {
		t.Fatal("endpoints dropped by edge deletion")
	}
	if h.HasEdge(0, 1) {
		t.Fatal("deleted edge still present")
	}
}

// TestCone checks the apex numbering and membership rule: apexes count up
// from the largest ID + 1 in set order, each is added even when its set
// names no node, and a set's absent IDs are skipped, an ID that another
// apex takes included.
func TestCone(t *testing.T) {
	g, _ := FromEdges([]Edge{{2, 5}, {5, 9}})
	if g.Cone(nil) != g {
		t.Fatal("Cone without sets rebuilt the graph")
	}
	tests := []struct {
		name  string
		g     *Graph
		sets  [][]NodeID
		nodes []NodeID
		edges []Edge
	}{
		{"path", g, [][]NodeID{{2, 9}, {5, 7, 12, 5}, {3}},
			[]NodeID{2, 5, 9, 10, 11, 12}, []Edge{{2, 5}, {2, 10}, {5, 9}, {5, 11}, {9, 10}}},
		{"empty graph", NewBuilder().MustBuild(), [][]NodeID{{4}}, []NodeID{0}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := tt.g.Cone(tt.sets)
			if !reflect.DeepEqual(c.Nodes(), tt.nodes) || !reflect.DeepEqual(c.Edges(), tt.edges) {
				t.Fatalf("Cone = %v %v, want %v %v", c.Nodes(), c.Edges(), tt.nodes, tt.edges)
			}
		})
	}
}

func TestConnectivity(t *testing.T) {
	tests := []struct {
		name  string
		g     *Graph
		conn  bool
		comps int
	}{
		{"empty", NewBuilder().MustBuild(), true, 0},
		{"single", Path(1), true, 1},
		{"path", Path(4), true, 1},
		{"two components", func() *Graph {
			g, _ := FromEdges([]Edge{{0, 1}, {2, 3}})
			return g
		}(), false, 2},
		{"isolated node", func() *Graph {
			g, _ := FromEdges([]Edge{{0, 1}}, 9)
			return g
		}(), false, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.IsConnected(); got != tt.conn {
				t.Fatalf("IsConnected = %v, want %v", got, tt.conn)
			}
			if got := tt.g.NumComponents(); got != tt.comps {
				t.Fatalf("NumComponents = %d, want %d", got, tt.comps)
			}
		})
	}
}

func TestConnectedComponentsContents(t *testing.T) {
	g, err := FromEdges([]Edge{{4, 5}, {0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	comps := g.ConnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("got %d components", len(comps))
	}
	if !reflect.DeepEqual(comps[0], []NodeID{0, 1, 2}) {
		t.Fatalf("comps[0] = %v", comps[0])
	}
	if !reflect.DeepEqual(comps[1], []NodeID{4, 5}) {
		t.Fatalf("comps[1] = %v", comps[1])
	}
}

func TestCycleSpaceDim(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"tree", Path(10), 0},
		{"cycle", Cycle(6), 1},
		{"K4", Complete(4), 3},
		{"K5", Complete(5), 6},
		{"grid 3x3", Grid(3, 3), 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.CycleSpaceDim(); got != tt.want {
				t.Fatalf("CycleSpaceDim = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestTwoCore(t *testing.T) {
	// Cycle with a pendant path attached: the 2-core is exactly the cycle.
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddEdge(NodeID(i), NodeID((i+1)%4))
	}
	b.AddEdge(0, 10)
	b.AddEdge(10, 11)
	g := b.MustBuild()
	core := g.TwoCore()
	if core.NumNodes() != 4 || core.NumEdges() != 4 {
		t.Fatalf("2-core: n=%d m=%d, want 4,4", core.NumNodes(), core.NumEdges())
	}
	if core.HasNode(10) || core.HasNode(11) {
		t.Fatal("pendant nodes survive 2-core")
	}
	// A tree's 2-core is empty.
	if tc := Path(8).TwoCore(); tc.NumNodes() != 0 {
		t.Fatalf("tree 2-core has %d nodes", tc.NumNodes())
	}
}

func TestTwoCorePreservesCycleSpaceDim(t *testing.T) {
	var buf GraphBuf // TwoCoreInto reuses it across every case
	s := NewScratch(nil)
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)), 20, 0.15)
		core := g.TwoCore()
		return g.CycleSpaceDim() == core.CycleSpaceDim() &&
			reflect.DeepEqual(g.TwoCoreInto(&buf, s), core) &&
			g.CycleSpaceDimWith(s) == g.CycleSpaceDim()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCoTreeInto checks the co-tree numbering on random graphs with
// several components: ν is the cycle-space dimension, the coordinates are
// 0…ν−1 in edge-index order, and the −1 edges form a spanning forest —
// n − c edges that join every component without closing a cycle.
func TestCoTreeInto(t *testing.T) {
	s := NewScratch(nil)
	var cot []int32
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)), 25, 0.08)
		cot = append(cot[:0], make([]int32, g.NumEdges())...)
		nu := g.CoTreeInto(s, cot)
		if nu != g.CycleSpaceDim() {
			return false
		}
		next := int32(0)
		comp := make([]int, g.NumNodes()) // union-find over dense indices
		for i := range comp {
			comp[i] = i
		}
		root := func(x int) int {
			for comp[x] != x {
				x = comp[x]
			}
			return x
		}
		tree := 0
		for e, c := range cot {
			if c >= 0 {
				if c != next {
					return false
				}
				next++
				continue
			}
			ed := g.EdgeAt(e)
			u, _ := g.IndexOf(ed.U)
			v, _ := g.IndexOf(ed.V)
			ru, rv := root(u), root(v)
			if ru == rv {
				return false // a tree edge closes a cycle
			}
			comp[ru] = rv
			tree++
		}
		return int(next) == nu && tree == g.NumNodes()-g.NumComponents()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if nu := (&Graph{}).CoTreeInto(s, nil); nu != 0 {
		t.Fatalf("empty graph: ν = %d, want 0", nu)
	}
}

func TestGenerators(t *testing.T) {
	if g := Path(1); g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Fatal("Path(1) malformed")
	}
	if g := Cycle(3); g.NumEdges() != 3 {
		t.Fatal("Cycle(3) malformed")
	}
	if g := Complete(6); g.NumEdges() != 15 {
		t.Fatal("K6 malformed")
	}
	if g := Grid(2, 2); g.NumEdges() != 4 {
		t.Fatal("Grid(2,2) malformed")
	}
	if g := TriangulatedGrid(2, 2); g.NumEdges() != 5 {
		t.Fatalf("TriangulatedGrid(2,2) has %d edges, want 5", g.NumEdges())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Cycle(2) did not panic")
			}
		}()
		Cycle(2)
	}()
}

// randomGraph returns a G(n,p) random graph.
func randomGraph(r *rand.Rand, n int, p float64) *Graph {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(NodeID(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				b.AddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	return b.MustBuild()
}

func TestRandomGraphInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 30, 0.1)
		// Handshake lemma.
		sum := 0
		for _, v := range g.Nodes() {
			sum += g.Degree(v)
		}
		if sum != 2*g.NumEdges() {
			return false
		}
		// Components partition the node set.
		total := 0
		for _, c := range g.ConnectedComponents() {
			total += len(c)
		}
		return total == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNodesReturnsFreshCopies(t *testing.T) {
	// The documented guarantee on Nodes(): every call hands out a fresh
	// slice, so callers may filter one result in place (as the dist
	// runtime's liveNodes does) without corrupting graph internals or any
	// other caller's slice.
	g := Grid(4, 4)
	want := g.Nodes()
	first := g.Nodes()
	// Destructive in-place filter of one result, mimicking nodes[:0] reuse.
	trashed := first[:0]
	for _, v := range first {
		if v%2 == 0 {
			trashed = append(trashed, v+1000)
		}
	}
	second := g.Nodes()
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("Nodes() result corrupted by a previous caller's in-place filter:\ngot:  %v\nwant: %v", second, want)
	}
	// And mutating the new slice must not write through to graph state.
	second[0] = -1
	if third := g.Nodes(); !reflect.DeepEqual(third, want) {
		t.Fatalf("Nodes() results alias each other: %v", third)
	}
}

func BenchmarkBFS1600(b *testing.B) {
	g := Grid(40, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(0, -1)
	}
}

func BenchmarkKHop(b *testing.B) {
	g := TriangulatedGrid(40, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.KHopNeighbors(820, 3)
	}
}

// TestAnyPairWithinMatchesPairwiseBFS: the one multi-source search agrees
// with a BFS from every terminal on whether two distinct terminals lie
// within maxHops of each other, ignoring terminals absent from the graph.
func TestAnyPairWithinMatchesPairwiseBFS(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	s := NewScratch(nil)
	for trial := 0; trial < 300; trial++ {
		g := randomGraph(r, 3+r.Intn(25), 0.05+r.Float64()*0.2)
		var terms []NodeID
		for i := 0; i < 1+r.Intn(6); i++ {
			terms = append(terms, NodeID(r.Intn(g.NumNodes()+2))) // may be absent or repeated
		}
		for maxHops := 1; maxHops <= 4; maxHops++ {
			want := false
			for _, a := range terms {
				if !g.HasNode(a) {
					continue
				}
				tree := g.BFS(a, maxHops)
				for _, b := range terms {
					if b != a && tree.Depth(b) >= 0 {
						want = true
					}
				}
			}
			if got := g.AnyPairWithin(terms, maxHops, s); got != want {
				t.Fatalf("trial %d: AnyPairWithin(%v, %d) = %v, pairwise BFS says %v", trial, terms, maxHops, got, want)
			}
		}
	}
}

// TestIndexOfDenseAndSparseIDs: IndexOf resolves the node set 0…n−1 at
// index v and any other set by search, and reports absent IDs — below,
// between and above the present ones — as absent, including IDs that
// are valid indices of the ID list.
func TestIndexOfDenseAndSparseIDs(t *testing.T) {
	for _, ids := range [][]NodeID{
		{0, 1, 2, 3, 4, 5},
		{0, 2, 3, 7, 100},
		{1, 2, 3},
		{3, 4, 5, 6},
		{5},
	} {
		b := NewBuilder()
		for _, v := range ids {
			b.AddNode(v)
		}
		g := b.MustBuild()
		present := make(map[NodeID]int)
		for i, v := range ids {
			present[v] = i
		}
		for v := NodeID(-2); v <= 102; v++ {
			i, ok := g.IndexOf(v)
			want, wantOK := present[v]
			if ok != wantOK || (ok && i != want) {
				t.Fatalf("ids %v: IndexOf(%d) = %d, %v; want %d, %v", ids, v, i, ok, want, wantOK)
			}
		}
	}
}

// TestBuilderDenseIDsWithOutsideEndpoint: on node records 0…n−1, an edge
// to a node that was never added still joins the graph, as with any other
// IDs.
func TestBuilderDenseIDsWithOutsideEndpoint(t *testing.T) {
	b := NewBuilder()
	for v := NodeID(0); v < 4; v++ {
		b.AddNode(v)
	}
	b.AddEdge(0, 1)
	b.AddEdge(3, 9)
	g := b.MustBuild()
	if got := g.Nodes(); !slices.Equal(got, []NodeID{0, 1, 2, 3, 9}) {
		t.Fatalf("nodes %v, want [0 1 2 3 9]", got)
	}
	if !g.HasEdge(3, 9) || !g.HasEdge(0, 1) || g.NumEdges() != 2 {
		t.Fatalf("edges %v, want {0,1} and {3,9}", g.Edges())
	}
}
