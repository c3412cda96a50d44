package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// validateCandidate checks that the reported edge set forms a simple cycle
// of the reported length passing through the root.
func validateCandidate(t *testing.T, g *Graph, root NodeID, length int, edges []int32) {
	t.Helper()
	if len(edges) != length {
		t.Fatalf("edge count %d != reported length %d", len(edges), length)
	}
	deg := make(map[NodeID]int)
	seen := make(map[int32]bool)
	for _, ei := range edges {
		if seen[ei] {
			t.Fatalf("duplicate edge %d in candidate", ei)
		}
		seen[ei] = true
		e := g.EdgeAt(int(ei))
		deg[e.U]++
		deg[e.V]++
	}
	if deg[root] != 2 {
		t.Fatalf("root %d has degree %d in candidate", root, deg[root])
	}
	for v, d := range deg {
		if d != 2 {
			t.Fatalf("vertex %d has degree %d in candidate", v, d)
		}
	}
	// Connectivity of the candidate edge set (single cycle, not a union).
	sub := NewBuilder()
	for ei := range seen {
		e := g.EdgeAt(int(ei))
		sub.AddEdge(e.U, e.V)
	}
	if !sub.MustBuild().IsConnected() {
		t.Fatal("candidate is a disjoint union of cycles")
	}
}

func TestHortonCandidatesAreCycles(t *testing.T) {
	graphs := map[string]*Graph{
		"K5":                Complete(5),
		"C7":                Cycle(7),
		"grid":              Grid(4, 4),
		"triangulated grid": TriangulatedGrid(4, 4),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			count := 0
			g.ForEachHortonCandidate(-1, func(root NodeID, length int, edges []int32) bool {
				validateCandidate(t, g, root, length, edges)
				count++
				return true
			})
			if count == 0 {
				t.Fatal("no candidates on a cyclic graph")
			}
		})
	}
}

func TestHortonCandidatesEmptyOnForest(t *testing.T) {
	Path(6).ForEachHortonCandidate(-1, func(NodeID, int, []int32) bool {
		t.Fatal("candidate on a tree")
		return true
	})
}

func TestHortonCandidatesRespectMaxLen(t *testing.T) {
	g := Grid(5, 5)
	g.ForEachHortonCandidate(4, func(_ NodeID, length int, _ []int32) bool {
		if length > 4 {
			t.Fatalf("candidate length %d exceeds bound", length)
		}
		return true
	})
	// A C8 has no candidates below its girth.
	Cycle(8).ForEachHortonCandidate(7, func(NodeID, int, []int32) bool {
		t.Fatal("candidate below girth reported")
		return true
	})
}

func TestHortonCandidateBufferReuseSafe(t *testing.T) {
	// The callback buffer is reused; capturing it without copying is a
	// documented misuse. Verify copies are stable by checking that every
	// copied candidate is still a valid cycle afterwards.
	g := TriangulatedGrid(3, 3)
	type cand struct {
		root   NodeID
		length int
		edges  []int32
	}
	var all []cand
	g.ForEachHortonCandidate(-1, func(root NodeID, length int, edges []int32) bool {
		cp := make([]int32, len(edges))
		copy(cp, edges)
		all = append(all, cand{root: root, length: length, edges: cp})
		return true
	})
	for _, c := range all {
		validateCandidate(t, g, c.root, c.length, c.edges)
	}
}

func TestHortonSpansCycleSpace(t *testing.T) {
	// The unbounded candidate set must span the full cycle space: it
	// contains a minimum cycle basis (Horton 1987). Rank check via simple
	// GF(2) elimination over edge sets.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		n := 10
		for i := 1; i < n; i++ {
			b.AddEdge(NodeID(i), NodeID(r.Intn(i)))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.3 {
					b.AddEdge(NodeID(i), NodeID(j))
				}
			}
		}
		g := b.MustBuild()
		rows := [][]uint64{}
		wordLen := (g.NumEdges() + 63) / 64
		insert := func(edges []int32) {
			v := make([]uint64, wordLen)
			for _, e := range edges {
				v[e/64] ^= 1 << (uint(e) % 64)
			}
			for _, row := range rows {
				p := firstBit(v)
				if p < 0 {
					return
				}
				if firstBit(row) == p {
					for i := range v {
						v[i] ^= row[i]
					}
				}
			}
			if firstBit(v) >= 0 {
				rows = append(rows, v)
				// Keep rows sorted by pivot for the simple reduction above.
				for i := len(rows) - 1; i > 0 && firstBit(rows[i-1]) > firstBit(rows[i]); i-- {
					rows[i-1], rows[i] = rows[i], rows[i-1]
				}
			}
		}
		g.ForEachHortonCandidate(-1, func(_ NodeID, _ int, edges []int32) bool {
			insert(edges)
			return true
		})
		return len(rows) == g.CycleSpaceDim()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func firstBit(v []uint64) int {
	for i, w := range v {
		if w != 0 {
			for b := 0; b < 64; b++ {
				if w&(1<<uint(b)) != 0 {
					return i*64 + b
				}
			}
		}
	}
	return -1
}

func BenchmarkHortonCandidates(b *testing.B) {
	g := TriangulatedGrid(10, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		g.ForEachHortonCandidate(6, func(NodeID, int, []int32) bool { n++; return true })
		if n == 0 {
			b.Fatal("no candidates")
		}
	}
}

// hortonCandidate is one enumerated candidate, its edges copied.
type hortonCandidate struct {
	root   NodeID
	length int
	edges  []int32
}

// TestHortonLabelFilter: with labels, the enumeration yields exactly the
// unfiltered candidates whose edge labels XOR to a non-zero word, in the
// unfiltered order, on random graphs, with and without a length bound.
func TestHortonLabelFilter(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	s := NewScratch(nil)
	filtered := 0
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(r, 6+r.Intn(25), 0.1+r.Float64()*0.3)
		labels := make([]uint64, g.NumEdges())
		for e := range labels {
			if r.Intn(3) > 0 { // a third stay zero, as forest edges do
				labels[e] = 1 << uint(r.Intn(4))
			}
		}
		for _, maxLen := range []int{-1, 4, 7} {
			var want, got []hortonCandidate
			g.ForEachHortonCandidateWith(s, maxLen, nil, func(root NodeID, length int, edges []int32) bool {
				x := uint64(0)
				for _, e := range edges {
					x ^= labels[e]
				}
				if x != 0 {
					want = append(want, hortonCandidate{root, length, slices.Clone(edges)})
				} else {
					filtered++
				}
				return true
			})
			g.ForEachHortonCandidateWith(s, maxLen, labels, func(root NodeID, length int, edges []int32) bool {
				got = append(got, hortonCandidate{root, length, slices.Clone(edges)})
				return true
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d maxLen %d: filtered enumeration gave %d candidates, want the %d with a non-zero label",
					trial, maxLen, len(got), len(want))
			}
		}
	}
	if filtered == 0 {
		t.Fatal("no candidate had a zero label: the filter was never exercised")
	}
}

// TestHortonLabelsReadAfterCall: labels that fn changes are read from the
// next candidate on, including the label sums of the current root's tree.
// Zeroing every label in the first call leaves nothing to enumerate.
func TestHortonLabelsReadAfterCall(t *testing.T) {
	g := Complete(7)
	labels := make([]uint64, g.NumEdges())
	for e := range labels {
		labels[e] = uint64(e%3) + 1
	}
	calls := 0
	g.ForEachHortonCandidateWith(NewScratch(g), -1, labels, func(NodeID, int, []int32) bool {
		calls++
		clear(labels)
		return true
	})
	if calls != 1 {
		t.Fatalf("%d candidates after every label was zeroed in the first, want 1", calls)
	}
}
