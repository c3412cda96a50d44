package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dcc/internal/cycles"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// gridNet builds a core.Network from a (triangulated) grid with its
// perimeter as boundary cycle.
func gridNet(g *graph.Graph, rows, cols int) Network {
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
	return Network{G: g, Boundary: b, BoundaryCycles: [][]graph.NodeID{order}}
}

// denseNet builds a dense, heavily redundant network: a perturbed grid
// deployment with a UDG radius large enough that nodes see many neighbours.
// The outer boundary is the grid perimeter ring (the ring spacing is well
// under the radius, so consecutive ring nodes are connected).
func denseNet(t *testing.T, seed int64, rows, cols int, radius float64) Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rect := geom.Rect{MaxX: float64(cols), MaxY: float64(rows)}
	pts := geom.PerturbedGrid(rng, rows, cols, rect, 0.15)
	g := geom.UDG(pts, radius)
	if !g.IsConnected() {
		t.Fatal("dense test network disconnected; adjust parameters")
	}
	net := gridNet(g, rows, cols)
	if err := net.Validate(); err != nil {
		t.Fatalf("dense net invalid: %v", err)
	}
	return net
}

func TestValidate(t *testing.T) {
	g := graph.TriangulatedGrid(3, 3)
	net := gridNet(g, 3, 3)
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	// Missing boundary mark.
	bad := net
	bad.Boundary = map[graph.NodeID]bool{}
	if err := bad.Validate(); err == nil {
		t.Fatal("unmarked boundary nodes accepted")
	}
	// Broken cycle.
	bad2 := net
	bad2.BoundaryCycles = [][]graph.NodeID{{0, 1, 8}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("broken boundary cycle accepted")
	}
	// No cycles.
	bad3 := net
	bad3.BoundaryCycles = nil
	if err := bad3.Validate(); err == nil {
		t.Fatal("missing boundary cycles accepted")
	}
	if err := (Network{}).Validate(); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestVerifyConfineTriangulatedGrid(t *testing.T) {
	g := graph.TriangulatedGrid(4, 4)
	net := gridNet(g, 4, 4)
	ok, err := VerifyConfine(net.G, net.BoundaryCycles, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("triangulated grid perimeter not 3-partitionable")
	}
	// Plain grid: 4 but not 3.
	g2 := graph.Grid(4, 4)
	net2 := gridNet(g2, 4, 4)
	if ok, _ := VerifyConfine(net2.G, net2.BoundaryCycles, 3); ok {
		t.Fatal("plain grid perimeter reported 3-partitionable")
	}
	if ok, _ := VerifyConfine(net2.G, net2.BoundaryCycles, 4); !ok {
		t.Fatal("plain grid perimeter not 4-partitionable")
	}
}

func TestScheduleRejectsBadOptions(t *testing.T) {
	net := gridNet(graph.TriangulatedGrid(3, 3), 3, 3)
	if _, err := Schedule(net, Options{Tau: 2}); err == nil {
		t.Fatal("tau=2 accepted")
	}
	if _, err := Schedule(net, Options{Tau: 3, Mode: Mode(99)}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestScheduleNonRedundantInputUnchanged(t *testing.T) {
	// A minimally triangulated grid is already non-redundant for τ=3:
	// nothing can be deleted.
	g := graph.TriangulatedGrid(5, 5)
	net := gridNet(g, 5, 5)
	res, err := Schedule(net, Options{Tau: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deleted) != 0 {
		t.Fatalf("deleted %d nodes from a non-redundant network", len(res.Deleted))
	}
	if res.Final.NumNodes() != g.NumNodes() {
		t.Fatal("final graph node count changed")
	}
}

func TestScheduleSequentialPreservesCriterion(t *testing.T) {
	for _, tau := range []int{3, 4, 5, 6} {
		net := denseNet(t, 42, 8, 8, 1.9)
		pre, err := VerifyConfine(net.G, net.BoundaryCycles, tau)
		if err != nil {
			t.Fatal(err)
		}
		if !pre {
			t.Fatalf("τ=%d: initial network does not satisfy the criterion", tau)
		}
		res, err := Schedule(net, Options{Tau: tau, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		post, err := VerifyConfine(res.Final, net.BoundaryCycles, tau)
		if err != nil {
			t.Fatal(err)
		}
		if !post {
			t.Fatalf("τ=%d: criterion broken after scheduling", tau)
		}
		if res.Stats.Tests == 0 {
			t.Fatal("no deletability tests recorded")
		}
		// Dense network must allow some savings.
		if tau >= 4 && len(res.Deleted) == 0 {
			t.Fatalf("τ=%d: no deletions on a dense network", tau)
		}
	}
}

func TestScheduleParallelPreservesCriterion(t *testing.T) {
	net := denseNet(t, 43, 8, 8, 1.9)
	for _, tau := range []int{3, 5} {
		res, err := Schedule(net, Options{Tau: tau, Seed: 9, Mode: Parallel})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := VerifyConfine(res.Final, net.BoundaryCycles, tau)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("τ=%d: parallel scheduling broke the criterion", tau)
		}
	}
}

func TestParallelMatchesSequentialLocally(t *testing.T) {
	// Both engines must terminate in a locally-maximal state: no remaining
	// internal node is deletable.
	net := denseNet(t, 44, 7, 7, 1.9)
	tau := 4
	for _, mode := range []Mode{Sequential, Parallel} {
		res, err := Schedule(net, Options{Tau: tau, Seed: 11, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.KeptInternal {
			if vpt.VertexDeletable(res.Final, v, tau) {
				t.Fatalf("mode %d: node %d still deletable after termination", mode, v)
			}
		}
	}
}

func TestLargerTauDeletesMore(t *testing.T) {
	// The headline effect of Figure 3: larger confine sizes admit sparser
	// coverage sets.
	net := denseNet(t, 45, 9, 9, 1.9)
	sizes := make([]int, 0, 3)
	for _, tau := range []int{3, 4, 6} {
		res, err := Schedule(net, Options{Tau: tau, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(res.KeptInternal))
	}
	if !(sizes[0] >= sizes[1] && sizes[1] >= sizes[2]) {
		t.Fatalf("coverage-set sizes not non-increasing in τ: %v", sizes)
	}
	if sizes[2] >= sizes[0] && sizes[0] != 0 {
		t.Fatalf("τ=6 saved nothing over τ=3: %v", sizes)
	}
}

func TestScheduleNonRedundancy(t *testing.T) {
	// Theorem 6: when the original irreducible cycles are bounded by τ,
	// the output is non-redundant — removing any kept internal node breaks
	// the criterion.
	net := denseNet(t, 46, 6, 6, 1.9)
	_, maxVoid, err := cycles.MinMaxIrreducible(net.G.TwoCore())
	if err != nil {
		t.Fatal(err)
	}
	tau := maxVoid
	if tau < 3 {
		tau = 3
	}
	res, err := Schedule(net, Options{Tau: tau, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ok, v, err := VerifyNonRedundant(net, res.Final, tau)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("coverage set redundant: node %d removable", v)
	}
}

func TestRepairBoundaries(t *testing.T) {
	// Annulus-style network: outer perimeter + inner square hole boundary.
	g := graph.TriangulatedGrid(6, 6)
	// Carve an inner hole: delete the central 2×2 block's diagonals by
	// removing node 14,15,20,21 edges? Simpler: declare the inner cycle
	// around node 14 after deleting it.
	inner := []graph.NodeID{7, 8, 15, 21, 20, 13} // hexagon around 14
	g = g.DeleteVertices([]graph.NodeID{14})
	net := gridNet(g, 6, 6)
	net.BoundaryCycles = append(net.BoundaryCycles, inner)
	for _, v := range inner {
		net.Boundary[v] = true
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}

	repaired, virtual, err := RepairBoundaries(net)
	if err != nil {
		t.Fatal(err)
	}
	if len(virtual) != 1 {
		t.Fatalf("virtual nodes = %v, want 1", virtual)
	}
	apex := virtual[0]
	if !repaired.Boundary[apex] {
		t.Fatal("apex not marked boundary")
	}
	if repaired.G.Degree(apex) != len(inner) {
		t.Fatalf("apex degree %d, want %d", repaired.G.Degree(apex), len(inner))
	}
	// Without repair, the hexagonal inner hole keeps the plain criterion
	// happy only with the inner boundary declared; with the cone, even the
	// 3-criterion sees the inner region as filled. Verify the repaired
	// network satisfies the τ=6 criterion.
	ok, err := VerifyConfine(repaired.G, repaired.BoundaryCycles, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("repaired annulus fails the τ=6 criterion")
	}
	// Single-boundary networks pass through unchanged.
	single := gridNet(graph.TriangulatedGrid(3, 3), 3, 3)
	same, virt2, err := RepairBoundaries(single)
	if err != nil {
		t.Fatal(err)
	}
	if len(virt2) != 0 || same.G != single.G {
		t.Fatal("single-boundary network was modified")
	}
}

func TestBoundaryTargetMultipleCycles(t *testing.T) {
	// Sum of outer and inner boundary of the carved grid.
	g := graph.TriangulatedGrid(6, 6).DeleteVertices([]graph.NodeID{14})
	net := gridNet(g, 6, 6)
	inner := []graph.NodeID{7, 8, 15, 21, 20, 13}
	net.BoundaryCycles = append(net.BoundaryCycles, inner)
	target, err := BoundaryTarget(g, net.BoundaryCycles)
	if err != nil {
		t.Fatal(err)
	}
	wantWeight := len(net.BoundaryCycles[0]) + len(inner)
	if target.PopCount() != wantWeight {
		t.Fatalf("target weight %d, want %d (disjoint cycles)", target.PopCount(), wantWeight)
	}
	// The annulus between the boundaries is triangulated: τ=3 should
	// partition outer ⊕ inner... the hexagon ring around the removed node
	// leaves 6-cycles? Verify via the generic machinery for τ=6.
	if !cycles.Partitionable(g, target, 6) {
		t.Fatal("annulus target not 6-partitionable")
	}
}

func TestAchievableTau(t *testing.T) {
	tests := []struct {
		name string
		net  Network
		max  int
		want int
		err  bool
	}{
		{"triangulated grid", gridNet(graph.TriangulatedGrid(4, 4), 4, 4), 8, 3, false},
		{"plain grid", gridNet(graph.Grid(4, 4), 4, 4), 8, 4, false},
		{"plain grid capped", gridNet(graph.Grid(4, 4), 4, 4), 3, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := AchievableTau(tt.net, tt.max)
			if tt.err {
				if !errors.Is(err, ErrNotAchievable) {
					t.Fatalf("err = %v, want ErrNotAchievable", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("AchievableTau = %d, want %d", got, tt.want)
			}
		})
	}
	if _, err := AchievableTau(Network{}, 5); err == nil {
		t.Fatal("invalid network accepted")
	}
}

func TestPlanTau(t *testing.T) {
	sqrt3 := 1.7320508
	tests := []struct {
		name    string
		req     Requirement
		want    int
		wantErr error
	}{
		{"blanket γ=√3", Requirement{Gamma: sqrt3}, 3, nil},
		{"blanket γ=√2", Requirement{Gamma: 1.41421}, 4, nil},
		{"blanket γ=1", Requirement{Gamma: 1.0}, 6, nil},
		{"blanket γ=2 infeasible", Requirement{Gamma: 2.0}, 0, ErrNoFeasibleTau},
		{"partial γ=2 Dmax=1.2Rc", Requirement{Gamma: 2.0, MaxHoleDiameter: 1.2}, 3, nil},
		{"partial γ=2 Dmax=4Rc", Requirement{Gamma: 2.0, MaxHoleDiameter: 4}, 6, nil},
		{"partial beats blanket", Requirement{Gamma: 1.0, MaxHoleDiameter: 7}, 9, nil},
		{"blanket beats partial", Requirement{Gamma: 1.0, MaxHoleDiameter: 0.5}, 6, nil},
		{"gamma zero", Requirement{Gamma: 0}, 0, errors.New("gamma")},
		{"gamma NaN", Requirement{Gamma: math.NaN()}, 0, errors.New("gamma")},
		{"hole NaN", Requirement{Gamma: 1.9, MaxHoleDiameter: math.NaN()}, 0, errors.New("MaxHoleDiameter")},
		{"hole negative", Requirement{Gamma: 1.0, MaxHoleDiameter: -1}, 0, errors.New("MaxHoleDiameter")},
		{"hole +Inf", Requirement{Gamma: 1.9, MaxHoleDiameter: math.Inf(1)}, 0, errors.New("MaxHoleDiameter")},
		// τ never falls as Dmax grows: a huge Dmax is capped, not
		// overflowed into an infeasible τ.
		{"hole 1e18 capped", Requirement{Gamma: 1.9, MaxHoleDiameter: 1e18}, math.MaxInt32, nil},
		{"hole 1e19 capped", Requirement{Gamma: 1.9, MaxHoleDiameter: 1e19}, math.MaxInt32, nil},
		{"hole MaxFloat64 capped", Requirement{Gamma: 1.9, MaxHoleDiameter: math.MaxFloat64}, math.MaxInt32, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := PlanTau(tt.req)
			if tt.wantErr != nil {
				if err == nil {
					t.Fatalf("want error, got τ=%d", got)
				}
				if errors.Is(tt.wantErr, ErrNoFeasibleTau) != errors.Is(err, ErrNoFeasibleTau) {
					t.Fatalf("err = %v, want %v", err, tt.wantErr)
				}
				if !strings.Contains(err.Error(), tt.wantErr.Error()) {
					t.Fatalf("err = %v, want it to name %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("PlanTau = %d, want %d", got, tt.want)
			}
		})
	}
}

func BenchmarkScheduleSequentialTau4(b *testing.B) {
	rng := rand.New(rand.NewSource(50))
	rect := geom.Rect{MaxX: 10, MaxY: 10}
	pts := geom.PerturbedGrid(rng, 10, 10, rect, 0.15)
	g := geom.UDG(pts, 1.9)
	net := gridNet(g, 10, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(net, Options{Tau: 4, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHashPriorityVaries(t *testing.T) {
	seen := make(map[uint64]bool)
	for node := uint64(0); node < 50; node++ {
		for round := uint64(1); round < 5; round++ {
			p := HashPriority(1, node, round)
			if seen[p] {
				t.Fatalf("priority collision at node %d round %d", node, round)
			}
			seen[p] = true
		}
	}
	if HashPriority(1, 3, 1) == HashPriority(2, 3, 1) {
		t.Fatal("seed does not influence priority")
	}
}

// TestRoundBidBits pins RoundBid's priorities to fixed bits: the
// distributed runtime's recorded runs (and its seeded partition sides)
// were drawn with them, so a change here is a behaviour change there.
func TestRoundBidBits(t *testing.T) {
	for _, tc := range []struct {
		seed  int64
		v     graph.NodeID
		round int
		want  uint64
	}{
		{1, 3, 1, 0x1a0cce95c281f750},
		{-7, 42, 9, 0x89515c65226e07a2},
		{0, 0, 0, 0xe220a8397b1dcdaf},
	} {
		if got := RoundBid(tc.seed, tc.v, tc.round); got.Priority != tc.want || got.Node != tc.v {
			t.Errorf("RoundBid(%d, %d, %d) = %+v, want priority %#x", tc.seed, tc.v, tc.round, got, tc.want)
		}
	}
}

func TestBidBeats(t *testing.T) {
	lo, hi := Bid{Priority: 5, Node: 9}, Bid{Priority: 6, Node: 1}
	if !hi.Beats(lo) || lo.Beats(hi) {
		t.Fatal("the higher priority must win")
	}
	a, b := Bid{Priority: 5, Node: 2}, Bid{Priority: 5, Node: 3}
	if !b.Beats(a) || a.Beats(b) {
		t.Fatal("a priority tie must go to the higher ID")
	}
	if a.Beats(a) {
		t.Fatal("a bid must not beat itself")
	}
}
