package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dcc/internal/graph"
)

// pairsWithinMap is the map-keyed spatial hash that pairsWithin replaced,
// kept as its reference: points hashed into cells of side maxDist, then for
// each i ascending the nine cells around its own, (dx, dy) in order, each
// cell's points in index order.
func pairsWithinMap(pts []Point, maxDist float64, fn func(i, j int, d float64)) {
	type cellIndex struct{ cx, cy int }
	idx := make(map[cellIndex][]int, len(pts))
	for i, p := range pts {
		c := cellIndex{cx: int(math.Floor(p.X / maxDist)), cy: int(math.Floor(p.Y / maxDist))}
		idx[c] = append(idx[c], i)
	}
	for i, p := range pts {
		ci := int(math.Floor(p.X / maxDist))
		cj := int(math.Floor(p.Y / maxDist))
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range idx[cellIndex{cx: ci + dx, cy: cj + dy}] {
					if j <= i {
						continue
					}
					if d := Dist(p, pts[j]); d <= maxDist {
						fn(i, j, d)
					}
				}
			}
		}
	}
}

// pairInputs returns point sets that stress the cell index: uniform fields
// at several densities, fields straddling the origin (negative cells),
// points on cell borders (a grid spaced exactly rc), clusters with many
// points per cell, repeated points, and the empty and one-point sets.
func pairInputs(r *rand.Rand) (sets [][]Point, radii []float64) {
	add := func(pts []Point, rc float64) {
		sets = append(sets, pts)
		radii = append(radii, rc)
	}
	for _, n := range []int{2, 30, 400, 2000} {
		for _, deg := range []float64{3, 8, 25} {
			side := math.Sqrt(float64(n))
			add(UniformPoints(r, n, Square(side)), RcForAvgDegree(n, side*side, deg))
		}
	}
	add(UniformPoints(r, 500, Rect{MinX: -7.5, MinY: -3, MaxX: 7.5, MaxY: 12}), 1.1)
	var grid []Point
	for x := -4; x <= 4; x++ {
		for y := -4; y <= 4; y++ {
			grid = append(grid, Point{X: float64(x) * 0.5, Y: float64(y) * 0.5})
		}
	}
	add(grid, 0.5)
	add(grid, 0.75)
	var cluster []Point
	for c := 0; c < 6; c++ {
		center := Point{X: r.Float64() * 10, Y: r.Float64() * 10}
		for i := 0; i < 60; i++ {
			cluster = append(cluster, Point{X: center.X + 0.3*r.NormFloat64(), Y: center.Y + 0.3*r.NormFloat64()})
		}
	}
	cluster = append(cluster, cluster[:40]...)
	add(cluster, 0.4)
	add(nil, 1)
	add([]Point{{X: 1, Y: 1}}, 1)
	// Beyond 2⁶³·rc the cell index is no longer floor(x/rc) but whatever
	// the float-to-int conversion yields (the int range's ends on amd64 and
	// arm64), where cy±1 and cx±1 wrap: coincident points there, a column
	// and a row at the edge, and points on both sides of it.
	huge := []Point{
		{X: 1e19, Y: 1e19}, {X: 1e19, Y: 1e19}, {X: -1e19, Y: -1e19}, {X: -1e19, Y: -1e19},
		{X: 1e19, Y: 0}, {X: 1e19, Y: 0.5}, {X: 0.25, Y: 1e19}, {X: 0, Y: 1e19},
		{X: -1e19, Y: 3}, {X: 3, Y: -1e19}, {X: 1e19, Y: -1e19}, {X: 1e19, Y: -1e19},
		{X: 0, Y: 0}, {X: 0.5, Y: 0.5}, {X: math.Inf(1), Y: 0}, {X: math.NaN(), Y: 1e19},
	}
	add(huge, 1)
	add(huge, 1e-300)
	return sets, radii
}

// TestPairsWithinMatchesMapHash pins the sorted cell index to the map-keyed
// hash it replaced: the same pairs, distances and call order on every input
// of pairInputs, so UDG builds the same graphs and QuasiUDG draws its link
// coins in the same order, which the test checks with one seeded source
// per side.
func TestPairsWithinMatchesMapHash(t *testing.T) {
	type pair struct {
		i, j int
		d    float64
	}
	collect := func(f func([]Point, float64, func(int, int, float64)), pts []Point, rc float64) []pair {
		var out []pair
		f(pts, rc, func(i, j int, d float64) { out = append(out, pair{i, j, d}) })
		return out
	}
	buildUDG := func(pairs []pair, n int) *graph.Graph {
		b := graph.NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNode(graph.NodeID(i))
		}
		for _, p := range pairs {
			b.AddEdge(graph.NodeID(p.i), graph.NodeID(p.j))
		}
		return b.MustBuild()
	}
	sets, radii := pairInputs(rand.New(rand.NewSource(20)))
	total := 0
	for k, pts := range sets {
		rc := radii[k]
		got, want := collect(pairsWithin, pts, rc), collect(pairsWithinMap, pts, rc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("input %d (%d points, rc %v): pairsWithin gave %d pairs, the map hash %d, or a different order",
				k, len(pts), rc, len(got), len(want))
		}
		total += len(got)
		if g, w := UDG(pts, rc), buildUDG(want, len(pts)); !reflect.DeepEqual(g.Edges(), w.Edges()) || g.NumNodes() != w.NumNodes() {
			t.Fatalf("input %d: UDG differs from the map hash's pairs", k)
		}
		seed := int64(k + 1)
		quasi := QuasiUDG(rand.New(rand.NewSource(seed)), pts, 0.6*rc, rc, 0.5)
		coin := rand.New(rand.NewSource(seed))
		var kept []pair
		for _, p := range want {
			if p.d <= 0.6*rc || coin.Float64() < 0.5 {
				kept = append(kept, p)
			}
		}
		if w := buildUDG(kept, len(pts)); !reflect.DeepEqual(quasi.Edges(), w.Edges()) {
			t.Fatalf("input %d: QuasiUDG differs from the map hash's pairs and draws", k)
		}
	}
	if total == 0 {
		t.Fatal("no input produced a pair")
	}
}
