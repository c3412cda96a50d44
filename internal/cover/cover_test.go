package cover

import (
	"math"
	"math/rand"
	"testing"

	"dcc/internal/geom"
)

func TestFullCoverageSingleDisk(t *testing.T) {
	target := geom.Square(2)
	// Disk of radius 2 centred at the middle covers the whole 2×2 square
	// (corner distance = √2 < 2).
	rep := Analyze([]geom.Point{{X: 1, Y: 1}}, 2, target, 0.05)
	if !rep.FullyCovered() {
		t.Fatalf("expected full coverage, %d holes, max diameter %v",
			len(rep.Holes), rep.MaxHoleDiameter())
	}
	if rep.CoveredFraction != 1 {
		t.Fatalf("CoveredFraction = %v, want 1", rep.CoveredFraction)
	}
	if rep.MaxHoleDiameter() != 0 {
		t.Fatal("MaxHoleDiameter non-zero for full coverage")
	}
}

func TestNoSensors(t *testing.T) {
	target := geom.Square(4)
	rep := Analyze(nil, 1, target, 0.1)
	if len(rep.Holes) != 1 {
		t.Fatalf("expected one big hole, got %d", len(rep.Holes))
	}
	if rep.CoveredFraction != 0 {
		t.Fatalf("CoveredFraction = %v, want 0", rep.CoveredFraction)
	}
	// The hole spans the whole square; diameter ≈ diagonal = 4√2.
	want := 4 * math.Sqrt2
	if d := rep.MaxHoleDiameter(); math.Abs(d-want) > 0.3 {
		t.Fatalf("hole diameter %v, want ≈%v", d, want)
	}
}

func TestSingleCircularHole(t *testing.T) {
	// Sensors on a dense ring of radius 3 with rs=1 leave a circular hole
	// of radius ≈2 in the middle.
	target := geom.Square(10)
	center := geom.Point{X: 5, Y: 5}
	var sensors []geom.Point
	sensors = append(sensors, geom.CirclePoints(center, 3, 64)...)
	// Cover the outside with a dense grid of sensors beyond radius 3.
	for x := 0.25; x < 10; x += 0.5 {
		for y := 0.25; y < 10; y += 0.5 {
			p := geom.Point{X: x, Y: y}
			if geom.Dist(p, center) > 3.4 {
				sensors = append(sensors, p)
			}
		}
	}
	rep := Analyze(sensors, 1, target, 0.1)
	if len(rep.Holes) != 1 {
		t.Fatalf("expected exactly one hole, got %d", len(rep.Holes))
	}
	// The hole is the disk of radius 3−1=2 → diameter ≈4.
	if d := rep.MaxHoleDiameter(); d < 3.4 || d > 4.4 {
		t.Fatalf("hole diameter %v, want ≈4", d)
	}
	// Area ≈ π·2² ≈ 12.6.
	if a := rep.Holes[0].Area; a < 10 || a > 15 {
		t.Fatalf("hole area %v, want ≈12.6", a)
	}
}

func TestTwoSeparateHoles(t *testing.T) {
	target := geom.Square(12)
	var sensors []geom.Point
	h1 := geom.Point{X: 3, Y: 6}
	h2 := geom.Point{X: 9, Y: 6}
	for x := 0.25; x < 12; x += 0.5 {
		for y := 0.25; y < 12; y += 0.5 {
			p := geom.Point{X: x, Y: y}
			if geom.Dist(p, h1) > 1.9 && geom.Dist(p, h2) > 1.4 {
				sensors = append(sensors, p)
			}
		}
	}
	rep := Analyze(sensors, 1, target, 0.1)
	if len(rep.Holes) != 2 {
		t.Fatalf("expected 2 holes, got %d", len(rep.Holes))
	}
	// Sorted largest first.
	if rep.Holes[0].Diameter < rep.Holes[1].Diameter {
		t.Fatal("holes not sorted by diameter")
	}
}

func TestHolesDisjointAndComplete(t *testing.T) {
	// Cell accounting: covered fraction + hole cells must account for the
	// entire grid.
	rng := rand.New(rand.NewSource(8))
	target := geom.Square(8)
	sensors := geom.UniformPoints(rng, 30, target)
	res := 0.2
	rep := Analyze(sensors, 0.8, target, res)
	cols := int(math.Ceil(target.Width() / res))
	rows := int(math.Ceil(target.Height() / res))
	holeCells := 0
	for _, h := range rep.Holes {
		holeCells += len(h.Cells)
	}
	total := rows * cols
	coveredCells := int(math.Round(rep.CoveredFraction * float64(total)))
	if coveredCells+holeCells != total {
		t.Fatalf("cells: covered %d + holes %d != total %d", coveredCells, holeCells, total)
	}
}

func TestResolutionPanics(t *testing.T) {
	for _, res := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("resolution %v did not panic", res)
				}
			}()
			Analyze(nil, 1, geom.Square(1), res)
		}()
	}
}

func TestDiameterShrinksWithMoreSensors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	target := geom.Square(10)
	prev := math.Inf(1)
	for _, n := range []int{10, 60, 400} {
		sensors := geom.UniformPoints(rng, n, target)
		rep := Analyze(sensors, 1, target, 0.15)
		d := rep.MaxHoleDiameter()
		if d > prev+1 { // allow randomness slack
			t.Fatalf("hole diameter grew markedly with more sensors: %v -> %v", prev, d)
		}
		prev = d
	}
}

func BenchmarkAnalyze(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	target := geom.Square(40)
	sensors := geom.UniformPoints(rng, 1600, target)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(sensors, 1.2, target, 0.25)
	}
}
