// Package geom provides the planar-geometry substrate for network
// simulation: points, rectangles, deployment generators, communication
// link models (UDG, quasi-UDG) and minimum enclosing circles.
//
// Geometry exists only on the simulation side of the reproduction: the
// coverage algorithms themselves never see coordinates (the paper's whole
// point), but generating networks, validating Proposition 1 and rendering
// figures all require an embedding.
package geom

import (
	"fmt"
	"math"
	"math/rand"

	"dcc/internal/graph"
)

// Point is a point in the Euclidean plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b Point) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// Rect is an axis-aligned rectangle.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Square returns the square [0,side]².
func Square(side float64) Rect {
	return Rect{MaxX: side, MaxY: side}
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the rectangle's area.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies in the closed rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Shrink returns the rectangle shrunk inward by d on every side.
func (r Rect) Shrink(d float64) Rect {
	return Rect{MinX: r.MinX + d, MinY: r.MinY + d, MaxX: r.MaxX - d, MaxY: r.MaxY - d}
}

// BorderDist returns the distance from p to the rectangle border (0 outside
// or on the border).
func (r Rect) BorderDist(p Point) float64 {
	if !r.Contains(p) {
		return 0
	}
	d := math.Min(p.X-r.MinX, r.MaxX-p.X)
	d = math.Min(d, p.Y-r.MinY)
	return math.Min(d, r.MaxY-p.Y)
}

// UniformPoints places n points uniformly at random in rect.
func UniformPoints(rng *rand.Rand, n int, rect Rect) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			X: rect.MinX + rng.Float64()*rect.Width(),
			Y: rect.MinY + rng.Float64()*rect.Height(),
		}
	}
	return pts
}

// PerturbedGrid places points on a rows×cols grid covering rect, each
// perturbed uniformly by ±jitter in both axes (clamped to rect).
func PerturbedGrid(rng *rand.Rand, rows, cols int, rect Rect, jitter float64) []Point {
	pts := make([]Point, 0, rows*cols)
	dx := rect.Width() / float64(cols)
	dy := rect.Height() / float64(rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			p := Point{
				X: rect.MinX + (float64(c)+0.5)*dx + (rng.Float64()*2-1)*jitter,
				Y: rect.MinY + (float64(r)+0.5)*dy + (rng.Float64()*2-1)*jitter,
			}
			p.X = math.Min(math.Max(p.X, rect.MinX), rect.MaxX)
			p.Y = math.Min(math.Max(p.Y, rect.MinY), rect.MaxY)
			pts = append(pts, p)
		}
	}
	return pts
}

// RingPoints places points evenly along the border of rect, spaced at most
// maxSpacing apart, in counter-clockwise order starting at (MinX, MinY).
func RingPoints(rect Rect, maxSpacing float64) []Point {
	if maxSpacing <= 0 {
		panic(fmt.Sprintf("geom: non-positive ring spacing %v", maxSpacing))
	}
	var pts []Point
	side := func(a, b Point) {
		d := Dist(a, b)
		steps := int(math.Ceil(d / maxSpacing))
		for i := 0; i < steps; i++ {
			t := float64(i) / float64(steps)
			pts = append(pts, Point{X: a.X + t*(b.X-a.X), Y: a.Y + t*(b.Y-a.Y)})
		}
	}
	c1 := Point{X: rect.MinX, Y: rect.MinY}
	c2 := Point{X: rect.MaxX, Y: rect.MinY}
	c3 := Point{X: rect.MaxX, Y: rect.MaxY}
	c4 := Point{X: rect.MinX, Y: rect.MaxY}
	side(c1, c2)
	side(c2, c3)
	side(c3, c4)
	side(c4, c1)
	return pts
}

// CirclePoints places n points evenly on the circle of the given center and
// radius, counter-clockwise.
func CirclePoints(center Point, radius float64, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = Point{X: center.X + radius*math.Cos(a), Y: center.Y + radius*math.Sin(a)}
	}
	return pts
}

// RcForAvgDegree returns the UDG communication radius that yields the given
// expected average node degree for n nodes deployed uniformly in an area:
// deg ≈ n·π·Rc²/area.
func RcForAvgDegree(n int, area, avgDegree float64) float64 {
	return math.Sqrt(avgDegree * area / (math.Pi * float64(n)))
}

// cellIndex keys the uniform spatial hash used by the link-model builders.
type cellIndex struct{ cx, cy int }

// buildIndex hashes points into cells of the given size.
func buildIndex(pts []Point, cell float64) map[cellIndex][]int {
	idx := make(map[cellIndex][]int, len(pts))
	for i, p := range pts {
		c := cellIndex{cx: int(math.Floor(p.X / cell)), cy: int(math.Floor(p.Y / cell))}
		idx[c] = append(idx[c], i)
	}
	return idx
}

// pairsWithin calls fn for every unordered pair (i<j) of points at distance
// ≤ maxDist, using a spatial hash for near-linear performance.
func pairsWithin(pts []Point, maxDist float64, fn func(i, j int, d float64)) {
	idx := buildIndex(pts, maxDist)
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

// UDG builds the unit-disk graph: node i ↔ node j iff dist ≤ rc. Node IDs
// are the point indices.
func UDG(pts []Point, rc float64) *graph.Graph {
	b := graph.NewBuilder()
	for i := range pts {
		b.AddNode(graph.NodeID(i))
	}
	pairsWithin(pts, rc, func(i, j int, _ float64) {
		b.AddEdge(graph.NodeID(i), graph.NodeID(j))
	})
	return b.MustBuild()
}

// QuasiUDG builds a quasi unit-disk graph (Kuhn et al.): pairs within rIn
// are always connected; pairs in (rIn, rOut] are connected independently
// with probability p; pairs beyond rOut never. rOut is the maximum
// communication range Rc of the confine-coverage model.
func QuasiUDG(rng *rand.Rand, pts []Point, rIn, rOut, p float64) *graph.Graph {
	b := graph.NewBuilder()
	for i := range pts {
		b.AddNode(graph.NodeID(i))
	}
	pairsWithin(pts, rOut, func(i, j int, d float64) {
		if d <= rIn || rng.Float64() < p {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	})
	return b.MustBuild()
}

// Circle is a circle in the plane.
type Circle struct {
	Center Point
	R      float64
}

// contains reports whether p is inside the circle with a small tolerance.
func (c Circle) contains(p Point) bool {
	return Dist(c.Center, p) <= c.R*(1+1e-10)+1e-12
}

// MinEnclosingCircle returns the smallest circle containing all points
// (Welzl's algorithm, iterative move-to-front variant). The empty set
// yields a zero circle.
func MinEnclosingCircle(pts []Point) Circle {
	switch len(pts) {
	case 0:
		return Circle{}
	case 1:
		return Circle{Center: pts[0]}
	}
	// Work on a copy in a deterministic shuffled order: Welzl's expected
	// linear time needs a random-ish order, and determinism keeps results
	// reproducible.
	ps := append([]Point(nil), pts...)
	//lint:ignore seedflow fixed shuffle order is part of the algorithm, not an experiment: the circle is order-independent, only the expected running time needs a scrambled input, and a constant keeps it Config-independent
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })

	c := circleFrom2(ps[0], ps[1])
	for i := 2; i < len(ps); i++ {
		if c.contains(ps[i]) {
			continue
		}
		c = circleFrom2(ps[i], ps[0])
		for j := 1; j < i; j++ {
			if c.contains(ps[j]) {
				continue
			}
			c = circleFrom2(ps[i], ps[j])
			for k := 0; k < j; k++ {
				if !c.contains(ps[k]) {
					c = circleFrom3(ps[i], ps[j], ps[k])
				}
			}
		}
	}
	return c
}

func circleFrom2(a, b Point) Circle {
	center := Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
	return Circle{Center: center, R: Dist(a, b) / 2}
}

func circleFrom3(a, b, c Point) Circle {
	ax, ay := b.X-a.X, b.Y-a.Y
	bx, by := c.X-a.X, c.Y-a.Y
	d := 2 * (ax*by - ay*bx)
	if math.Abs(d) < 1e-14 {
		// Degenerate (collinear): fall back to the widest 2-point circle.
		c1, c2, c3 := circleFrom2(a, b), circleFrom2(b, c), circleFrom2(a, c)
		best := c1
		if c2.R > best.R {
			best = c2
		}
		if c3.R > best.R {
			best = c3
		}
		return best
	}
	ux := (by*(ax*ax+ay*ay) - ay*(bx*bx+by*by)) / d
	uy := (ax*(bx*bx+by*by) - bx*(ax*ax+ay*ay)) / d
	center := Point{X: a.X + ux, Y: a.Y + uy}
	return Circle{Center: center, R: Dist(center, a)}
}
