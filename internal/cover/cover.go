// Package cover measures ground-truth sensing coverage of an embedded
// network: which parts of the target area are covered by sensing disks,
// what coverage holes remain, and how large they are.
//
// This is the oracle against which the paper's location-free guarantees
// are validated (Proposition 1): after scheduling, every hole's
// circumscribing-circle diameter must respect the τ-confine bound. The
// coverage algorithms never see this package's output; it exists for
// evaluation only.
package cover

import (
	"math"

	"dcc/internal/geom"
)

// Hole is a maximal 4-connected uncovered region of the sampling grid.
type Hole struct {
	// Cells are the centres of the uncovered sample cells.
	Cells []geom.Point
	// Diameter is the diameter of the minimum circle circumscribing the
	// uncovered cell centres — the paper's hole-diameter metric.
	Diameter float64
	// Area is the approximate hole area (cell count × cell area).
	Area float64
}

// Report summarises the coverage of a target area.
type Report struct {
	// Holes lists all uncovered regions, largest diameter first.
	Holes []Hole
	// CoveredFraction is the fraction of sample cells covered.
	CoveredFraction float64
	// Resolution is the sampling cell size used.
	Resolution float64
}

// FullyCovered reports whether no hole was found at the sampling
// resolution.
func (r Report) FullyCovered() bool { return len(r.Holes) == 0 }

// MaxHoleDiameter returns the largest hole diameter (0 when fully covered).
func (r Report) MaxHoleDiameter() float64 {
	if len(r.Holes) == 0 {
		return 0
	}
	return r.Holes[0].Diameter
}

// Analyze samples the target rectangle on a grid with the given cell size
// and reports the uncovered regions given sensing disks of radius rs
// centred at the active points. It panics unless resolution is finite and
// positive.
//
// The sampling introduces a discretisation error of at most one cell
// diagonal in hole diameters; callers comparing against analytic bounds
// should allow that slack.
func Analyze(active []geom.Point, rs float64, target geom.Rect, resolution float64) Report {
	radii := make([]float64, len(active))
	for i := range radii {
		radii[i] = rs
	}
	return AnalyzeRadii(active, radii, target, resolution)
}

// AnalyzeRadii is Analyze for heterogeneous sensing: radii[i] is the
// sensing radius of active[i]. The spatial hash is keyed at the maximum
// radius so the 3×3 neighbourhood query stays sufficient for every disk.
func AnalyzeRadii(active []geom.Point, radii []float64, target geom.Rect, resolution float64) Report {
	if !(resolution > 0) || math.IsInf(resolution, 1) {
		panic("cover: resolution not finite and positive")
	}
	if len(radii) != len(active) {
		panic("cover: radii/active length mismatch")
	}
	cols := int(math.Ceil(target.Width() / resolution))
	rows := int(math.Ceil(target.Height() / resolution))
	if cols <= 0 || rows <= 0 {
		return Report{Resolution: resolution, CoveredFraction: 1}
	}

	maxR := 0.0
	for _, r := range radii {
		if r > maxR {
			maxR = r
		}
	}

	// Spatial hash of active sensors at cell size maxR for O(1) disk
	// queries: a disk of radius ≤ maxR centred anywhere in a cell only
	// reaches the 3×3 neighbourhood of that cell.
	type sensor struct {
		p geom.Point
		r float64
	}
	type cellKey struct{ x, y int }
	idx := make(map[cellKey][]sensor)
	if maxR > 0 {
		for i, p := range active {
			if radii[i] <= 0 {
				continue
			}
			k := cellKey{x: int(math.Floor(p.X / maxR)), y: int(math.Floor(p.Y / maxR))}
			idx[k] = append(idx[k], sensor{p: p, r: radii[i]})
		}
	}
	coveredAt := func(p geom.Point) bool {
		if maxR <= 0 {
			return false
		}
		cx, cy := int(math.Floor(p.X/maxR)), int(math.Floor(p.Y/maxR))
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, s := range idx[cellKey{x: cx + dx, y: cy + dy}] {
					if geom.Dist(p, s.p) <= s.r {
						return true
					}
				}
			}
		}
		return false
	}

	center := func(r, c int) geom.Point {
		return geom.Point{
			X: target.MinX + (float64(c)+0.5)*resolution,
			Y: target.MinY + (float64(r)+0.5)*resolution,
		}
	}

	covered := make([]bool, rows*cols)
	nCovered := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if coveredAt(center(r, c)) {
				covered[r*cols+c] = true
				nCovered++
			}
		}
	}

	// Flood-fill uncovered cells into 4-connected holes.
	seen := make([]bool, rows*cols)
	var holes []Hole
	for start := 0; start < rows*cols; start++ {
		if covered[start] || seen[start] {
			continue
		}
		var cells []geom.Point
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			r, c := cur/cols, cur%cols
			cells = append(cells, center(r, c))
			for _, nb := range [4][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
				nr, nc := nb[0], nb[1]
				if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
					continue
				}
				ni := nr*cols + nc
				if !covered[ni] && !seen[ni] {
					seen[ni] = true
					stack = append(stack, ni)
				}
			}
		}
		mec := geom.MinEnclosingCircle(cells)
		holes = append(holes, Hole{
			Cells:    cells,
			Diameter: 2 * mec.R,
			Area:     float64(len(cells)) * resolution * resolution,
		})
	}
	// Largest first.
	for i := 0; i < len(holes); i++ {
		for j := i + 1; j < len(holes); j++ {
			if holes[j].Diameter > holes[i].Diameter {
				holes[i], holes[j] = holes[j], holes[i]
			}
		}
	}
	return Report{
		Holes:           holes,
		CoveredFraction: float64(nCovered) / float64(rows*cols),
		Resolution:      resolution,
	}
}
