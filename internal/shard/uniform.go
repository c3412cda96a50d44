package shard

import (
	"math/rand"

	"dcc/internal/geom"
)

// UniformInput synthesizes a uniform deployment in Input form: interior
// nodes uniformly at random in the side×side square plus an undeletable
// boundary ring on its border, spaced rc/2 apart so the frame stays
// connected. Input.G is nil, so Schedule derives the unit-disk links
// (i ↔ j iff dist ≤ rc). Node IDs are interior first (0..n-1), ring
// after.
//
// The generator is a bench/scale harness, not a paper scenario: it skips
// the Deploy-level support band and obstacle handling, because Schedule's
// contract is topology-in, schedule-out.
func UniformInput(seed int64, interior int, side, rc float64) Input {
	rng := rand.New(rand.NewSource(seed))
	rect := geom.Square(side)
	pts := geom.UniformPoints(rng, interior, rect)
	ring := geom.RingPoints(rect, rc/2)
	all := append(pts, ring...)
	boundary := make([]bool, len(all))
	for i := interior; i < len(all); i++ {
		boundary[i] = true
	}
	return Input{Points: all, Rc: rc, Boundary: boundary}
}
