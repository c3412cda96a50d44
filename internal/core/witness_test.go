package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// witnessResidual is the election's residual over a Cache that, after
// every deletion, checks each dirty verdict the witness rule kept cached
// against VertexDeletable on the materialized live graph.
type witnessResidual struct {
	t     *testing.T
	label string
	cache *vpt.Cache
	kept  int
}

func (r *witnessResidual) Alive(v graph.NodeID) bool { return r.cache.Alive(v) }

func (r *witnessResidual) Delete(v graph.NodeID) []int32 {
	dirty := r.cache.CommitBall(v, r.cache.Ball(v))
	var live *graph.Graph
	for _, wi := range dirty {
		w := r.cache.View().Base().NodeAt(int(wi))
		x, ok := r.cache.Cached(w)
		if !ok {
			continue
		}
		if live == nil {
			live = r.cache.LiveGraph()
		}
		r.kept++
		if want := vpt.VertexDeletable(live, w, r.cache.Tau()); x.Deletable() != want {
			r.t.Fatalf("%s: after deleting %d, node %d kept %v but fresh says %v",
				r.label, v, w, x.Deletable(), want)
		}
	}
	return dirty
}

// TestWitnessKeptVerdictsMatchFresh is the release-build differential of
// witness-carrying "no" verdicts: seeded unit-disk graphs of 150–400 nodes,
// sparse and dense, at τ = 3…6, run through the Sequential and Canonical
// elections, and after every Commit each verdict the cache kept must equal
// fresh recomputation. The dccdebug audit cannot see these balls: it stops
// at 64 live nodes.
func TestWitnessKeptVerdictsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const side = 10.0
	for _, density := range []struct {
		name   string
		degree float64
	}{{"sparse", 7}, {"dense", 18}} {
		for tau := 3; tau <= 6; tau++ {
			n := 150 + rng.Intn(251)
			rc := math.Sqrt(density.degree * side * side / (math.Pi * float64(n)))
			g := geom.UDG(geom.UniformPoints(rng, n, geom.Square(side)), rc)
			nodes := g.Nodes()
			order := slices.Clone(nodes)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, run := range []struct {
				engine string
				q      *fifoQueue
			}{
				{"sequential", newFIFOQueue(g, order)},
				{"canonical", newCanonicalQueue(g, rng.Int63(), nodes)},
			} {
				cache := vpt.NewCache(g, tau)
				res := &witnessResidual{t: t, cache: cache}
				res.label = density.name + "/" + run.engine
				deleted, _ := elect(res, run.q, cache.Deletable, nil)
				if len(deleted) == 0 || res.kept == 0 {
					t.Fatalf("%s n=%d tau=%d: %d deletions, %d kept verdicts — the instance exercises nothing",
						res.label, n, tau, len(deleted), res.kept)
				}
				t.Logf("%s n=%d tau=%d: %d deletions, %d kept verdicts checked", res.label, n, tau, len(deleted), res.kept)
			}
		}
	}
}
