package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// replayWorld is a geometric deployment under edits: nodes with positions
// and liveness, unit-disk edges among the live nodes, and flipped node
// pairs whose edge inverts the unit-disk rule. Boundary nodes (those near
// the border at genesis) never change; every edit touches internal nodes.
type replayWorld struct {
	rng      *rand.Rand
	side, rc float64
	pos      []geom.Point
	alive    []bool
	boundary map[graph.NodeID]bool
	flipped  map[graph.Edge]bool
}

func newReplayWorld(seed int64, n int, degree float64) *replayWorld {
	w := &replayWorld{
		rng:      rand.New(rand.NewSource(seed)),
		side:     10,
		boundary: make(map[graph.NodeID]bool),
		flipped:  make(map[graph.Edge]bool),
	}
	rect := geom.Square(w.side)
	w.rc = geom.RcForAvgDegree(n, rect.Area(), degree)
	w.pos = geom.UniformPoints(w.rng, n, rect)
	w.alive = make([]bool, n)
	for i, p := range w.pos {
		w.alive[i] = true
		if rect.BorderDist(p) < w.rc/2 {
			w.boundary[graph.NodeID(i)] = true
		}
	}
	return w
}

func (w *replayWorld) network() Network {
	b := graph.NewBuilder()
	for i, ok := range w.alive {
		if ok {
			b.AddNode(graph.NodeID(i))
		}
	}
	for i := range w.pos {
		for j := i + 1; j < len(w.pos); j++ {
			e := graph.NormEdge(graph.NodeID(i), graph.NodeID(j))
			if w.alive[i] && w.alive[j] && (geom.Dist(w.pos[i], w.pos[j]) <= w.rc) != w.flipped[e] {
				b.AddEdge(e.U, e.V)
			}
		}
	}
	return Network{G: b.MustBuild(), Boundary: w.boundary}
}

// internal returns a random live internal node, ok false if there is none.
func (w *replayWorld) internal() (graph.NodeID, bool) {
	var live []graph.NodeID
	for i, ok := range w.alive {
		if ok && !w.boundary[graph.NodeID(i)] {
			live = append(live, graph.NodeID(i))
		}
	}
	if len(live) == 0 {
		return 0, false
	}
	return live[w.rng.Intn(len(live))], true
}

func (w *replayWorld) randPoint() geom.Point {
	m := w.rc / 2
	return geom.Point{X: m + w.rng.Float64()*(w.side-2*m), Y: m + w.rng.Float64()*(w.side-2*m)}
}

// Edit kinds.
const (
	editJoin = iota
	editLeave
	editMove
	editFlip
	numEdits
)

// edit picks an edit of the given kind, calls touch with every node whose
// liveness or incident edges it changes while the world still shows the
// graph before it, then applies it. It reports false when the world
// offers no node to edit.
func (w *replayWorld) edit(kind int, touch func(x graph.NodeID)) bool {
	switch kind {
	case editJoin:
		// Revive a departed node at a fresh position, or add a new one.
		for i, ok := range w.alive {
			if !ok && w.rng.Intn(2) == 0 {
				touch(graph.NodeID(i))
				w.pos[i], w.alive[i] = w.randPoint(), true
				return true
			}
		}
		v := graph.NodeID(len(w.pos))
		touch(v)
		w.pos = append(w.pos, w.randPoint())
		w.alive = append(w.alive, true)
	case editLeave:
		v, ok := w.internal()
		if !ok {
			return false
		}
		touch(v)
		w.alive[v] = false
	case editMove:
		v, ok := w.internal()
		if !ok {
			return false
		}
		touch(v)
		p := w.pos[v]
		p.X = min(max(p.X+(w.rng.Float64()-0.5)*w.rc, 0), w.side)
		p.Y = min(max(p.Y+(w.rng.Float64()-0.5)*w.rc, 0), w.side)
		w.pos[v] = p
	case editFlip:
		u, ok := w.internal()
		if !ok {
			return false
		}
		v, _ := w.internal()
		if u == v {
			return false
		}
		touch(u)
		touch(v)
		e := graph.NormEdge(u, v)
		w.flipped[e] = !w.flipped[e]
	}
	return true
}

// traceVerdict is a plain cache's verdict function in Replay's form.
func traceVerdict(c *vpt.Cache) func(graph.NodeID) vpt.Verdict {
	return func(v graph.NodeID) vpt.Verdict {
		c.Deletable(v)
		x, _ := c.Cached(v)
		return x
	}
}

// traceEqual reports whether two traces record the same election.
func traceEqual(a, b *trace) bool {
	return a.seed == b.seed && a.k == b.k && slices.Equal(a.ids, b.ids) &&
		slices.Equal(a.vOff, b.vOff) && slices.Equal(a.verdicts, b.verdicts) &&
		slices.Equal(a.delOf, b.delOf) && slices.Equal(a.ballOff, b.ballOff) &&
		slices.Equal(a.crOff, b.crOff) && slices.Equal(a.balls, b.balls) &&
		slices.Equal(a.created, b.created)
}

// checkReplayElection runs r's election over net and fails unless it
// equals the plain canonical election of the same graph — deletion order
// and test count — and records the trace a fresh Replay records there.
// It returns the election's tests and replayed tests.
func checkReplayElection(t *testing.T, r *Replay, net Network, seed int64, tau int) (tests, replayed int) {
	t.Helper()
	cache := vpt.NewCache(net.G, tau)
	deleted, tests, replayed := r.Elect(net, seed, cache, traceVerdict(cache))
	plain := vpt.NewCache(net.G, tau)
	want, wantTests := CanonicalElect(net, seed, plain, plain.Deletable)
	if !slices.Equal(deleted, want) || tests != wantTests {
		t.Fatalf("replayed election deleted %d nodes in %d tests, the plain election %d in %d (orders equal: %v)",
			len(deleted), tests, len(want), wantTests, slices.Equal(deleted, want))
	}
	var fresh Replay
	fc := vpt.NewCache(net.G, tau)
	fresh.Elect(net, seed, fc, traceVerdict(fc))
	if !traceEqual(&r.last, &fresh.last) {
		t.Fatal("replayed election recorded a different trace from the plain election")
	}
	return tests, replayed
}

// TestReplayMatchesCanonical is the replay's differential test: seeded
// unit-disk deployments take joins, leaves, moves with re-derived edges
// and edge flips, one at a time and in batches of five, and every election
// replaying the last must equal a plain canonical election of the same
// graph in deletion order, test count and recorded trace. Single-edit
// elections must mostly replay, or the test would only exercise the
// fallback.
func TestReplayMatchesCanonical(t *testing.T) {
	cases := []struct {
		n      int
		degree float64
		tau    int
		batch  int
	}{
		{200, 10, 6, 1},
		{300, 14, 4, 1},
		{500, 12, 5, 1},
		{800, 12, 3, 1},
		{400, 12, 4, 5},
		{600, 10, 3, 5},
		{300, 12, 6, 5},
	}
	steps := 10
	if testing.Short() {
		steps = 4
	}
	for ci, tc := range cases {
		t.Run(fmt.Sprintf("n%d_tau%d_batch%d", tc.n, tc.tau, tc.batch), func(t *testing.T) {
			seed := int64(1000 + ci)
			w := newReplayWorld(seed, tc.n, tc.degree)
			var r Replay
			k := vpt.NeighborhoodRadius(tc.tau)
			net := w.network()
			checkReplayElection(t, &r, net, seed, tc.tau)
			var tests, replayed int
			for step := 0; step < steps; step++ {
				for c := 0; c < tc.batch; c++ {
					g := net.G
					w.edit(w.rng.Intn(numEdits), func(x graph.NodeID) { r.Touch(x, g.KHopNeighbors(x, k)) })
					net = w.network()
				}
				n, k := checkReplayElection(t, &r, net, seed, tc.tau)
				tests += n
				replayed += k
			}
			share := float64(replayed) / float64(tests)
			t.Logf("%d of %d tests replayed (%.2f)", replayed, tests, share)
			if tc.batch == 1 && share <= 0.5 {
				t.Fatalf("only %d of %d tests replayed on single edits", replayed, tests)
			}
		})
	}
}

// TestReplayFallsBackOnSeedChange: an election under another seed runs
// plain and records its own trace, and an election of an unchanged graph
// replays every test.
func TestReplayFallsBackOnSeedChange(t *testing.T) {
	net := newReplayWorld(7, 150, 12).network()
	var r Replay
	checkReplayElection(t, &r, net, 7, 4)
	if _, replayed := checkReplayElection(t, &r, net, 8, 4); replayed != 0 {
		t.Fatalf("election under a new seed replayed %d tests", replayed)
	}
	if tests, replayed := checkReplayElection(t, &r, net, 8, 4); replayed != tests {
		t.Fatalf("election of an unchanged graph replayed %d of %d tests", replayed, tests)
	}
}

// fuzzReplay decodes fuzz bytes into a sparse unit-disk deployment, a
// confine size and the edits between two elections. Missing bytes read
// as 0.
//
//	byte 0–1  deployment and edit seed
//	byte 2    nodes, 20–80
//	byte 3    average degree, 5–12
//	byte 4    tau, 3–6
//	byte 5    edits, 1–4
//	byte 6–9  edit kinds: join, leave, move, flip (mod 4)
func fuzzReplay(data []byte) (w *replayWorld, seed int64, tau int, kinds []int) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	seed = int64(at(0) | at(1)<<8)
	w = newReplayWorld(seed, 20+at(2)%61, float64(5+at(3)%8))
	for i := range 1 + at(5)%4 {
		kinds = append(kinds, at(6+i)%numEdits)
	}
	return w, seed, 3 + at(4)%4, kinds
}

// FuzzCanonicalReplay: after any edits, the election replaying the last
// equals the plain canonical election of the edited graph in deletion
// order, test count and recorded trace.
func FuzzCanonicalReplay(f *testing.F) {
	f.Add([]byte{1, 0, 40, 3, 1, 3, 1, 3, 0, 0}) // tau 4: leave, flip, join, join
	f.Add([]byte{5, 0, 60, 5, 2, 1, 3, 1})       // tau 5: flip, leave
	f.Add([]byte{9, 0, 60, 1, 0, 0, 1})          // tau 3: leave
	f.Add([]byte{3, 0, 30, 7, 3, 2, 2, 3, 1})    // tau 6: move, flip, leave
	f.Fuzz(func(t *testing.T, data []byte) {
		w, seed, tau, kinds := fuzzReplay(data)
		var r Replay
		k := vpt.NeighborhoodRadius(tau)
		net := w.network()
		checkReplayElection(t, &r, net, seed, tau)
		for _, kind := range kinds {
			g := net.G
			w.edit(kind, func(x graph.NodeID) { r.Touch(x, g.KHopNeighbors(x, k)) })
			net = w.network()
		}
		checkReplayElection(t, &r, net, seed, tau)
	})
}
