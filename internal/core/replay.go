package core

import (
	"encoding/binary"
	"slices"

	"dcc/internal/graph"
	"dcc/internal/vpt"
)

// The replaying canonical election. An event changes the live graph near
// the nodes it touches, and a node's verdict reads only Γ^k(v), k = ⌈τ/2⌉,
// so the canonical election of the edited graph can differ from the last
// one only where the event's effects reach. Replay keeps the last
// election's trace and runs the same loop (elect) over it: a test that
// provably sees what it saw last time takes the recorded verdict, and its
// deletion commits the recorded dirty ball without a BFS. Every other test
// is computed. The rule, in the terms of DESIGN.md §13:
//
//   - The touched nodes of the events since the last election (Touch) are
//     tainted. A node is marked when it lies within k hops of a tainted
//     node, in the recorded live graph or in the current one.
//   - An untainted, unmarked node at its j-th test returns its recorded
//     j-th verdict. Every other test is computed, and taints its node when
//     the verdict differs from the recorded j-th, or there is none.
//   - When an untainted node's deletion matches its recorded deletion, the
//     nodes whose queue entry only one of the two created are tainted.
//     Every node a tainted node's deletion creates an entry for is
//     tainted. When a node is tainted before it is deleted, the nodes its
//     recorded deletion created entries for are tainted.
//   - Tainting a node marks its k-ball. Nothing clears within an election.
//
// The FIFO never reorders, so an entry's position is fixed by the deletion
// that created it, and entries outside the taint keep their relative
// order. By induction over the tests, an untainted node has so far had the
// same entries, verdicts and liveness as in the record; an unmarked node's
// Γ^k(v) holds only untainted nodes with unchanged adjacency, so it is the
// same labelled graph at the same occurrence, with the same verdict,
// witness and dirty ball. The election, its test count and the trace it
// records therefore equal a plain run's.
//
// Only the recorded graph's touched balls need the recorded graph: a path
// of ≤ k recorded edges that avoids the touched nodes survives every
// event, so ball_rec(u) ⊆ ball_cur(u) ∪ ⋃ ball_rec(x) over the touched x.
// Touch records each touched node's ball in the live graph before its
// event (by induction over the events, these cover the balls in the
// recorded graph), and nodes tainted later are marked in the current graph
// only.

// trace is the record of one canonical election that the next one
// replays. Per-node state is kept by dense index into ids, the recorded
// live graph's nodes in increasing ID order, in a few flat arrays.
type trace struct {
	seed int64
	k    int
	ids  []graph.NodeID
	// Node i's verdict words, in test order, are verdicts[vOff[i]:vOff[i+1]].
	vOff     []int32
	verdicts []vpt.Verdict
	// delOf[i] is node i's deletion number, -1 when it was kept. Deletion
	// d's dirty ball is balls[ballOff[d]:ballOff[d+1]], ascending indices
	// stored as uvarint gaps (appendBall), and the nodes its pushes created
	// queue entries for are created[crOff[d]:crOff[d+1]], ascending. The
	// balls are most of a trace; the gap coding keeps them at about a byte
	// per node on a few thousand nodes.
	delOf          []int32
	ballOff, crOff []int32
	balls          []byte
	created        []int32
}

// appendBall appends the ascending index list ball to dst as uvarint gaps.
func appendBall(dst []byte, ball []int32) []byte {
	prev := int32(-1)
	for _, b := range ball {
		dst = binary.AppendUvarint(dst, uint64(b-prev-1))
		prev = b
	}
	return dst
}

// deletion returns the recorded dirty ball, gap-coded, and the created
// entries of node i's deletion, both empty when node i was kept.
func (t *trace) deletion(i int32) (ball []byte, created []int32) {
	d := t.delOf[i]
	if d < 0 {
		return nil, nil
	}
	return t.balls[t.ballOff[d]:t.ballOff[d+1]], t.created[t.crOff[d]:t.crOff[d+1]]
}

// Taint and mark bits of Replay.flag.
const (
	tainted uint8 = 1 << iota
	marked
)

// testRecord is one test of the running election: the node's dense index
// and its verdict word.
type testRecord struct {
	i int32
	x vpt.Verdict
}

// Replay is the canonical election with a memory of the previous one (see
// above). The zero value is ready: its first Elect runs the plain election
// and records the trace the next one replays. Between elections, Touch
// records what the events change. A Replay is not safe for concurrent use.
type Replay struct {
	last, next trace
	traced     bool // last holds a trace

	// The touched nodes and their pre-event k-balls since the last
	// election, and the length at which they are next deduplicated.
	touched, near []graph.NodeID
	dedupAt       int

	// The running election, by dense index into its live graph g.
	g                *graph.Graph
	cache            *vpt.Cache
	test             func(v graph.NodeID) vpt.Verdict
	on               bool              // replaying last
	full             *graph.DeleteView // g with nothing deleted: the marking balls
	s                *graph.Scratch
	old2new, new2old []int32
	flag             []uint8
	occ              []int32 // tests so far, per node
	log              []testRecord
	replayedYes      bool    // the last test replayed a "yes": Commit takes its recorded ball
	ball             []int32 // the remapped recorded ball Commit takes
	cur              int32   // node whose deletion is being pushed, -1 if none
	curTainted       bool
	work             []int32 // taint worklist
	replayed         int
	dbg              debugReplay
}

// Touch records, before an event changes the live graph, a node whose
// liveness or incident edges the event changes: the node of a join, leave,
// crash or move, and both endpoints of an edge event. ball is x's k-ball
// in the live graph before the event, k = ⌈τ/2⌉: the live nodes within k
// hops of x, x excluded, in any order, and empty when x is not live.
// Touch copies it. A no-op while there is no trace to replay.
func (r *Replay) Touch(x graph.NodeID, ball []graph.NodeID) {
	if !r.traced {
		return
	}
	r.touched = append(r.touched, x)
	r.near = append(r.near, ball...)
	// A long run of events without an election repeats nodes; keep the
	// lists within a constant factor of the distinct nodes they name.
	if len(r.near) > r.dedupAt {
		slices.Sort(r.near)
		r.near = slices.Compact(r.near)
		slices.Sort(r.touched)
		r.touched = slices.Compact(r.touched)
		r.dedupAt = 2*len(r.near) + 4096
	}
}

// Elect runs CanonicalElect over cache, replaying the last election where
// that is exact, and records this election as the trace the next one
// replays. test is the verdict function as in CanonicalElect, returning
// the verdict word (with its witness signature) rather than a bool.
// Successive elections must share seed, τ and boundary; a change of seed
// or τ falls back to the plain election. Returns the deleted nodes in
// deletion order, the number of tests, and how many of them replayed a
// recorded verdict.
func (r *Replay) Elect(net Network, seed int64, cache *vpt.Cache, test func(v graph.NodeID) vpt.Verdict) (deleted []graph.NodeID, tests, replayed int) {
	r.begin(seed, cache, test)
	deleted, tests = elect((*replayResidual)(r), newCanonicalQueue(seed, net.InternalNodes()), r.judge, r.enqueued)
	r.closeDeletion()
	debugCheckReplay(r, net, seed, deleted, tests)
	r.end()
	return deleted, tests, r.replayed
}

// begin sets up the election over cache's live graph: the next trace's
// node list, and when the last trace can be replayed, the index maps
// between the two graphs and the initial taint.
func (r *Replay) begin(seed int64, cache *vpt.Cache, test func(v graph.NodeID) vpt.Verdict) {
	g := cache.View().Base()
	n := g.NumNodes()
	r.g, r.cache, r.test = g, cache, test
	r.replayed, r.cur, r.replayedYes = 0, -1, false
	if r.s == nil {
		r.s = graph.NewScratch(g)
	}
	nx := &r.next
	nx.seed, nx.k = seed, cache.Radius()
	nx.ids = nx.ids[:0]
	for i := range n {
		nx.ids = append(nx.ids, g.NodeAt(i))
	}
	nx.delOf = refill(nx.delOf, n, -1)
	nx.ballOff = append(nx.ballOff[:0], 0)
	nx.crOff = append(nx.crOff[:0], 0)
	nx.balls, nx.created = nx.balls[:0], nx.created[:0]
	r.log = r.log[:0]
	r.occ = refill(r.occ, n, 0)
	r.on = r.traced && r.last.seed == seed && r.last.k == nx.k
	if r.on {
		r.seedTaint()
	}
	r.touched, r.near, r.dedupAt = r.touched[:0], r.near[:0], 0
}

// seedTaint maps the indices between the recorded and the current graph
// and applies the taint rules to the touched nodes.
func (r *Replay) seedTaint() {
	g, ids, n := r.g, r.next.ids, r.g.NumNodes()
	// The two node lists are ascending: one merge maps the indices.
	old := r.last.ids
	r.old2new = refill(r.old2new, len(old), -1)
	r.new2old = refill(r.new2old, n, -1)
	for i, j := 0, 0; i < len(old) && j < n; {
		switch {
		case old[i] < ids[j]:
			i++
		case old[i] > ids[j]:
			j++
		default:
			r.old2new[i], r.new2old[j] = int32(j), int32(i)
			i++
			j++
		}
	}
	r.flag = refill(r.flag, n, 0)
	r.full = graph.NewDeleteView(g)
	for _, x := range r.near {
		if i, ok := g.IndexOf(x); ok {
			r.flag[i] |= marked
		}
	}
	for _, x := range r.touched {
		if i, ok := g.IndexOf(x); ok {
			r.taint(int32(i))
		} else if oi, ok := slices.BinarySearch(old, x); ok {
			// Departed: the entries its recorded deletion created are
			// not created now.
			r.work = r.work[:0]
			r.pushCreated(int32(oi))
			r.drain()
		}
	}
}

// judge is the election's verdict function: replay the recorded verdict
// when exact, else compute it and taint the node if it differs.
func (r *Replay) judge(v graph.NodeID) bool {
	r.closeDeletion()
	vi, _ := r.g.IndexOf(v)
	i := int32(vi)
	rec, has := r.recorded(i)
	r.replayedYes = false
	var x vpt.Verdict
	if has && r.flag[i] == 0 {
		x = rec
		r.replayed++
		debugCheckReplayedVerdict(r, v, x)
		if x.Deletable() {
			r.replayedYes = true
		} else {
			// Later witness hits then behave as in a plain run.
			r.cache.StoreVerdict(v, x)
		}
	} else {
		x = r.test(v)
		if r.on && r.flag[i]&tainted == 0 && (!has || rec.Deletable() != x.Deletable()) {
			r.taint(i)
		}
	}
	r.occ[i]++
	r.log = append(r.log, testRecord{i, x})
	return x.Deletable()
}

// recorded returns node i's recorded verdict at its current occurrence,
// with has false when there is no such record.
func (r *Replay) recorded(i int32) (x vpt.Verdict, has bool) {
	if !r.on || r.new2old[i] < 0 {
		return 0, false
	}
	t, oi := &r.last, r.new2old[i]
	j := t.vOff[oi] + r.occ[i]
	if j >= t.vOff[oi+1] {
		return 0, false
	}
	return t.verdicts[j], true
}

// replayResidual is the running Replay as the election's residual: Commit
// deletes the one node elect hands it from the cache, with the recorded
// ball of a replayed "yes" (remapped to the current graph, which holds all
// of its nodes since the node is unmarked) or a fresh BFS ball, and
// records the deletion.
type replayResidual Replay

func (r *replayResidual) Alive(v graph.NodeID) bool { return r.cache.Alive(v) }

func (r *replayResidual) Commit(del []graph.NodeID) []graph.NodeID {
	v := del[0]
	vi, _ := r.g.IndexOf(v)
	nx := &r.next
	nx.delOf[vi] = int32(len(nx.ballOff) - 1)
	var ball []int32
	if r.replayedYes {
		enc, _ := r.last.deletion(r.new2old[vi])
		r.ball = r.ball[:0]
		for b := int32(-1); len(enc) > 0; {
			gap, n := binary.Uvarint(enc)
			enc = enc[n:]
			b += int32(gap) + 1
			r.ball = append(r.ball, r.old2new[b])
		}
		ball = r.ball
		debugCheckReplayedBall((*Replay)(r), v, ball)
	} else {
		ball = r.cache.View().KHopBallIndices(v, nx.k, r.s)
	}
	nx.balls = appendBall(nx.balls, ball)
	nx.ballOff = append(nx.ballOff, int32(len(nx.balls)))
	r.cur = int32(vi)
	r.curTainted = r.on && r.flag[vi]&tainted != 0
	return r.cache.CommitBall(v, ball)
}

// enqueued records a queue entry the current deletion created. Every node
// a tainted node's deletion enqueues is tainted.
func (r *Replay) enqueued(w graph.NodeID) {
	wi, _ := r.g.IndexOf(w)
	r.next.created = append(r.next.created, int32(wi))
	if r.curTainted {
		r.taint(int32(wi))
	}
}

// closeDeletion ends the record of the deletion whose pushes just ran. When
// its node was untainted, the deletion matched the recorded one, and the
// nodes only one of the two created an entry for are tainted.
func (r *Replay) closeDeletion() {
	if r.cur < 0 {
		return
	}
	nx := &r.next
	now := nx.created[nx.crOff[len(nx.crOff)-1]:]
	nx.crOff = append(nx.crOff, int32(len(nx.created)))
	if r.on && !r.curTainted {
		var was []int32
		if oi := r.new2old[r.cur]; oi >= 0 {
			_, was = r.last.deletion(oi)
		}
		r.work = r.work[:0]
		i, j := 0, 0
		for i < len(now) || j < len(was) {
			w := int32(-1)
			if j < len(was) {
				if w = r.old2new[was[j]]; w < 0 {
					j++ // departed, so tainted from the start
					continue
				}
			}
			switch {
			case j == len(was) || (i < len(now) && now[i] < w):
				r.work = append(r.work, now[i])
				i++
			case i == len(now) || w < now[i]:
				r.work = append(r.work, w)
				j++
			default:
				i++
				j++
			}
		}
		r.drain()
	}
	r.cur = -1
}

// taint taints node i and everything the taint rules reach from it.
func (r *Replay) taint(i int32) {
	r.work = append(r.work[:0], i)
	r.drain()
}

// drain taints the nodes on the worklist: each marks its k-ball in the
// current graph and, when still live (its recorded deletion, if any, is
// ahead), taints the nodes that deletion created entries for.
func (r *Replay) drain() {
	for len(r.work) > 0 {
		i := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		if r.flag[i]&tainted != 0 {
			continue
		}
		r.flag[i] |= tainted | marked
		for _, b := range r.full.KHopBallIndices(r.g.NodeAt(int(i)), r.next.k, r.s) {
			r.flag[b] |= marked
		}
		if r.cache.View().AliveAt(int(i)) {
			if oi := r.new2old[i]; oi >= 0 {
				r.pushCreated(oi)
			}
		}
	}
}

// pushCreated puts on the worklist the current-graph nodes that node oi's
// recorded deletion created entries for.
func (r *Replay) pushCreated(oi int32) {
	_, created := r.last.deletion(oi)
	for _, c := range created {
		if w := r.old2new[c]; w >= 0 {
			r.work = append(r.work, w)
		}
	}
}

// end flattens the test log into the next trace's per-node verdict lists
// and makes it the last trace.
func (r *Replay) end() {
	nx := &r.next
	n := len(nx.ids)
	nx.vOff = refill(nx.vOff, n+1, 0)
	for _, t := range r.log {
		nx.vOff[t.i+1]++
	}
	for i := range n {
		nx.vOff[i+1] += nx.vOff[i]
	}
	nx.verdicts = slices.Grow(nx.verdicts[:0], len(r.log))[:len(r.log)]
	copy(r.occ, nx.vOff[:n]) // per-node write cursors
	for _, t := range r.log {
		nx.verdicts[r.occ[t.i]] = t.x
		r.occ[t.i]++
	}
	r.last, r.next = r.next, r.last
	r.traced = true
	r.g, r.cache, r.test, r.full = nil, nil, nil, nil
}

// refill returns s resized to n elements, every one set to x.
func refill[T any](s []T, n int, x T) []T {
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		s[i] = x
	}
	return s
}
