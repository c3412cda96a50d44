package shard

import (
	"math"
	"sort"

	"dcc/internal/core"
	"dcc/internal/geom"
	"dcc/internal/graph"
	"dcc/internal/runner"
)

// The coordinator's election protocol. The goal is byte-identity with
// the sequential canonical engine, so the coordinator runs the one true
// core.ElectionQueue and treats the regions purely as verdict servers:
//
//  1. Propose — pop a speculative batch off the queue: a maximal
//     contiguous prefix of the canonical order whose members are
//     pairwise farther apart than k·Rc. Geometric separation beyond
//     k·Rc implies graph distance beyond k (no edge exceeds Rc), which
//     by the dirty-ball lemma makes the members' verdicts mutually
//     independent — each member's verdict on the pre-batch residual
//     equals its verdict at its own sequential turn. The first
//     conflicting pop is pushed back and closes the batch.
//  2. Verdict wave — group the batch by owner region and evaluate
//     deletability on runner.Map. Regions are disjoint across groups, so
//     each vpt.Cache is touched by exactly one worker; results join
//     index-ordered, worker-count-invariant.
//  3. Replay + arbitrate — consume the batch strictly in canonical
//     order. A deletion is committed to every member region (the
//     halo-delta exchange); the regions' dirty sets union to exactly the
//     global dirty set, whose non-boundary members re-enter the queue.
//     Before consuming every member after the first, the coordinator
//     peeks the queue: if a freshly dirtied node outranks the member, the
//     sequential engine would have tested that node first, so that member
//     and the rest of the batch are deferred (their speculative verdicts
//     are discarded — not counted) and a new batch forms. DESIGN.md §15
//     walks the induction.
//
// maxBatch caps speculation per wave; any cap preserves the replay
// argument, it only bounds wasted verdicts when a batch aborts.
const maxBatch = 1024

// candidate is one speculatively popped batch member.
type candidate struct {
	v    graph.NodeID
	prio uint64
}

// elect runs the batched canonical election to fixpoint and returns the
// deleted nodes in deletion order plus the consumed test count — both
// byte-identical to core.CanonicalElect on the global topology.
func (e *engine) elect() ([]graph.NodeID, int, error) {
	internal := make([]graph.NodeID, 0, e.n)
	for i := 0; i < e.n; i++ {
		if !e.in.Boundary[i] {
			internal = append(internal, graph.NodeID(i))
		}
	}
	eq := core.NewElectionQueue(e.opts.Seed, internal)
	hash := newConflictHash(e.conf)
	var (
		deleted []graph.NodeID
		tests   int
		batch   []candidate
	)
	for eq.Len() > 0 {
		// Propose.
		batch = batch[:0]
		hash.reset()
		for len(batch) < maxBatch {
			v, ok := eq.Pop()
			if !ok {
				break
			}
			if !e.alive[v] {
				continue // skipped without a test, like the sequential engine
			}
			p := e.in.Points[v]
			if hash.conflicts(p) {
				eq.Push(v)
				e.stats.Deferred++
				break
			}
			batch = append(batch, candidate{v: v, prio: core.CanonicalPriority(e.opts.Seed, v)})
			hash.add(p)
		}
		if len(batch) == 0 {
			continue
		}
		e.stats.Batches++

		// Verdict wave.
		verdict, err := e.batchVerdicts(batch)
		if err != nil {
			return nil, 0, err
		}

		// Replay + arbitrate.
		for bi, c := range batch {
			// A node dirtied by an earlier deletion of this batch may
			// outrank c: the sequential engine would test it first, so c
			// and the rest of the batch are deferred. The check runs for
			// every member, since a non-deletable member in between
			// dirties nothing and leaves the queue head in place.
			if bi > 0 {
				if p, w, ok := eq.Peek(); ok && (p < c.prio || (p == c.prio && w < c.v)) {
					for _, r := range batch[bi:] {
						eq.Push(r.v)
						e.stats.Deferred++
					}
					break
				}
			}
			tests++
			if !verdict[bi] {
				continue
			}
			deleted = append(deleted, c.v)
			e.alive[c.v] = false
			for _, w := range e.commit(c.v) {
				if !e.in.Boundary[w] {
					eq.Push(w)
				}
			}
		}
	}
	return deleted, tests, nil
}

// batchVerdicts evaluates the batch's deletability on the owner
// regions' caches, one runner.Map job per distinct region.
func (e *engine) batchVerdicts(batch []candidate) ([]bool, error) {
	groups := make(map[int32][]int32)
	var order []int32
	for bi, c := range batch {
		s := e.owner[c.v]
		if _, seen := groups[s]; !seen {
			order = append(order, s)
		}
		groups[s] = append(groups[s], int32(bi))
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	per, err := runner.Map(len(order), e.opts.Workers, func(gi int) ([]bool, error) {
		cache := e.regions[order[gi]].cache
		idxs := groups[order[gi]]
		out := make([]bool, len(idxs))
		for j, bi := range idxs {
			out[j] = cache.Deletable(batch[bi].v)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	verdict := make([]bool, len(batch))
	for gi, s := range order {
		for j, bi := range groups[s] {
			verdict[bi] = per[gi][j]
		}
	}
	return verdict, nil
}

// commit applies the deletion of v to every region holding a replica —
// owner and halo copies alike, so every region's residual view stays
// consistent with the global one — and returns the union of the
// regions' dirty sets, sorted and deduplicated. The owner's dirty set
// is exactly the global k-hop dirty ball (halo invariant) and the
// replicas' sets are subsets of it, so the union equals what the
// unsharded cache's Commit would have reported.
func (e *engine) commit(v graph.NodeID) []graph.NodeID {
	x0, x1, y0, y1 := e.gr.memberRange(e.in.Points[v])
	own := e.owner[v]
	var dirty []graph.NodeID
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			s := int32(cy*e.gr.gx + cx)
			if s != own {
				e.stats.HaloDeltas++
			}
			dirty = append(dirty, e.regions[s].cache.Commit([]graph.NodeID{v})...)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	w := 0
	for i, d := range dirty {
		if i > 0 && dirty[i-1] == d {
			continue
		}
		dirty[w] = d
		w++
	}
	return dirty[:w]
}

// conflictHash is a spatial hash over the current batch's positions
// with cell size equal to the conflict radius: any point within the
// radius of p lies in p's 3×3 cell neighbourhood. Lookups are direct
// map indexing in a fixed cell order — never a map range — so batch
// formation is deterministic.
type conflictHash struct {
	cell float64
	m    map[[2]int32][]geom.Point
	keys [][2]int32 // occupied cells, for O(batch) reset between waves
}

func newConflictHash(cell float64) *conflictHash {
	return &conflictHash{cell: cell, m: make(map[[2]int32][]geom.Point)}
}

func (h *conflictHash) key(p geom.Point) [2]int32 {
	return [2]int32{int32(math.Floor(p.X / h.cell)), int32(math.Floor(p.Y / h.cell))}
}

func (h *conflictHash) reset() {
	for _, k := range h.keys {
		delete(h.m, k)
	}
	h.keys = h.keys[:0]
}

func (h *conflictHash) add(p geom.Point) {
	k := h.key(p)
	if _, ok := h.m[k]; !ok {
		h.keys = append(h.keys, k)
	}
	h.m[k] = append(h.m[k], p)
}

func (h *conflictHash) conflicts(p geom.Point) bool {
	base := h.key(p)
	r2 := h.cell * h.cell
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for _, q := range h.m[[2]int32{base[0] + dx, base[1] + dy}] {
				ddx, ddy := p.X-q.X, p.Y-q.Y
				if ddx*ddx+ddy*ddy <= r2 {
					return true
				}
			}
		}
	}
	return false
}
