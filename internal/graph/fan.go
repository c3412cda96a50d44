package graph

import "math/bits"

// fanMaxOrder is the largest order FanCertified decides; it declines larger
// graphs. Its adjacency rows take n²/64 words, 128 KiB at this order.
const fanMaxOrder = 1024

// FanCertified reports whether a fan order proves that the cycles of
// length ≤ tau span g's cycle space. True is a proof; false means only
// that the certificate declined, and says nothing about the span.
//
// The order v₁…vₙ is breadth-first, with component roots taken in index
// order. Gᵢ is the subgraph induced by v₁…vᵢ and Sᵢ the set of neighbours
// of vᵢ in Gᵢ₋₁. Two components of G[Sᵢ] are linked when they lie at most
// tau − 2 hops apart in Gᵢ₋₁ (never, at tau = 3). The certificate holds
// when, for every i, the links join all components of G[Sᵢ] into one.
// Then a cycle of Gᵢ through vᵢ, vᵢ a P b vᵢ, plus the short cycles along
// a walk from a to b through Sᵢ (the triangle vᵢxy for an edge xy of
// G[Sᵢ], the cycle vᵢ x P′ y vᵢ of length ≤ tau for a link along a
// shortest path P′ of Gᵢ₋₁) is a closed walk in Gᵢ₋₁, so by induction on
// i the short cycles span every Gᵢ (DESIGN.md §4).
//
// Vertex sets are bitsets over order positions: Sᵢ is row i of the
// adjacency cut to the positions below i, and the components and links
// come from flooding rows. Graphs above fanMaxOrder nodes and tau < 3 are
// declined. Runs on the caller's scratch, allocation-free once s is warm.
func (g *Adjacency) FanCertified(s *Scratch, tau int) bool {
	n := len(g.ids)
	if tau < 3 || n > fanMaxOrder {
		return false
	}
	w := (n + 63) >> 6
	rows := g.fanRows(s, w)
	work := s.fan[n*w : (n+5)*w]
	for i := 2; i < n; i++ {
		// Sets over the positions below i take nw words; last masks
		// those positions in the last word.
		nw := (i + 63) >> 6
		last := ^uint64(0) >> (uint(64-i) & 63)
		rem, grp, front := work[:nw], work[w:w+nw], work[2*w:2*w+nw]
		next, seen := work[3*w:3*w+nw], work[4*w:4*w+nw]
		copy(rem, rows[i*w:i*w+nw])
		rem[nw-1] &= last
		// Seed the group with the first earlier neighbour; the root of a
		// component has none.
		k := 0
		for k < nw && rem[k] == 0 {
			k++
		}
		if k == nw {
			continue
		}
		clear(grp)
		grp[k] = rem[k] & -rem[k]
		rem[k] &^= grp[k]
		if emptySet(rem) {
			continue
		}
		copy(front, grp)
		fanFlood(rows, w, front, next, rem, grp)
		for !emptySet(rem) {
			if tau == 3 || !fanLink(rows, w, tau-2, last, front, next, seen, rem, grp) {
				return false
			}
		}
	}
	return true
}

// fanRows lays g's adjacency out in s as bitset rows of w words, row p
// holding the order positions of the neighbours of the vertex at position
// p, with room for five working sets after them, and returns the rows.
func (g *Adjacency) fanRows(s *Scratch, w int) []uint64 {
	n := len(g.ids)
	s.ensure(n)
	ep := s.nextEpoch()
	stamp := s.stamp[:n]
	order := s.queue[:0]
	for r := range stamp {
		if stamp[r] == ep {
			continue
		}
		stamp[r] = ep
		order = append(order, int32(r))
		for qi := len(order) - 1; qi < len(order); qi++ {
			for _, x := range g.adj[order[qi]] {
				if stamp[x] != ep {
					stamp[x] = ep
					order = append(order, x)
				}
			}
		}
	}
	s.queue = order[:0]
	if cap(s.pos) < n {
		s.pos = make([]int32, n)
	}
	pos := s.pos[:n]
	for p, u := range order {
		pos[u] = int32(p)
	}
	if need := (n + 5) * w; cap(s.fan) < need {
		s.fan = make([]uint64, need)
	}
	rows := s.fan[:n*w]
	clear(rows)
	for p, u := range order {
		row := rows[p*w : p*w+w]
		for _, x := range g.adj[u] {
			q := pos[x]
			row[q>>6] |= 1 << (q & 63)
		}
	}
	return rows
}

// fanFlood grows grp by the vertices of rem that G[rem ∪ grp] joins to
// front, the part of grp added last, and removes them from rem. front and
// next are clobbered.
func fanFlood(rows []uint64, w int, front, next, rem, grp []uint64) {
	for {
		orRows(rows, w, front, next)
		grew := false
		for k := range next {
			next[k] &= rem[k]
			if next[k] != 0 {
				grew = true
				rem[k] &^= next[k]
				grp[k] |= next[k]
			}
		}
		if !grew {
			return
		}
		front, next = next, front
	}
}

// fanLink searches the graph on the positions below the current vertex
// (last masks them in the last word) up to hops hops out from grp. At the
// first hop that meets rem, the components of G[rem] it meets join grp and
// leave rem, and fanLink reports true; it reports false when no vertex of
// rem lies within hops hops. front, next and seen are clobbered.
func fanLink(rows []uint64, w, hops int, last uint64, front, next, seen, rem, grp []uint64) bool {
	copy(seen, grp)
	copy(front, grp)
	for h := 0; h < hops; h++ {
		orRows(rows, w, front, next)
		next[len(next)-1] &= last
		met := false
		for k := range next {
			next[k] &^= seen[k]
			seen[k] |= next[k]
			met = met || next[k]&rem[k] != 0
		}
		if met {
			for k := range next {
				next[k] &= rem[k]
				rem[k] &^= next[k]
				grp[k] |= next[k]
			}
			fanFlood(rows, w, next, front, rem, grp)
			return true
		}
		front, next = next, front
	}
	return false
}

// orRows sets out to the union of the rows, cut to len(out) words, of the
// positions in set.
func orRows(rows []uint64, w int, set, out []uint64) {
	clear(out)
	for k, x := range set {
		for x != 0 {
			p := k<<6 | bits.TrailingZeros64(x)
			x &= x - 1
			row := rows[p*w : p*w+len(out)]
			for j, r := range row {
				out[j] |= r
			}
		}
	}
}

// emptySet reports whether the bitset has no member.
func emptySet(set []uint64) bool {
	for _, x := range set {
		if x != 0 {
			return false
		}
	}
	return true
}
