package graph

// ForEachHortonCandidate enumerates the Horton candidate cycles of the
// graph: for every vertex r (the root) and every non-tree edge (x,y) of a
// BFS shortest-path tree rooted at r whose tree LCA is r, the cycle
// path(r,x) + path(r,y) + (x,y). Candidates are reported as edge-index
// slices (the buffer is reused across calls — callers must copy).
// Enumeration stops early when fn returns false.
//
// maxLen > 0 restricts enumeration to cycles of length ≤ maxLen and bounds
// the BFS depth at ⌊maxLen/2⌋ (sufficient: the two tree paths of a
// candidate differ in depth by at most one). maxLen ≤ 0 is unbounded.
//
// This is the hot path of every void-preserving-transformation test, so it
// works entirely on internal dense indices: no map lookups, and the BFS
// state is reused across roots via an epoch-stamping trick. It runs on a
// pooled scratch; ForEachHortonCandidateWith is the form for callers that
// own one.
func (g *Graph) ForEachHortonCandidate(maxLen int, fn func(root NodeID, length int, edges []int32) bool) {
	s := getScratch(len(g.ids))
	defer putScratch(s)
	g.ForEachHortonCandidateWith(s, maxLen, fn)
}

// ForEachHortonCandidateWith is ForEachHortonCandidate with the BFS state
// and the candidate buffer in the caller's scratch, allocation-free once s
// is warm. The edges slice handed to fn aliases s.
func (g *Graph) ForEachHortonCandidateWith(s *Scratch, maxLen int, fn func(root NodeID, length int, edges []int32) bool) {
	n := len(g.ids)
	if n == 0 || len(g.edges) == 0 {
		return
	}
	depthLimit := -1
	if maxLen > 0 {
		depthLimit = maxLen / 2
	}

	// Dense endpoint arrays for the edge scan, precomputed at Build time.
	eu, ev := g.edgeU, g.edgeV

	s.ensureTree(n)
	// Exact-length views: the compiler drops bounds checks it can prove
	// against n, which measurably speeds up the per-root loops.
	depth, parent, parentEdge := s.depth[:n], s.parent[:n], s.parentEdge[:n]
	stamp := s.stamp[:n] // BFS epoch a node was last visited in
	queue := s.queue[:0]
	buf := s.path[:0]

	for ri := 0; ri < n; ri++ {
		epoch := s.nextEpoch()
		queue = queue[:0]
		queue = append(queue, int32(ri))
		stamp[ri] = epoch
		depth[ri] = 0
		parent[ri] = -1
		parentEdge[ri] = -1
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			if depthLimit >= 0 && int(depth[u]) >= depthLimit {
				continue
			}
			adj := g.adj[u]
			adjE := g.adjEdge[u]
			for ai, w := range adj {
				if stamp[w] != epoch {
					stamp[w] = epoch
					depth[w] = depth[u] + 1
					parent[w] = u
					parentEdge[w] = adjE[ai]
					queue = append(queue, w)
				}
			}
		}

		for ei := range g.edges {
			x, y := eu[ei], ev[ei]
			if stamp[x] != epoch || stamp[y] != epoch {
				continue
			}
			if parentEdge[x] == int32(ei) || parentEdge[y] == int32(ei) {
				continue // tree edge
			}
			length := int(depth[x]+depth[y]) + 1
			if maxLen > 0 && length > maxLen {
				continue
			}
			// LCA must be the root: walk both ends upward to equal depth,
			// then in lockstep.
			a, b := x, y
			for depth[a] > depth[b] {
				a = parent[a]
			}
			for depth[b] > depth[a] {
				b = parent[b]
			}
			for a != b {
				a = parent[a]
				b = parent[b]
			}
			if int(a) != ri {
				continue
			}
			buf = buf[:0]
			buf = append(buf, int32(ei))
			for c := x; parentEdge[c] >= 0; c = parent[c] {
				buf = append(buf, parentEdge[c])
			}
			for c := y; parentEdge[c] >= 0; c = parent[c] {
				buf = append(buf, parentEdge[c])
			}
			if !fn(g.ids[ri], length, buf) {
				s.queue, s.path = queue[:0], buf[:0]
				return
			}
		}
	}
	s.queue, s.path = queue[:0], buf[:0]
}
