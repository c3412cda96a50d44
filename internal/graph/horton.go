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
	g.ForEachHortonCandidateWith(s, maxLen, nil, fn)
}

// ForEachHortonCandidateWith is ForEachHortonCandidate with the BFS state
// and the candidate buffer in the caller's scratch, allocation-free once s
// is warm. The edges slice handed to fn aliases s.
//
// labels, when non-nil, holds one word per edge index and filters the
// candidates: the label of a cycle is the XOR of its edges' labels, and a
// candidate whose label is zero is skipped before its edge list is built.
// fn may change labels; the enumeration reads the current ones after every
// call. With nil labels every candidate is enumerated.
//
// A candidate's label needs no walk: each tree node carries the XOR of the
// labels on its tree path to the root, and the candidate's label is the XOR
// of its endpoints' sums and its edge's label. Nor does the LCA test: each
// tree node carries the child of the root its tree path leaves through, and
// the LCA of x and y is the root exactly when those differ.
func (g *Graph) ForEachHortonCandidateWith(s *Scratch, maxLen int, labels []uint64, fn func(root NodeID, length int, edges []int32) bool) {
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
	branch := s.branch[:n] // the root's child on the tree path, the root for itself
	stamp := s.stamp[:n]   // BFS epoch a node was last visited in
	var sum []uint64       // label XOR along the tree path, with labels only
	if labels != nil {
		if len(s.sum) < n {
			s.sum = make([]uint64, n)
		}
		sum = s.sum[:n]
	}
	queue := s.queue[:0]
	buf := s.path[:0]

	for ri := 0; ri < n; ri++ {
		root := int32(ri)
		epoch := s.nextEpoch()
		queue = queue[:0]
		queue = append(queue, root)
		stamp[ri] = epoch
		depth[ri] = 0
		parent[ri] = -1
		parentEdge[ri] = -1
		branch[ri] = root
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			if depthLimit >= 0 && int(depth[u]) >= depthLimit {
				continue
			}
			adj := g.adj[u]
			adjE := g.adjEdge[u]
			bu := branch[u]
			for ai, w := range adj {
				if stamp[w] != epoch {
					stamp[w] = epoch
					depth[w] = depth[u] + 1
					parent[w] = u
					parentEdge[w] = adjE[ai]
					if u == root {
						branch[w] = w
					} else {
						branch[w] = bu
					}
					queue = append(queue, w)
				}
			}
		}
		if sum != nil {
			sumLabels(queue, parent, parentEdge, labels, sum)
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
			// A non-tree edge never meets the root, whose edges are all
			// tree edges, so the LCA is the root exactly when x and y hang
			// from different children of it.
			if branch[x] == branch[y] {
				continue
			}
			if sum != nil && sum[x]^sum[y]^labels[ei] == 0 {
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
			if sum != nil {
				sumLabels(queue, parent, parentEdge, labels, sum)
			}
		}
	}
	s.queue, s.path = queue[:0], buf[:0]
}

// sumLabels sets the label sum of every node of a BFS tree, given in
// visiting order with its root first: the root's is 0, and every other
// node's is its parent's XOR the label of its tree edge.
func sumLabels(order, parent, parentEdge []int32, labels, sum []uint64) {
	sum[order[0]] = 0
	for _, w := range order[1:] {
		sum[w] = sum[parent[w]] ^ labels[parentEdge[w]]
	}
}
