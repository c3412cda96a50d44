package graph

// The searches below name the nodes that keep a deletability verdict
// "no" (internal/vpt): two terminals in different components, a cycle
// outside a span, and the paths that tie it to the terminals. All run on
// the caller's scratch and allocate nothing once it is warm.

// SeparatedTerminal reports whether g is connected, as IsConnectedWith
// does, with one flood from terminals[0] (from index 0 when there is no
// such node). When g is not connected and the flood started at
// terminals[0], b is the first terminal the flood missed, so that b and
// terminals[0] lie in different components, and found reports that there
// is one. In a neighbourhood graph Γ^k(v) with v's direct neighbours as the
// terminals, found always holds when the graph is disconnected: every
// node of Γ^k(v) is reached from v through a direct neighbour.
func (g *Adjacency) SeparatedTerminal(s *Scratch, terminals []NodeID) (b NodeID, found, connected bool) {
	n := len(g.ids)
	if n <= 1 {
		return 0, false, true
	}
	start, ok := 0, false
	if len(terminals) > 0 {
		start, ok = g.index(terminals[0])
	}
	s.ensure(n)
	ep := s.nextEpoch()
	if g.flood(s, int32(start), ep) == n {
		return 0, false, true
	}
	if !ok {
		return 0, false, false
	}
	for _, t := range terminals[1:] {
		if i, ok := g.index(t); ok && s.stamp[i] != ep {
			return t, true, false
		}
	}
	return 0, false, false
}

// FundamentalCycleInto returns the internal indices of the nodes of the
// fundamental cycle of edge e in a spanning forest of g given as the
// edges marked −1 in cot, as CoTreeInto leaves them: the forest path from
// e's V endpoint to its U endpoint, which e closes. e must not be a
// forest edge. The slice aliases s and is valid until s is next used.
func (g *Graph) FundamentalCycleInto(s *Scratch, cot []int32, e int) []int32 {
	n := len(g.ids)
	s.ensureTree(n)
	ep := s.nextEpoch()
	stamp, parent := s.stamp[:n], s.parent[:n]
	u, v := g.edgeU[e], g.edgeV[e]
	stamp[u], parent[u] = ep, -1
	queue := append(s.queue[:0], u)
	for qi := 0; qi < len(queue) && stamp[v] != ep; qi++ {
		x := queue[qi]
		adjE := g.adjEdge[x]
		for ai, w := range g.adj[x] {
			if cot[adjE[ai]] < 0 && stamp[w] != ep {
				stamp[w], parent[w] = ep, x
				queue = append(queue, w)
			}
		}
	}
	s.queue = queue[:0]
	if stamp[v] != ep {
		panic("graph: FundamentalCycleInto: endpoints not joined by the forest")
	}
	path := s.path[:0]
	for x := v; x >= 0; x = parent[x] {
		path = append(path, x)
	}
	s.path = path
	return path
}

// SourcePathsInto returns the internal indices of targets together with
// the nodes of a shortest path from each target to its nearest source,
// each node once: one multi-source BFS from sources, then a walk up its
// tree from every target that stops at a node already taken. Sources
// absent from g are ignored. ok is false when a target is absent or
// reaches no source. The slice aliases s and is valid until s is next
// used.
func (g *Adjacency) SourcePathsInto(s *Scratch, sources, targets []NodeID) (nodes []int32, ok bool) {
	n := len(g.ids)
	s.ensureTree(n)
	ep := s.nextEpoch()
	stamp, parent := s.stamp[:n], s.parent[:n]
	queue := s.queue[:0]
	for _, src := range sources {
		if i, ok := g.index(src); ok && stamp[i] != ep {
			stamp[i], parent[i] = ep, -1
			queue = append(queue, int32(i))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		x := queue[qi]
		for _, w := range g.adj[x] {
			if stamp[w] != ep {
				stamp[w], parent[w] = ep, x
				queue = append(queue, w)
			}
		}
	}
	s.queue = queue[:0]
	// Taken nodes are marked in the local stamps, which the BFS leaves
	// alone.
	lep := s.nextLocalEpoch()
	taken := s.lstamp[:n]
	path := s.path[:0]
	for _, t := range targets {
		i, ok := g.index(t)
		if !ok || stamp[i] != ep {
			s.path = path
			return nil, false
		}
		for x := int32(i); x >= 0 && taken[x] != lep; x = parent[x] {
			taken[x] = lep
			path = append(path, x)
		}
	}
	s.path = path
	return path, true
}
