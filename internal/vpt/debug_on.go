//go:build dccdebug

package vpt

import (
	"fmt"

	"dcc/internal/graph"
)

// Deep assertions for the incremental deletability engine (-tags dccdebug):
// every cached verdict must equal a from-scratch recomputation on a freshly
// materialized graph, the witness of every computed "no" must refute on
// its own, and after every Commit the surviving clean verdicts must
// still be fresh (the dirty-set audit — the k-hop invalidation radius and
// the witnesses of the kept "no"s really covered everything that changed).
//
// The checks rebuild the live graph and re-run the full non-incremental
// test, so they are gated to small instances to keep dccdebug test runs
// tractable; unit tests exercise them on purpose-built graphs under the
// limits.
const (
	debugVerdictLimit = 200 // max live nodes for the per-compute cross-checks
	debugAuditLimit   = 64  // max live nodes for the post-commit audit
)

// debugCheckCacheVerdict cross-checks an incrementally computed verdict
// against VertexDeletable on the materialized live graph.
func debugCheckCacheVerdict(c *Cache, v graph.NodeID, got bool) {
	if c.view.NumLive() > debugVerdictLimit {
		return
	}
	if fresh := VertexDeletable(c.view.Materialize(), v, c.tau); fresh != got {
		panic(fmt.Sprintf("vpt debug: cache verdict for node %d = %v, fresh recomputation = %v (tau=%d)",
			v, got, fresh, c.tau))
	}
}

// debugAuditClean verifies after an invalidation pass that every verdict
// still cached as clean equals fresh recomputation on the post-removal
// graph — i.e. the dirty region was not under-approximated.
func debugAuditClean(c *Cache) {
	if c.view.NumLive() > debugAuditLimit {
		return
	}
	fresh := c.view.Materialize()
	for _, v := range c.view.LiveNodes() {
		i, ok := c.g.IndexOf(v)
		if !ok || c.verdict[i] == verdictUnknown {
			continue
		}
		want := VertexDeletable(fresh, v, c.tau)
		if got := c.verdict[i].Deletable(); got != want {
			panic(fmt.Sprintf("vpt debug: dirty-set audit: node %d cached %v but fresh %v after removal (tau=%d)",
				v, got, want, c.tau))
		}
	}
}

// debugCheckWitness asserts that the witness t.wit of a computed "no"
// refutes on its own: with every node of Γ^k(v) outside it deleted, v is
// still not deletable. The disconnected and unspanned refutations must
// name a non-empty witness, since an empty one keeps the verdict forever.
func debugCheckWitness(c *Cache, v graph.NodeID, x Verdict, t *Tester) {
	if x.Deletable() || x == refutedAnywhere || c.view.NumLive() > debugVerdictLimit {
		return
	}
	if len(t.wit) == 0 && (t.kind == RefutedDisconnected || t.kind == RefutedUnspanned) {
		panic(fmt.Sprintf("vpt debug: node %d: refutation %d without a witness", v, t.kind))
	}
	g := c.view.Materialize()
	in := make(map[graph.NodeID]bool, len(t.wit))
	for _, w := range t.wit {
		in[w] = true
	}
	var del []graph.NodeID
	for _, w := range g.KHopNeighbors(v, c.k) {
		if !in[w] {
			del = append(del, w)
		}
	}
	if VertexDeletable(g.DeleteVertices(del), v, c.tau) {
		panic(fmt.Sprintf("vpt debug: node %d: witness %v alone does not refute (tau=%d)", v, t.wit, c.tau))
	}
}
