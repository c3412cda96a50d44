package vpt

import (
	"dcc/internal/cycles"
	"dcc/internal/graph"
)

// Verdict is a cached deletability verdict in one word: VerdictDeletable,
// or a "no" whose low 63 bits are the signature of its witness — a few
// nodes of Γ^k(v) whose survival keeps the verdict "no" under any later
// deletion (DESIGN.md §11). The signature is a Bloom filter over the
// witness's node IDs, not base indices, so a Verdict stays valid in any
// Cache over the same labelled Γ^k(v); the streaming engine's memo
// carries Verdicts across re-elections.
type Verdict uint64

const (
	// VerdictDeletable is the "yes" verdict.
	VerdictDeletable Verdict = 1<<64 - 1
	// refutedAnywhere is a "no" without a witness: every signature bit is
	// set, so any deletion in its ball invalidates it.
	refutedAnywhere Verdict = 1<<63 - 1
	// verdictUnknown and verdictStale are the Cache's "not cached" and
	// "invalidated by the current removal" marks, never handed out.
	verdictUnknown Verdict = 1 << 63
	verdictStale   Verdict = 1<<63 | 1
)

// Deletable reports whether x is the "yes" verdict.
func (x Verdict) Deletable() bool { return x == VerdictDeletable }

// probes returns the signature bits of node v: four probes into the 63
// signature bits, taken from one 64-bit mix of its ID.
func probes(v graph.NodeID) Verdict {
	h := uint64(v)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	var m Verdict
	for i := 0; i < 4; i++ {
		m |= 1 << ((h >> (16 * i) & 0xffff) * 63 >> 16)
	}
	return m
}

// touchedBy reports whether deleting a node with probe bits m may break
// the cached verdict x: all of m's bits are set in x's signature. The yes
// verdict (every bit set) and refutedAnywhere are touched by every node,
// verdictUnknown by none.
func (x Verdict) touchedBy(m Verdict) bool { return x&m == m }

// Refutation names the part of the test that refuted a "no" verdict. Each
// kind has its own witness (DESIGN.md §11).
type Refutation int

const (
	// RefutedEmpty: Γ^k(v) is empty, or τ < 3. No witness is needed.
	RefutedEmpty Refutation = iota
	// RefutedDisconnected: Γ^k(v) is disconnected. The witness is two
	// direct neighbours of v in different components.
	RefutedDisconnected
	// RefutedUnconfined: no two direct neighbours of v are joined by a
	// path of ≤ τ−2 hops in Γ^k(v). No witness is needed.
	RefutedUnconfined
	// RefutedUnspanned: the cycles of length ≤ τ do not span Γ^k(v)'s
	// cycle space. The witness is an unspanned cycle with, for each of its
	// nodes, a shortest path to a direct neighbour of v.
	RefutedUnspanned
	// NumRefutations is the number of refutation kinds.
	NumRefutations
)

// refutationNames are the telemetry suffixes of the kinds.
var refutationNames = [NumRefutations]string{"empty", "disconnected", "unconfined", "unspanned"}

// judge is the deletability test on a neighbourhood graph (nil or empty
// when v has none) and v's direct neighbours, with a witness for a "no":
// the witness's nodes are left in t.wit, its kind in t.kind, and the
// verdict carries its signature. The checks run in the order of
// VertexDeletable's conditions; the void is confined when the candidate
// lies on a cycle of length ≤ τ, i.e. two of its direct neighbours are
// joined inside the neighbourhood graph (candidate excluded) by a path of
// ≤ τ−2 hops. The witnesses are sound for the Γ^k(v) a Cache extracts,
// where every node is reached from v through a direct neighbour within
// k−1 further hops; on other input the verdict is still exact, and a "no"
// whose witness cannot be found carries none.
//
// Why each witness W holds: after deleting any set of nodes that misses
// W, the new Γ^k(v) is an induced subgraph of the old one (deletions never
// shorten distances) that contains W. Two direct neighbours stay adjacent
// to v and stay apart. A cycle whose nodes keep their paths of ≤ k−1 hops
// to direct neighbours stays in the ball, while the new short cycles are
// old ones, so it stays unspanned. The empty and unconfined refutations
// need no witness: direct neighbours only disappear, and a short path in
// the new Γ^k(v) is one in the old.
func (t *Tester) judge(nb *graph.Adjacency, direct []graph.NodeID, tau int) Verdict {
	t.wit = t.wit[:0]
	t.kind = RefutedEmpty
	if tau < 3 || nb == nil || nb.NumNodes() == 0 {
		return 0
	}
	if b, found, connected := nb.SeparatedTerminal(t.s, direct); !connected {
		t.kind = RefutedDisconnected
		if !found {
			return refutedAnywhere
		}
		t.wit = append(t.wit, direct[0], b)
		return t.signature()
	}
	if !nb.AnyPairWithin(direct, tau-2, t.s) {
		t.kind = RefutedUnconfined
		return 0
	}
	if cycles.SpannedByShortAdj(nb, tau, t.ws) {
		return VerdictDeletable
	}
	t.kind = RefutedUnspanned
	cyc := t.ws.UnspannedCycle()
	nodes, ok := nb.SourcePathsInto(t.s, direct, cyc)
	if len(cyc) == 0 || !ok {
		return refutedAnywhere
	}
	for _, i := range nodes {
		t.wit = append(t.wit, nb.NodeAt(int(i)))
	}
	return t.signature()
}

// signature returns the "no" verdict whose signature covers t.wit.
func (t *Tester) signature() Verdict {
	var x Verdict
	for _, w := range t.wit {
		x |= probes(w)
	}
	return x
}
