// Package bitvec provides fixed-length bit vectors over GF(2) and the
// Gaussian-elimination machinery used by all cycle-space algebra in this
// repository.
//
// A Vector is a sequence of bits indexed from 0. Addition over GF(2) is XOR.
// The Echelon type maintains a set of linearly independent vectors in row
// echelon form and supports incremental rank queries, which is the core
// primitive behind minimum-cycle-basis selection (Algorithm 1 of the paper)
// and the τ-partitionability tests (Propositions 2 and 3).
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length bit vector over GF(2).
//
// The zero value is an empty (length-0) vector. Vectors of different lengths
// must not be mixed in algebraic operations; methods panic on length
// mismatch because such a mix is always a programming error, never a runtime
// condition.
type Vector struct {
	n     int
	words []uint64
}

// New returns a zero vector of length n.
//
//lint:ignore hotalloc constructor of a caller-owned vector; the hot loop reaches it only through Echelon.TakeScratch's recycler-dry fallback, which is cold once the elimination workspace is warm
func New(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromIndices returns a vector of length n with the given bits set.
func FromIndices(n int, idx ...int) Vector {
	v := New(n)
	for _, i := range idx {
		v.Set(i, true)
	}
	return v
}

// Len returns the number of bits in the vector.
func (v Vector) Len() int { return v.n }

// Get reports whether bit i is set.
func (v Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i to b.
func (v Vector) Set(i int, b bool) {
	v.check(i)
	if b {
		v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Flip toggles bit i.
func (v Vector) Flip(i int) {
	v.check(i)
	v.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

func (v Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// IsZero reports whether no bit is set.
func (v Vector) IsZero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// PopCount returns the number of set bits.
func (v Vector) PopCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// firstSetFrom returns the index of the lowest set bit at or above word
// index fromWord, or -1.
func (v Vector) firstSetFrom(fromWord int) int {
	for wi := fromWord; wi < len(v.words); wi++ {
		if w := v.words[wi]; w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Indices returns the indices of all set bits in increasing order.
func (v Vector) Indices() []int {
	out := make([]int, 0, v.PopCount())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Xor sets v = v ⊕ u in place. The receiver's storage is reused.
func (v Vector) Xor(u Vector) {
	if v.n != u.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, u.n))
	}
	for i := range v.words {
		v.words[i] ^= u.words[i]
	}
}

// Add returns the GF(2) sum v ⊕ u as a new vector.
func (v Vector) Add(u Vector) Vector {
	w := v.Clone()
	w.Xor(u)
	return w
}

// And returns the bitwise intersection of v and u as a new vector.
func (v Vector) And(u Vector) Vector {
	if v.n != u.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, u.n))
	}
	w := v.Clone()
	for i := range w.words {
		w.words[i] &= u.words[i]
	}
	return w
}

// Equal reports whether v and u have the same length and bits.
func (v Vector) Equal(u Vector) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// String renders the vector as a bit string, lowest index first.
func (v Vector) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Echelon maintains a set of GF(2) vectors in row echelon form. Each stored
// row has a distinct pivot (its lowest set bit), and rows are kept indexed by
// pivot so that reduction of an incoming vector touches only rows whose pivot
// is present in it.
//
// The zero value is not usable; construct with NewEchelon.
type Echelon struct {
	n      int
	byPiv  []Vector // pivot index -> row with that pivot (zero-length = none)
	rank   int
	pivots []int32    // pivots inserted so far, for cheap Reset
	free   [][]uint64 // recycled row storage, fed by Reset, drained by TakeScratch
}

// NewEchelon returns an empty echelon for vectors of length n.
func NewEchelon(n int) *Echelon {
	return &Echelon{n: n, byPiv: make([]Vector, n)}
}

// Reset empties the echelon and re-dimensions it for vectors of length n,
// recycling the storage of all previously stored rows. Together with
// TakeScratch it makes repeated elimination runs (the per-candidate
// short-span tests of the deletability engine) allocation-free in steady
// state.
func (e *Echelon) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	for _, p := range e.pivots {
		e.free = append(e.free, e.byPiv[p].words)
		e.byPiv[p] = Vector{}
	}
	e.pivots = e.pivots[:0]
	e.rank = 0
	e.n = n
	if len(e.byPiv) < n {
		e.byPiv = make([]Vector, n)
	}
}

// TakeScratch returns a zero vector of the echelon's current length, reusing
// recycled row storage when available. The vector is caller-owned; handing
// it back via InsertOwned (taken or not) keeps the cycle allocation-free.
func (e *Echelon) TakeScratch() Vector {
	need := (e.n + wordBits - 1) / wordBits
	for len(e.free) > 0 {
		w := e.free[len(e.free)-1]
		e.free = e.free[:len(e.free)-1]
		if cap(w) < need {
			continue // drop undersized storage
		}
		w = w[:need]
		for i := range w {
			w[i] = 0
		}
		return Vector{n: e.n, words: w}
	}
	return New(e.n)
}

// Recycle hands v back to the row recycler: the caller gives up a vector
// the echelon did not keep (a TakeScratch vector InsertOwned rejected) and
// must stop using it. Without it every such vector is garbage, and the
// next TakeScratch allocates.
func (e *Echelon) Recycle(v Vector) { e.free = append(e.free, v.words) }

// Rank returns the number of independent vectors inserted so far.
func (e *Echelon) Rank() int { return e.rank }

// Len returns the vector length the echelon operates on.
func (e *Echelon) Len() int { return e.n }

// IsPivot reports whether a stored row has its pivot at column i. The unit
// vector of a column that is no pivot reduces to itself, so it lies
// outside the span.
func (e *Echelon) IsPivot(i int) bool { return e.byPiv[i].n != 0 }

// reduceInPlace eliminates v against the stored rows in place and returns
// the residue pivot (lowest set bit), or -1 when v reduced to zero. The
// pivot scan resumes from the previous pivot's word: elimination only
// clears bits at or below the current pivot.
func (e *Echelon) reduceInPlace(v Vector) int {
	if v.n != e.n {
		panic(fmt.Sprintf("bitvec: echelon length %d vs vector %d", e.n, v.n))
	}
	p := v.firstSetFrom(0)
	for p >= 0 {
		row := e.byPiv[p]
		if row.n == 0 {
			return p
		}
		v.xorFrom(row, p/wordBits)
		p = v.firstSetFrom(p / wordBits)
	}
	return -1
}

// xorFrom XORs u into v starting at the given word index; the words below
// are known equal to zero in both relevant positions for echelon reduction.
func (v Vector) xorFrom(u Vector, fromWord int) {
	vw, uw := v.words[fromWord:], u.words[fromWord:]
	for i := range vw {
		vw[i] ^= uw[i]
	}
}

// Reduce returns the residue of v after elimination against the stored rows.
// The residue is zero iff v lies in the span of the inserted vectors. The
// returned vector is freshly allocated and owned by the caller.
func (e *Echelon) Reduce(v Vector) Vector {
	r := v.Clone()
	e.reduceInPlace(r)
	return r
}

// Insert reduces v and, if the residue is nonzero, stores it and returns
// true (v was independent of the current span). Otherwise returns false.
// v itself is not modified or retained.
func (e *Echelon) Insert(v Vector) bool {
	_, ok := e.InsertPivot(v)
	return ok
}

// InsertPivot is Insert that also reports the pivot (lowest set bit) of the
// stored residue row. The pivot is -1 when v was dependent and nothing was
// stored.
func (e *Echelon) InsertPivot(v Vector) (pivot int, ok bool) {
	return e.InsertOwned(v.Clone())
}

// InsertOwned is InsertPivot for callers that relinquish ownership of v:
// the vector is reduced in place and, when independent, stored directly
// with no copy. When it reports ok, the caller must stop using v (the
// echelon owns it now); when it reports !ok, v has been zeroed by the
// reduction and may be reused. This is the allocation-free hot path of the
// cycle-space elimination loops.
func (e *Echelon) InsertOwned(v Vector) (pivot int, ok bool) {
	p := e.reduceInPlace(v)
	if p < 0 {
		return -1, false
	}
	e.byPiv[p] = v
	e.pivots = append(e.pivots, int32(p))
	e.rank++
	return p, true
}

// Spans reports whether v lies in the span of the inserted vectors.
func (e *Echelon) Spans(v Vector) bool {
	return e.Reduce(v).IsZero()
}
