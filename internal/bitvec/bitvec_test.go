package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	tests := []struct {
		name string
		n    int
	}{
		{"empty", 0},
		{"one", 1},
		{"word boundary", 64},
		{"word boundary plus one", 65},
		{"large", 1000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := New(tt.n)
			if v.Len() != tt.n {
				t.Fatalf("Len() = %d, want %d", v.Len(), tt.n)
			}
			if !v.IsZero() {
				t.Fatalf("new vector is not zero")
			}
			if v.PopCount() != 0 {
				t.Fatalf("PopCount() = %d, want 0", v.PopCount())
			}
		})
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetFlip(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("bit %d set in zero vector", i)
		}
		v.Set(i, true)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		v.Flip(i)
		if v.Get(i) {
			t.Fatalf("bit %d still set after Flip", i)
		}
		v.Flip(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after second Flip", i)
		}
		v.Set(i, false)
		if v.Get(i) {
			t.Fatalf("bit %d set after Set(false)", i)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}

func TestFromIndices(t *testing.T) {
	v := FromIndices(100, 3, 64, 99)
	if v.PopCount() != 3 {
		t.Fatalf("PopCount() = %d, want 3", v.PopCount())
	}
	want := []int{3, 64, 99}
	got := v.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices() = %v, want %v", got, want)
		}
	}
}

// TestFirstSet checks the lowest-set-bit scan that finds the echelon's
// pivots, across word boundaries.
func TestFirstSet(t *testing.T) {
	tests := []struct {
		name string
		v    Vector
		want int
	}{
		{"zero", New(100), -1},
		{"bit 0", FromIndices(100, 0), 0},
		{"bit 63", FromIndices(100, 63), 63},
		{"bit 64", FromIndices(100, 64), 64},
		{"lowest wins", FromIndices(100, 70, 5, 99), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.firstSetFrom(0); got != tt.want {
				t.Fatalf("firstSetFrom(0) = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestXorAdd(t *testing.T) {
	a := FromIndices(70, 1, 2, 65)
	b := FromIndices(70, 2, 3, 65)
	sum := a.Add(b)
	want := FromIndices(70, 1, 3)
	if !sum.Equal(want) {
		t.Fatalf("Add = %v, want %v", sum.Indices(), want.Indices())
	}
	// Add must not mutate operands.
	if !a.Equal(FromIndices(70, 1, 2, 65)) {
		t.Fatal("Add mutated left operand")
	}
	if !b.Equal(FromIndices(70, 2, 3, 65)) {
		t.Fatal("Add mutated right operand")
	}
	// In-place Xor.
	c := a.Clone()
	c.Xor(b)
	if !c.Equal(want) {
		t.Fatalf("Xor = %v, want %v", c.Indices(), want.Indices())
	}
}

func TestAnd(t *testing.T) {
	a := FromIndices(70, 1, 2, 65)
	b := FromIndices(70, 2, 3, 65)
	got := a.And(b)
	want := FromIndices(70, 2, 65)
	if !got.Equal(want) {
		t.Fatalf("And = %v, want %v", got.Indices(), want.Indices())
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a := New(10)
	b := New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("Xor with mismatched lengths did not panic")
		}
	}()
	a.Xor(b)
}

func TestCloneIsIndependent(t *testing.T) {
	a := FromIndices(10, 1)
	b := a.Clone()
	b.Set(2, true)
	if a.Get(2) {
		t.Fatal("Clone shares storage with original")
	}
}

func TestString(t *testing.T) {
	v := FromIndices(5, 0, 3)
	if got, want := v.String(), "10010"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	if New(5).Equal(New(6)) {
		t.Fatal("vectors of different lengths reported equal")
	}
}

// xorIsCommutativeAssociative is a property test of GF(2) addition laws.
func TestXorAlgebraProperties(t *testing.T) {
	const n = 130
	gen := func(r *rand.Rand) Vector {
		v := New(n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 1 {
				v.Set(i, true)
			}
		}
		return v
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		a, b, c := gen(r), gen(r), gen(r)
		if !a.Add(b).Equal(b.Add(a)) {
			t.Fatal("xor not commutative")
		}
		if !a.Add(b).Add(c).Equal(a.Add(b.Add(c))) {
			t.Fatal("xor not associative")
		}
		if !a.Add(a).IsZero() {
			t.Fatal("x ⊕ x != 0")
		}
		if !a.Add(New(n)).Equal(a) {
			t.Fatal("x ⊕ 0 != x")
		}
	}
}

func TestEchelonBasic(t *testing.T) {
	e := NewEchelon(4)
	v1 := FromIndices(4, 0, 1)
	v2 := FromIndices(4, 1, 2)
	v3 := FromIndices(4, 0, 2) // v1 ⊕ v2
	if !e.Insert(v1) {
		t.Fatal("v1 should be independent")
	}
	if !e.Insert(v2) {
		t.Fatal("v2 should be independent")
	}
	if e.Insert(v3) {
		t.Fatal("v3 = v1 ⊕ v2 should be dependent")
	}
	if e.Rank() != 2 {
		t.Fatalf("Rank() = %d, want 2", e.Rank())
	}
	if !e.Spans(v3) {
		t.Fatal("echelon should span v1 ⊕ v2")
	}
	if e.Spans(FromIndices(4, 3)) {
		t.Fatal("echelon should not span e3")
	}
}

func TestEchelonZeroVector(t *testing.T) {
	e := NewEchelon(8)
	if e.Insert(New(8)) {
		t.Fatal("zero vector reported independent")
	}
	if !e.Spans(New(8)) {
		t.Fatal("zero vector not in empty span")
	}
}

func TestEchelonFullRank(t *testing.T) {
	const n = 65
	e := NewEchelon(n)
	for i := 0; i < n; i++ {
		// e_i ⊕ e_{i+1 mod n}: n cyclic difference vectors have rank n-1.
		v := FromIndices(n, i, (i+1)%n)
		e.Insert(v)
	}
	if e.Rank() != n-1 {
		t.Fatalf("Rank() = %d, want %d", e.Rank(), n-1)
	}
	// The all-ones vector is NOT in the span of differences... over GF(2)
	// each difference has even weight, so any combination has even weight.
	ones := New(n)
	for i := 0; i < n; i++ {
		ones.Set(i, true)
	}
	if e.Spans(ones) {
		t.Fatal("odd-weight vector reported in even-weight span")
	}
}

// TestEchelonRankMatchesBruteForce checks rank against an independent
// O(n^3) elimination on random small matrices.
func TestEchelonRankMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		rows := 1 + r.Intn(20)
		mat := make([][]bool, rows)
		e := NewEchelon(n)
		for i := range mat {
			mat[i] = make([]bool, n)
			v := New(n)
			for j := 0; j < n; j++ {
				if r.Intn(2) == 1 {
					mat[i][j] = true
					v.Set(j, true)
				}
			}
			e.Insert(v)
		}
		return e.Rank() == bruteRank(mat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func bruteRank(mat [][]bool) int {
	rows := len(mat)
	if rows == 0 {
		return 0
	}
	n := len(mat[0])
	m := make([][]bool, rows)
	for i := range mat {
		m[i] = append([]bool(nil), mat[i]...)
	}
	rank := 0
	for col := 0; col < n && rank < rows; col++ {
		piv := -1
		for i := rank; i < rows; i++ {
			if m[i][col] {
				piv = i
				break
			}
		}
		if piv < 0 {
			continue
		}
		m[rank], m[piv] = m[piv], m[rank]
		for i := 0; i < rows; i++ {
			if i != rank && m[i][col] {
				for j := 0; j < n; j++ {
					m[i][j] = m[i][j] != m[rank][j]
				}
			}
		}
		rank++
	}
	return rank
}

func TestEchelonReduceReturnsResidue(t *testing.T) {
	e := NewEchelon(6)
	e.Insert(FromIndices(6, 0, 1))
	res := e.Reduce(FromIndices(6, 0, 2))
	if !res.Equal(FromIndices(6, 1, 2)) {
		t.Fatalf("Reduce residue = %v, want [1 2]", res.Indices())
	}
	// Reduce must not insert.
	if e.Rank() != 1 {
		t.Fatalf("Reduce changed rank to %d", e.Rank())
	}
}

func BenchmarkEchelonInsertDense(b *testing.B) {
	const n = 2048
	r := rand.New(rand.NewSource(7))
	vecs := make([]Vector, 512)
	for i := range vecs {
		v := New(n)
		for j := 0; j < n; j++ {
			if r.Intn(2) == 1 {
				v.Set(j, true)
			}
		}
		vecs[i] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEchelon(n)
		for _, v := range vecs {
			e.Insert(v)
		}
	}
}

func BenchmarkXor(b *testing.B) {
	v := New(4096)
	u := FromIndices(4096, 1, 100, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Xor(u)
	}
}
