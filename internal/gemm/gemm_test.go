package gemm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"omegago/internal/bitvec"
)

func randomBitMatrix(rng *rand.Rand, r, c int) *BitMatrix {
	m := NewBitMatrix(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Intn(2) == 1 {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

func TestPopcountGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shapes := []struct{ ra, rb, c int }{
		{1, 1, 1}, {3, 5, 64}, {5, 3, 65}, {70, 66, 100}, {2, 2, 300},
	}
	for _, s := range shapes {
		a := randomBitMatrix(rng, s.ra, s.c)
		b := randomBitMatrix(rng, s.rb, s.c)
		want := PopcountGemmNaive(a, b)
		for _, workers := range []int{1, 3} {
			got := PopcountGemm(a, b, workers)
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("shape %+v workers %d: element %d = %d, want %d",
						s, workers, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestPopcountGemmProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ra, rb, c := rng.Intn(20)+1, rng.Intn(20)+1, rng.Intn(200)+1
		a := randomBitMatrix(rng, ra, c)
		b := randomBitMatrix(rng, rb, c)
		got := PopcountGemm(a, b, rng.Intn(4)+1)
		want := PopcountGemmNaive(a, b)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPopcountGemmSymmetry(t *testing.T) {
	// C(a,a) must be symmetric with diagonal = row popcounts.
	rng := rand.New(rand.NewSource(5))
	a := randomBitMatrix(rng, 33, 130)
	c := PopcountGemm(a, a, 2)
	for i := 0; i < a.Rows; i++ {
		var self int32
		for j := 0; j < a.Cols; j++ {
			if a.Get(i, j) {
				self++
			}
		}
		if c.At(i, i) != self {
			t.Errorf("diagonal %d = %d, want %d", i, c.At(i, i), self)
		}
		for j := 0; j < a.Rows; j++ {
			if c.At(i, j) != c.At(j, i) {
				t.Errorf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
}

func TestFromVectors(t *testing.T) {
	v1 := bitvec.FromBools([]bool{true, false, true})
	v2 := bitvec.FromBools([]bool{false, true, true})
	m := FromVectors([]*bitvec.Vector{v1, v2})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if !m.Get(0, 0) || m.Get(0, 1) || !m.Get(1, 2) {
		t.Error("bit content wrong")
	}
	if len(m.RowWords(1)) != 1 {
		t.Error("RowWords wrong")
	}
	empty := FromVectors(nil)
	if empty.Rows != 0 {
		t.Error("empty FromVectors wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged vectors")
		}
	}()
	FromVectors([]*bitvec.Vector{v1, bitvec.New(5)})
}

func TestBitMatrixMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PopcountGemm(NewBitMatrix(2, 10), NewBitMatrix(2, 11), 1)
}

func BenchmarkPopcountGemm512x512x1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomBitMatrix(rng, 512, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PopcountGemm(x, x, 1)
	}
}

// TestBitKernelDimensionMismatchTable drives every bit kernel through a
// table of shape mismatches: each must panic with a message naming the
// kernel and both full shapes (never compute silently wrong counts).
func TestBitKernelDimensionMismatchTable(t *testing.T) {
	kernels := []struct {
		name string
		call func(a, b *BitMatrix)
	}{
		{"PopcountGemm", func(a, b *BitMatrix) { PopcountGemm(a, b, 1) }},
		{"PopcountGemmNaive", func(a, b *BitMatrix) { PopcountGemmNaive(a, b) }},
		{"PopcountTrapezoid", func(a, b *BitMatrix) { PopcountTrapezoid(a, b, 0, 2) }},
	}
	shapes := []struct {
		ra, ca, rb, cb int
	}{
		{2, 10, 2, 11}, // off by one
		{2, 10, 3, 64}, // word-boundary mismatch
		{0, 5, 0, 6},   // zero rows still validated
		{1, 0, 1, 1},   // zero vs nonzero columns
		{4, 65, 4, 64}, // crosses a word boundary
	}
	for _, k := range kernels {
		for _, s := range shapes {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Errorf("%s(%dx%d, %dx%d): no panic", k.name, s.ra, s.ca, s.rb, s.cb)
						return
					}
					msg, ok := r.(string)
					if !ok || !strings.Contains(msg, k.name) || !strings.Contains(msg, fmt.Sprintf("%d×%d", s.ra, s.ca)) {
						t.Errorf("%s(%dx%d, %dx%d): unhelpful panic %v", k.name, s.ra, s.ca, s.rb, s.cb, r)
					}
				}()
				k.call(NewBitMatrix(s.ra, s.ca), NewBitMatrix(s.rb, s.cb))
			}()
		}
		// Matching columns must not panic, whatever the row counts.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s on matched columns panicked: %v", k.name, r)
				}
			}()
			k.call(NewBitMatrix(3, 70), NewBitMatrix(5, 70))
		}()
	}
}

// TestFromVectorsMismatchTable covers the ragged and nil input cases.
func TestFromVectorsMismatchTable(t *testing.T) {
	v3 := bitvec.FromBools([]bool{true, false, true})
	v5 := bitvec.New(5)
	cases := []struct {
		name string
		vs   []*bitvec.Vector
		want string // substring of the panic; "" means no panic
	}{
		{"equal", []*bitvec.Vector{v3, bitvec.New(3)}, ""},
		{"empty", nil, ""},
		{"ragged-longer", []*bitvec.Vector{v3, v5}, "ragged"},
		{"ragged-shorter", []*bitvec.Vector{v5, v3}, "ragged"},
		{"ragged-middle", []*bitvec.Vector{v3, bitvec.New(3), v5, bitvec.New(3)}, "vector 2"},
		{"nil-first", []*bitvec.Vector{nil, v3}, "vector 0 is nil"},
		{"nil-later", []*bitvec.Vector{v3, nil}, "vector 1 is nil"},
	}
	for _, cse := range cases {
		func() {
			defer func() {
				r := recover()
				if cse.want == "" {
					if r != nil {
						t.Errorf("%s: unexpected panic %v", cse.name, r)
					}
					return
				}
				if r == nil {
					t.Errorf("%s: no panic", cse.name)
					return
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, cse.want) {
					t.Errorf("%s: panic %v does not mention %q", cse.name, r, cse.want)
				}
			}()
			FromVectors(cse.vs)
		}()
	}
}
