package gemm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// naiveTrapezoid is the reference: full naive product with cells outside
// the trapezoid zeroed.
func naiveTrapezoid(a, b *BitMatrix, diag int) *CountMatrix {
	c := PopcountGemmNaive(a, b)
	for r := 0; r < c.Rows; r++ {
		for s := 0; s < c.Cols; s++ {
			if s > r+diag {
				c.Data[r*c.Cols+s] = 0
			}
		}
	}
	return c
}

func countsEqual(t *testing.T, got, want *CountMatrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: cell (%d,%d) = %d, want %d",
				label, i/got.Cols, i%got.Cols, got.Data[i], want.Data[i])
		}
	}
}

func TestPopcountTrapezoidMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	cases := []struct{ ra, rb, cols, diag int }{
		{1, 1, 1, 0},                        // single SNP
		{1, 1, 63, 0},                       // rows shorter than one word
		{7, 7, 30, 0},                       // sub-word columns, odd rows
		{5, 5, 64, 0},                       // exactly one word
		{33, 33, 130, 0},                    // fringe rows on both panel sizes
		{70, 66, 100, 0},                    // rectangular, tri cut
		{70, 66, 100, 100},                  // diag past the edge: full rectangle
		{16, 40, 200, 10},                   // wide B with offset trapezoid
		{40, 16, 129, -5},                   // negative offset
		{9, 9, 257, -20},                    // empty trapezoid (diag too negative)
		{BitMC + 5, BitMC + 5, 3*64 + 1, 0}, // multiple row blocks
		{2*BitMC + 1, BitNC + 3, BitKC*64 + 7, 3}, // multiple word panels
	}
	for _, cse := range cases {
		a := randomBitMatrix(rng, cse.ra, cse.cols)
		b := randomBitMatrix(rng, cse.rb, cse.cols)
		want := naiveTrapezoid(a, b, cse.diag)
		for _, workers := range []int{1, 3} {
			got := PopcountTrapezoid(a, b, cse.diag, workers)
			countsEqual(t, got, want, fmt.Sprintf("%+v workers=%d", cse, workers))
		}
	}
}

func TestPopcountTrapezoidEmpty(t *testing.T) {
	c := PopcountTrapezoid(NewBitMatrix(0, 10), NewBitMatrix(4, 10), 0, 2)
	if c.Rows != 0 || c.Cols != 4 {
		t.Fatalf("empty-A shape %dx%d", c.Rows, c.Cols)
	}
	c = PopcountTrapezoid(NewBitMatrix(4, 10), NewBitMatrix(0, 10), 0, 2)
	if c.Rows != 4 || c.Cols != 0 {
		t.Fatalf("empty-B shape %dx%d", c.Rows, c.Cols)
	}
	// Zero columns: every count is zero but the shape is preserved.
	c = PopcountTrapezoid(NewBitMatrix(3, 0), NewBitMatrix(3, 0), 0, 1)
	for _, v := range c.Data {
		if v != 0 {
			t.Fatal("zero-column trapezoid must be all zero")
		}
	}
}

func TestPopcountTrapezoidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ra, rb := rng.Intn(40)+1, rng.Intn(40)+1
		cols := rng.Intn(260) + 1
		diag := rng.Intn(2*rb) - rb
		a := randomBitMatrix(rng, ra, cols)
		b := randomBitMatrix(rng, rb, cols)
		got := PopcountTrapezoid(a, b, diag, rng.Intn(4)+1)
		want := naiveTrapezoid(a, b, diag)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPopcountTrapezoidParallelRace exercises the panel workers under the
// race detector: many concurrent trapezoid products over shared packed
// panels, plus concurrent readers of the input matrices.
func TestPopcountTrapezoidParallelRace(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randomBitMatrix(rng, 4*BitMC+9, 400)
	want := naiveTrapezoid(a, a, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := PopcountTrapezoid(a, a, 0, 8)
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Errorf("parallel trapezoid mismatch at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestTrapezoidPairs(t *testing.T) {
	cases := []struct {
		ra, rb, diag int
		want         int64
	}{
		{4, 4, 0, 10},  // full lower triangle incl. diagonal
		{4, 4, -1, 6},  // strict lower triangle
		{4, 4, 10, 16}, // saturated: full rectangle
		{4, 4, -10, 0}, // empty
		{3, 5, 1, 9},   // 2+3+4
		{0, 5, 3, 0},
	}
	for _, cse := range cases {
		if got := TrapezoidPairs(cse.ra, cse.rb, cse.diag); got != cse.want {
			t.Errorf("TrapezoidPairs(%d,%d,%d) = %d, want %d", cse.ra, cse.rb, cse.diag, got, cse.want)
		}
	}
}

func TestPopcountTrapezoidMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PopcountTrapezoid(NewBitMatrix(2, 10), NewBitMatrix(2, 11), 0, 1)
}

// benchTriPairs is the useful-pair count of the 512-row self product:
// the pairs ω actually consumes, whichever kernel produces them.
func benchTriPairs() int64 { return TrapezoidPairs(512, 512, 0) }

// BenchmarkPopcountGemmFlatTri512x512x1000 is the flat kernel producing
// the triangle the ω layer needs — it must compute the full 512×512
// rectangle to do so. Mpairs/s is useful (triangle) pairs per second, so
// the two benchmarks are directly comparable.
func BenchmarkPopcountGemmFlatTri512x512x1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomBitMatrix(rng, 512, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PopcountGemm(x, x, 1)
	}
	b.ReportMetric(float64(benchTriPairs())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
}

// BenchmarkPopcountTri512x512x1000 is the blocked triangular kernel on
// the same workload (same matrix, same useful pairs).
func BenchmarkPopcountTri512x512x1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomBitMatrix(rng, 512, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PopcountTrapezoid(x, x, 0, 1)
	}
	b.ReportMetric(float64(benchTriPairs())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
}

// checkPacked verifies packBitPanels' layout: word k of row p·pr+r sits
// at dst[p·pr·Words + k·pr + r], and fringe rows of the last panel are
// zero.
func checkPacked(t *testing.T, m *BitMatrix, pr int, dst []uint64) {
	t.Helper()
	panels := (m.Rows + pr - 1) / pr
	if len(dst) != panels*pr*m.Words {
		t.Fatalf("packed %d words, want %d", len(dst), panels*pr*m.Words)
	}
	for p := 0; p < panels; p++ {
		for k := 0; k < m.Words; k++ {
			for r := 0; r < pr; r++ {
				var want uint64
				if row := p*pr + r; row < m.Rows {
					want = m.RowWords(row)[k]
				}
				if got := dst[p*pr*m.Words+k*pr+r]; got != want {
					t.Fatalf("panel %d word %d row %d = %#x, want %#x", p, k, r, got, want)
				}
			}
		}
	}
}

// TestPackPanelA packs A operands (BitMR-row panels) of the triangular
// kernel: 6 rows over 3 words make two panels, the second half padding.
func TestPackPanelA(t *testing.T) {
	m := randomBitMatrix(rand.New(rand.NewSource(44)), 6, 3*64-5)
	checkPacked(t, m, BitMR, packBitPanels(m, BitMR))
}

// TestPackPanelB packs B operands (BitNR-row panels): 5 rows make three
// panels, the last with one padded row.
func TestPackPanelB(t *testing.T) {
	m := randomBitMatrix(rand.New(rand.NewSource(45)), 5, 130)
	checkPacked(t, m, BitNR, packBitPanels(m, BitNR))
}
