package ld

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"omegago/internal/bitvec"
	"omegago/internal/gemm"
	"omegago/internal/mssim"
	"omegago/internal/seqio"
)

func TestRSquaredFromCountsKnown(t *testing.T) {
	cases := []struct {
		n, ci, cj, cij int
		want           float64
	}{
		{4, 2, 2, 2, 1},    // perfect association
		{4, 2, 2, 0, 1},    // perfect repulsion
		{4, 2, 2, 1, 0},    // independence
		{4, 0, 2, 0, 0},    // monomorphic i
		{4, 2, 4, 2, 0},    // fixed j
		{0, 0, 0, 0, 0},    // degenerate
		{8, 4, 4, 3, 0.25}, // D = 3/8-1/4 = 1/8; den = 1/16 → 1/4
	}
	for _, c := range cases {
		got := RSquaredFromCounts(c.n, c.ci, c.cj, c.cij)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RSquaredFromCounts(%d,%d,%d,%d) = %g, want %g",
				c.n, c.ci, c.cj, c.cij, got, c.want)
		}
	}
}

func TestRSquaredRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		ci := rng.Intn(n + 1)
		cj := rng.Intn(n + 1)
		lo := ci + cj - n
		if lo < 0 {
			lo = 0
		}
		hi := ci
		if cj < hi {
			hi = cj
		}
		cij := lo
		if hi > lo {
			cij = lo + rng.Intn(hi-lo+1)
		}
		r2 := RSquaredFromCounts(n, ci, cj, cij)
		return r2 >= 0 && r2 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// naiveR2 computes r² from the textbook definition over explicit columns.
func naiveR2(x, y []bool, valid []bool) float64 {
	n, ci, cj, cij := 0, 0, 0, 0
	for k := range x {
		if valid != nil && !valid[k] {
			continue
		}
		n++
		if x[k] {
			ci++
		}
		if y[k] {
			cj++
		}
		if x[k] && y[k] {
			cij++
		}
	}
	return RSquaredFromCounts(n, ci, cj, cij)
}

func alignmentFromBools(cols [][]bool, masks [][]bool) *seqio.Alignment {
	n := len(cols[0])
	m := bitvec.NewMatrix(n)
	pos := make([]float64, len(cols))
	for i, col := range cols {
		var mask *bitvec.Vector
		if masks != nil && masks[i] != nil {
			mask = bitvec.FromBools(masks[i])
		}
		m.AppendRow(bitvec.FromBools(col), mask)
		pos[i] = float64(i + 1)
	}
	return &seqio.Alignment{Positions: pos, Length: float64(len(cols) + 1), Matrix: m}
}

func TestComputerSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cols := make([][]bool, 12)
	for i := range cols {
		cols[i] = make([]bool, 30)
		for k := range cols[i] {
			cols[i][k] = rng.Intn(2) == 1
		}
	}
	c := NewComputer(alignmentFromBools(cols, nil), Direct, 1)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if c.R2(i, j) != c.R2(j, i) {
				t.Errorf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
	if c.R2(3, 3) != 0 && c.R2(3, 3) != 1 {
		// self-LD of a polymorphic site is exactly 1
		t.Errorf("self r² = %g", c.R2(3, 3))
	}
}

func TestComputerSelfIsOne(t *testing.T) {
	cols := [][]bool{{true, false, true, false}}
	c := NewComputer(alignmentFromBools(cols, nil), Direct, 1)
	if got := c.R2(0, 0); got != 1 {
		t.Errorf("self r² of polymorphic site = %g, want 1", got)
	}
}

func TestEnginesAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Up to 81 SNPs: past w ≈ 46 the GEMM engine takes the blocked
		// kernel instead of the direct walk (gemmMinPairs).
		w := rng.Intn(80) + 2
		n := rng.Intn(120) + 2
		cols := make([][]bool, w)
		for i := range cols {
			cols[i] = make([]bool, n)
			for k := range cols[i] {
				cols[i][k] = rng.Intn(2) == 1
			}
		}
		a := alignmentFromBools(cols, nil)
		direct := PairwiseMatrix(a, Direct, 1)
		batched := PairwiseMatrix(a, GEMM, 2)
		for i := 0; i < w; i++ {
			for j := 0; j < w; j++ {
				if direct[i][j] != batched[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestComputerMatchesNaiveWithMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w, n := 10, 40
	cols := make([][]bool, w)
	masks := make([][]bool, w)
	for i := range cols {
		cols[i] = make([]bool, n)
		masks[i] = make([]bool, n)
		for k := range cols[i] {
			cols[i][k] = rng.Intn(2) == 1
			masks[i][k] = rng.Intn(8) != 0
		}
	}
	a := alignmentFromBools(cols, masks)
	c := NewComputer(a, Direct, 1)
	for i := 0; i < w; i++ {
		for j := 0; j < w; j++ {
			joint := make([]bool, n)
			for k := range joint {
				joint[k] = masks[i][k] && masks[j][k]
			}
			want := naiveR2(cols[i], cols[j], joint)
			if got := c.R2(i, j); math.Abs(got-want) > 1e-12 {
				t.Fatalf("masked r²(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

// The three TestRect* tests pin the region-call edge cases on the
// smallest alignments: a masked one-pair region on the GEMM engine, a
// region past the alignment, and an empty region.

func TestRectGEMMFallsBackWithMissing(t *testing.T) {
	cols := [][]bool{{true, false, true, false}, {true, true, false, false}}
	masks := [][]bool{{true, true, true, false}, nil}
	a := alignmentFromBools(cols, masks)
	c := NewComputer(a, GEMM, 2)
	dst := make([]float64, 1)
	c.PairCounts(1, 2, 0, dst, 1)
	if want := NewComputer(a, Direct, 1).R2(0, 1); dst[0] != want {
		t.Errorf("fallback r² = %g, want %g", dst[0], want)
	}
}

func TestRectBoundsPanics(t *testing.T) {
	a := alignmentFromBools([][]bool{{true, false}}, nil)
	c := NewComputer(a, Direct, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.PairCounts(0, 2, 0, make([]float64, 4), 2)
}

func TestRectEmptyIsNoop(t *testing.T) {
	a := alignmentFromBools([][]bool{{true, false}, {false, true}}, nil)
	c := NewComputer(a, GEMM, 1)
	dst := []float64{-1, -1}
	c.PairCounts(1, 1, 0, dst, 2)
	if dst[0] != -1 || dst[1] != -1 || c.Scores() != 0 {
		t.Errorf("empty region wrote %v, scored %d pairs", dst, c.Scores())
	}
}

func TestScoresCounter(t *testing.T) {
	a := alignmentFromBools([][]bool{
		{true, false, true}, {false, true, true}, {true, true, false},
	}, nil)
	c := NewComputer(a, GEMM, 1)
	c.PairCounts(0, 3, 0, make([]float64, 9), 3)
	if c.Scores() != 3 {
		t.Errorf("Scores = %d, want 3", c.Scores())
	}
	d := NewComputer(a, Direct, 1)
	d.R2(0, 1)
	d.R2(1, 2)
	if d.Scores() != 2 {
		t.Errorf("Scores = %d, want 2", d.Scores())
	}
}

func TestOnSimulatedData(t *testing.T) {
	// Recombination is required for LD decay with distance: on a single
	// genealogy LD is distance-independent.
	reps, err := mssim.Simulate(mssim.Config{SampleSize: 30, Replicates: 1, SegSites: 80, Rho: 30, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	a, err := reps[0].ToAlignment(1e6)
	if err != nil {
		t.Fatal(err)
	}
	direct := PairwiseMatrix(a, Direct, 1)
	batched := PairwiseMatrix(a, GEMM, 4)
	for i := range direct {
		for j := range direct[i] {
			if direct[i][j] != batched[i][j] {
				t.Fatalf("engines disagree at (%d,%d)", i, j)
			}
			if direct[i][j] < 0 || direct[i][j] > 1 {
				t.Fatalf("r² out of range at (%d,%d): %g", i, j, direct[i][j])
			}
		}
	}
	// Coalescent data must show LD decay: mean r² of adjacent SNPs should
	// exceed mean r² of distant pairs.
	adj, far := 0.0, 0.0
	na, nf := 0, 0
	w := a.NumSNPs()
	for i := 0; i+1 < w; i++ {
		adj += direct[i][i+1]
		na++
	}
	for i := 0; i < w; i++ {
		j := i + w/2
		if j < w {
			far += direct[i][j]
			nf++
		}
	}
	if adj/float64(na) <= far/float64(nf) {
		t.Errorf("no LD decay: adjacent %.4f vs distant %.4f", adj/float64(na), far/float64(nf))
	}
}

func TestEngineString(t *testing.T) {
	if Direct.String() != "direct" || GEMM.String() != "gemm" {
		t.Error("engine names wrong")
	}
	if !strings.Contains(Engine(9).String(), "9") {
		t.Error("unknown engine should include numeric value")
	}
}

func BenchmarkR2Direct50Samples(b *testing.B) {
	reps, err := mssim.Simulate(mssim.Config{SampleSize: 50, Replicates: 1, SegSites: 500, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	a, _ := reps[0].ToAlignment(1e6)
	c := NewComputer(a, Direct, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.R2(i%499, (i+1)%500)
	}
}

func BenchmarkPairCountsGEMM500(b *testing.B) {
	benchmarkPairCounts(b, GEMM)
}

func BenchmarkPairCountsDirect500(b *testing.B) {
	benchmarkPairCounts(b, Direct)
}

func benchmarkPairCounts(b *testing.B, engine Engine) {
	reps, err := mssim.Simulate(mssim.Config{SampleSize: 50, Replicates: 1, SegSites: 500, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	a, _ := reps[0].ToAlignment(1e6)
	c := NewComputer(a, engine, 1)
	dst := make([]float64, 500*500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PairCounts(0, 500, 0, dst, 500)
	}
}

func TestAccessorsAndBatched(t *testing.T) {
	a := alignmentFromBools([][]bool{{true, false, true}, {false, true, true}}, nil)
	c := NewComputer(a, GEMM, 2)
	if c.Alignment() != a {
		t.Error("Alignment accessor wrong")
	}
	if c.Engine() != GEMM {
		t.Error("Engine accessor wrong")
	}
	if !c.Batched() {
		t.Error("mask-free GEMM computer should be batched")
	}
	masked := alignmentFromBools([][]bool{{true, false, true}},
		[][]bool{{true, true, false}})
	if NewComputer(masked, GEMM, 1).Batched() {
		t.Error("masked data must not take the batched path")
	}
	if NewComputer(a, Direct, 1).Batched() {
		t.Error("direct engine is never batched")
	}
}

func TestScanParallelLDWorkersEndToEnd(t *testing.T) {
	// DP fill through the parallel direct path must equal the serial fill.
	// 120 SNPs give 7140 pairs, past parallelMinPairs.
	reps, err := mssim.Simulate(mssim.Config{SampleSize: 25, Replicates: 1, SegSites: 120, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := reps[0].ToAlignment(1e5)
	serial := PairwiseMatrix(a, Direct, 1)
	parallel := PairwiseMatrix(a, Direct, 4)
	for i := range serial {
		for j := range serial[i] {
			if serial[i][j] != parallel[i][j] {
				t.Fatalf("parallel LD differs at (%d,%d)", i, j)
			}
		}
	}
}

// randomCols builds w random SNP columns over n samples.
func randomCols(rng *rand.Rand, w, n int) [][]bool {
	cols := make([][]bool, w)
	for i := range cols {
		cols[i] = make([]bool, n)
		for k := range cols[i] {
			cols[i][k] = rng.Intn(2) == 1
		}
	}
	return cols
}

// pairCountsReference computes the trapezoid reference with per-pair R2
// calls on a fresh direct computer.
func pairCountsReference(a *seqio.Alignment, iLo, iHi, jLo int) map[[2]int]float64 {
	c := NewComputer(a, Direct, 1)
	want := make(map[[2]int]float64)
	for i := iLo; i < iHi; i++ {
		for j := jLo; j < i; j++ {
			want[[2]int{i, j}] = c.R2(i, j)
		}
	}
	return want
}

// sentinel marks destination cells PairCounts must not write.
var sentinel = math.Float64frombits(0x7ff8dead0000beef)

// runPairCounts runs c.PairCounts into a sentinel-filled destination
// padded past the trapezoid's width, and returns it with its stride.
func runPairCounts(c *Computer, iLo, iHi, jLo int) ([]float64, int) {
	stride := max(iHi-jLo, 0) + 3
	dst := make([]float64, max(iHi-iLo, 1)*stride)
	for k := range dst {
		dst[k] = sentinel
	}
	c.PairCounts(iLo, iHi, jLo, dst, stride)
	return dst, stride
}

// checkTrapezoid compares a PairCounts destination bit for bit against
// want (keyed by (i, j)) and checks every cell outside the trapezoid
// still holds the sentinel.
func checkTrapezoid(dst []float64, stride, iLo, jLo int, want map[[2]int]float64) error {
	for k, got := range dst {
		i, j := iLo+k/stride, jLo+k%stride
		w, in := want[[2]int{i, j}]
		if !in {
			w = sentinel
		}
		if math.Float64bits(got) != math.Float64bits(w) {
			return fmt.Errorf("cell (%d,%d) = %v (%#x), want %v (%#x)",
				i, j, got, math.Float64bits(got), w, math.Float64bits(w))
		}
	}
	return nil
}

// TestPairCountsPathsAgree holds every PairCounts execution path — the
// blocked triangular GEMM, the serial direct walk, and the parallel
// direct walk — to bit-identical r² over randomized trapezoids.
func TestPairCountsPathsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := rng.Intn(60) + 2
		n := rng.Intn(120) + 2
		a := alignmentFromBools(randomCols(rng, w, n), nil)
		iLo := rng.Intn(w)
		iHi := iLo + rng.Intn(w-iLo) + 1
		jLo := rng.Intn(iLo + 1)
		want := pairCountsReference(a, iLo, iHi, jLo)
		for _, cse := range []struct {
			engine  Engine
			workers int
		}{{Direct, 1}, {Direct, 3}, {GEMM, 1}, {GEMM, 4}} {
			dst, stride := runPairCounts(NewComputer(a, cse.engine, cse.workers), iLo, iHi, jLo)
			if err := checkTrapezoid(dst, stride, iLo, jLo, want); err != nil {
				t.Logf("seed %d %v/%d: %v", seed, cse.engine, cse.workers, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPairCountsGEMMLargeTrapezoid forces the blocked kernel past the
// gemmMinPairs threshold and checks it against the direct walk.
func TestPairCountsGEMMLargeTrapezoid(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const w = 160 // 160·159/2 pairs ≫ gemmMinPairs
	a := alignmentFromBools(randomCols(rng, w, 257), nil)
	want := pairCountsReference(a, 0, w, 0)
	c := NewComputer(a, GEMM, 2)
	dst, stride := runPairCounts(c, 0, w, 0)
	if err := checkTrapezoid(dst, stride, 0, 0, want); err != nil {
		t.Fatal(err)
	}
	if c.Scores() != int64(w*(w-1)/2) {
		t.Errorf("Scores = %d, want %d (exactly the useful pairs)", c.Scores(), w*(w-1)/2)
	}
}

// TestPairCountsMissingDataFallsBack checks masked alignments take the
// mask-aware path and still agree with per-pair R2, on either engine
// and any worker count.
func TestPairCountsMissingDataFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	w, n := 100, 40
	cols := randomCols(rng, w, n)
	masks := make([][]bool, w)
	masks[3] = make([]bool, n)
	for k := range masks[3] {
		masks[3][k] = k%5 != 0
	}
	a := alignmentFromBools(cols, masks)
	want := pairCountsReference(a, 0, w, 0)
	for _, engine := range []Engine{Direct, GEMM} {
		for _, workers := range []int{1, 2} {
			c := NewComputer(a, engine, workers)
			if c.Batched() {
				t.Fatal("masked alignment must not report Batched")
			}
			dst, stride := runPairCounts(c, 0, w, 0)
			if err := checkTrapezoid(dst, stride, 0, 0, want); err != nil {
				t.Fatalf("%v workers=%d: %v", engine, workers, err)
			}
		}
	}
}

func TestPairCountsEmptyAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	a := alignmentFromBools(randomCols(rng, 8, 16), nil)
	c := NewComputer(a, GEMM, 1)
	// Empty trapezoids: no write, no panic, no score — even into a nil
	// destination.
	for _, cse := range [][3]int{{0, 0, 0}, {3, 3, 0}, {0, 1, 0}, {5, 6, 5}, {2, 4, 6}} {
		c.PairCounts(cse[0], cse[1], cse[2], nil, 0)
	}
	if c.Scores() != 0 {
		t.Errorf("empty trapezoids scored %d pairs", c.Scores())
	}
	for _, bad := range []struct {
		name                 string
		iLo, iHi, jLo, cells int
		stride               int
	}{
		{"rows past the alignment", 0, 9, 0, 81, 9},
		{"negative jLo", 1, 3, -1, 9, 3},
		{"stride narrower than a row", 0, 8, 0, 64, 6},
		{"destination too short", 0, 8, 0, 55, 8},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", bad.name)
				}
			}()
			c.PairCounts(bad.iLo, bad.iHi, bad.jLo, make([]float64, bad.cells), bad.stride)
		}()
	}
}

// TestPairCountsBitwiseDifferential is the bit-identity contract of the
// LD kernel: every PairCounts path — direct and GEMM engines, one to
// four workers — must write exactly math.Float64bits of the per-pair
// RSquaredFromCounts over mask-aware counts, across word-boundary
// sample counts, monomorphic and fixed SNPs, masked alignments, and
// trapezoids with non-zero jLo. Scores must advance by exactly the
// trapezoid's pair count on every call.
func TestPairCountsBitwiseDifferential(t *testing.T) {
	const w = 120
	traps := [][3]int{
		{0, w, 0},    // full triangle: past gemmMinPairs and parallelMinPairs
		{40, w, 10},  // window trapezoid with a non-zero jLo
		{5, 9, 2},    // small: direct walk on either engine
		{3, 20, 10},  // jLo past iLo: leading rows hold no pairs
		{30, 31, 29}, // one pair
	}
	for _, n := range []int{1, 63, 64, 65, 256, 257} {
		for _, masked := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(1000*n) + 7))
			cols := randomCols(rng, w, n)
			for i := range cols[7] {
				cols[7][i], cols[50][i] = false, true // monomorphic, fixed
			}
			var masks [][]bool
			if masked {
				masks = make([][]bool, w)
				for _, r := range []int{2, 7, 33, 90} {
					masks[r] = make([]bool, n)
					for k := range masks[r] {
						masks[r][k] = rng.Intn(6) != 0
					}
				}
			}
			a := alignmentFromBools(cols, masks)
			for _, tr := range traps {
				iLo, iHi, jLo := tr[0], tr[1], tr[2]
				want := make(map[[2]int]float64)
				for i := iLo; i < iHi; i++ {
					for j := jLo; j < i; j++ {
						want[[2]int{i, j}] = RSquaredFromCounts(a.Matrix.PairCounts(i, j))
					}
				}
				pairs := gemm.TrapezoidPairs(iHi-iLo, iHi-1-jLo, iLo-jLo-1)
				if pairs != int64(len(want)) {
					t.Fatalf("TrapezoidPairs%v = %d, want %d", tr, pairs, len(want))
				}
				for _, engine := range []Engine{Direct, GEMM} {
					for workers := 1; workers <= 4; workers++ {
						c := NewComputer(a, engine, workers)
						for call := int64(1); call <= 2; call++ {
							dst, stride := runPairCounts(c, iLo, iHi, jLo)
							if err := checkTrapezoid(dst, stride, iLo, jLo, want); err != nil {
								t.Fatalf("n=%d masked=%v trap=%v %v workers=%d: %v",
									n, masked, tr, engine, workers, err)
							}
							if got := c.Scores(); got != call*pairs {
								t.Fatalf("n=%d masked=%v trap=%v %v workers=%d: Scores %d after call %d, want %d",
									n, masked, tr, engine, workers, got, call, call*pairs)
							}
						}
					}
				}
			}
		}
	}
}
