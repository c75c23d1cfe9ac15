package omega

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"omegago/internal/bitvec"
	"omegago/internal/ld"
	"omegago/internal/mssim"
	"omegago/internal/seqio"
	"omegago/internal/stats"
)

// randomAlignment builds a dense random alignment with sorted positions.
func randomAlignment(rng *rand.Rand, snps, samples int, length float64) *seqio.Alignment {
	m := bitvec.NewMatrix(samples)
	pos := make([]float64, snps)
	p := 0.0
	for i := 0; i < snps; i++ {
		p += rng.Float64()
		pos[i] = p
	}
	scale := length / (p + 1)
	for i := range pos {
		pos[i] *= scale
	}
	for i := 0; i < snps; i++ {
		row := bitvec.New(samples)
		// ensure segregating
		one := rng.Intn(samples)
		row.Set(one, true)
		for s := 0; s < samples; s++ {
			if s != one && rng.Intn(2) == 1 {
				row.Set(s, true)
			}
		}
		if row.OnesCount() == samples {
			row.Set((one+1)%samples, false)
		}
		m.AppendRow(row, nil)
	}
	return &seqio.Alignment{Positions: pos, Length: length, Matrix: m}
}

// bruteWindowSum is the O(W²) oracle for M[i][j].
func bruteWindowSum(c *ld.Computer, j, i int) float64 {
	s := 0.0
	for a := j; a <= i; a++ {
		for b := a + 1; b <= i; b++ {
			s += c.R2(a, b)
		}
	}
	return s
}

func TestDPMatrixMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomAlignment(rng, 18, 20, 1000)
	comp := ld.NewComputer(a, ld.Direct, 1)
	m := NewDPMatrix(comp)
	m.Advance(0, 17)
	oracle := ld.NewComputer(a, ld.Direct, 1)
	for i := 0; i < 18; i++ {
		for j := 0; j <= i; j++ {
			want := bruteWindowSum(oracle, j, i)
			got := m.At(i, j)
			if !stats.AlmostEqual(got, want, 1e-10) {
				t.Fatalf("M[%d][%d] = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestDPMatrixGEMMAgreesWithDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomAlignment(rng, 40, 33, 5000)
	md := NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
	mg := NewDPMatrix(ld.NewComputer(a, ld.GEMM, 2))
	md.Advance(0, 39)
	mg.Advance(0, 39)
	for i := 0; i < 40; i++ {
		for j := 0; j <= i; j++ {
			if md.At(i, j) != mg.At(i, j) {
				t.Fatalf("engines disagree at M[%d][%d]", i, j)
			}
		}
	}
}

func TestDPMatrixRelocationExact(t *testing.T) {
	// Sliding in several steps must give bitwise-identical cells to a
	// fresh matrix built directly on the final window.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		snps := rng.Intn(25) + 10
		a := randomAlignment(rng, snps, 12, 1000)
		comp := ld.NewComputer(a, ld.Direct, 1)
		m := NewDPMatrix(comp)
		lo, hi := 0, rng.Intn(snps/2)+1
		m.Advance(lo, hi)
		for step := 0; step < 4; step++ {
			dLo := rng.Intn(3)
			dHi := rng.Intn(3)
			lo = min(lo+dLo, snps-1)
			hi = min(maxInt(hi+dHi, lo), snps-1)
			if lo > hi {
				lo = hi
			}
			if lo < m.Lo() || hi < m.Hi() {
				continue
			}
			m.Advance(lo, hi)
		}
		fresh := NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
		fresh.Advance(m.Lo(), m.Hi())
		for i := m.Lo(); i <= m.Hi(); i++ {
			for j := m.Lo(); j <= i; j++ {
				if m.At(i, j) != fresh.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDPMatrixReuseCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomAlignment(rng, 30, 10, 1000)
	m := NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
	m.Advance(0, 9)
	c0 := m.R2Computed()
	if c0 != 45 { // C(10,2) cells below diagonal
		t.Errorf("R2Computed = %d, want 45", c0)
	}
	m.Advance(5, 14)
	if m.R2Reused() == 0 {
		t.Error("relocation should have reused cells")
	}
	// disjoint jump resets
	m.Advance(25, 29)
	if m.Lo() != 25 || m.Hi() != 29 {
		t.Errorf("window [%d,%d], want [25,29]", m.Lo(), m.Hi())
	}
}

func TestDPMatrixPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomAlignment(rng, 10, 8, 100)
	m := NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
	m.Advance(2, 6)
	for name, fn := range map[string]func(){
		"backwards lo":  func() { m.Advance(1, 7) },
		"shrinking hi":  func() { m.Advance(3, 5) },
		"out of bounds": func() { m.Advance(3, 10) },
		"At below lo":   func() { m.At(3, 1) },
		"At above hi":   func() { m.At(7, 3) },
		"At j>i":        func() { m.At(3, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// bruteOmega enumerates all windows against naive r² sums.
func bruteOmega(a *seqio.Alignment, reg Region, p Params) (float64, int64) {
	p = p.WithDefaults()
	comp := ld.NewComputer(a, ld.Direct, 1)
	best := math.Inf(-1)
	var count int64
	for l := reg.Lo; l <= reg.K-p.MinSNPsPerSide+1; l++ {
		ln := reg.K - l + 1
		if p.MaxSNPsPerSide > 0 && ln > p.MaxSNPsPerSide {
			continue
		}
		for r := reg.K + p.MinSNPsPerSide; r <= reg.Hi; r++ {
			rn := r - reg.K
			if p.MaxSNPsPerSide > 0 && rn > p.MaxSNPsPerSide {
				continue
			}
			if a.Positions[r]-a.Positions[l] < p.MinWindow {
				continue
			}
			ls := bruteWindowSum(comp, l, reg.K)
			rs := bruteWindowSum(comp, reg.K+1, r)
			ts := bruteWindowSum(comp, l, r)
			w := Score(ls, rs, ts, stats.Choose2(ln), stats.Choose2(rn),
				float64(ln), float64(rn), p.Epsilon)
			count++
			if w > best {
				best = w
			}
		}
	}
	return best, count
}

func TestComputeOmegaMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		a := randomAlignment(rng, 16, 14, 1000)
		p := Params{GridSize: 1}.WithDefaults()
		regions, err := BuildRegions(a, p)
		if err != nil {
			t.Fatal(err)
		}
		reg := regions[0]
		if reg.K < reg.Lo+1 || reg.K >= reg.Hi-1 {
			continue
		}
		m := NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
		m.Advance(reg.Lo, reg.Hi)
		got := ComputeOmega(m, a, reg, p)
		wantMax, wantCount := bruteOmega(a, reg, p)
		if !got.Valid {
			t.Fatalf("trial %d: result invalid", trial)
		}
		if got.Scores != wantCount {
			t.Fatalf("trial %d: scores %d, want %d", trial, got.Scores, wantCount)
		}
		if !stats.AlmostEqual(got.MaxOmega, wantMax, 1e-9) {
			t.Fatalf("trial %d: maxω = %g, want %g", trial, got.MaxOmega, wantMax)
		}
	}
}

func TestComputeOmegaMinWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomAlignment(rng, 20, 12, 1000)
	p := Params{GridSize: 1, MinWindow: 400}.WithDefaults()
	regions, _ := BuildRegions(a, p)
	reg := regions[0]
	m := NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
	m.Advance(reg.Lo, reg.Hi)
	got := ComputeOmega(m, a, reg, p)
	wantMax, wantCount := bruteOmega(a, reg, p)
	if got.Scores != wantCount {
		t.Fatalf("scores %d, want %d", got.Scores, wantCount)
	}
	if wantCount > 0 && !stats.AlmostEqual(got.MaxOmega, wantMax, 1e-9) {
		t.Fatalf("maxω = %g, want %g", got.MaxOmega, wantMax)
	}
	if got.Valid && got.RightPos-got.LeftPos < 400 {
		t.Error("winning window violates MinWindow")
	}
}

func TestCountOmegasMatchesScores(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomAlignment(rng, rng.Intn(20)+8, 10, 1000)
		p := Params{
			GridSize:  rng.Intn(4) + 1,
			MinWindow: float64(rng.Intn(500)),
		}.WithDefaults()
		if rng.Intn(2) == 0 {
			p.MaxWindow = float64(rng.Intn(600) + 100)
		}
		regions, err := BuildRegions(a, p)
		if err != nil {
			return false
		}
		comp := ld.NewComputer(a, ld.Direct, 1)
		m := NewDPMatrix(comp)
		for _, reg := range regions {
			if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
				if CountOmegas(a, reg, p) != 0 {
					return false
				}
				continue
			}
			if reg.Lo < m.Lo() || reg.Hi < m.Hi() {
				continue // stale window ordering; skip (BuildRegions keeps monotone)
			}
			m.Advance(reg.Lo, reg.Hi)
			res := ComputeOmega(m, a, reg, p)
			if CountOmegas(a, reg, p) != res.Scores {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKernelInputMatchesCPU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		a := randomAlignment(rng, 24, 16, 2000)
		p := Params{GridSize: 3, MinWindow: float64(rng.Intn(2) * 300)}.WithDefaults()
		regions, _ := BuildRegions(a, p)
		m := NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
		for _, reg := range regions {
			if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
				continue
			}
			m.Advance(reg.Lo, reg.Hi)
			cpu := ComputeOmega(m, a, reg, p)
			in := BuildKernelInput(m, a, reg, p)
			if in == nil {
				if cpu.Valid {
					t.Fatalf("kernel input nil but CPU valid")
				}
				continue
			}
			best := math.Inf(-1)
			bestSlot := -1
			var scores int64
			for g := 0; g < in.Total(); g++ {
				w := in.ScoreAt(g)
				if math.IsInf(w, -1) {
					continue
				}
				scores++
				if w > best {
					best = w
					bestSlot = g
				}
			}
			res := in.ResultFromInput(a, bestSlot, best, scores)
			if res.Valid != cpu.Valid {
				t.Fatalf("validity mismatch")
			}
			if !cpu.Valid {
				continue
			}
			if res.MaxOmega != cpu.MaxOmega { // bitwise: same Score calls
				t.Fatalf("maxω %g != CPU %g", res.MaxOmega, cpu.MaxOmega)
			}
			if res.Scores != cpu.Scores {
				t.Fatalf("scores %d != CPU %d", res.Scores, cpu.Scores)
			}
			if res.LeftBorder != cpu.LeftBorder || res.RightBorder != cpu.RightBorder {
				t.Fatalf("border mismatch (%d,%d) vs (%d,%d)",
					res.LeftBorder, res.RightBorder, cpu.LeftBorder, cpu.RightBorder)
			}
		}
	}
}

func TestKernelInputBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomAlignment(rng, 20, 10, 1000)
	p := Params{GridSize: 1}.WithDefaults()
	regions, _ := BuildRegions(a, p)
	m := NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
	m.Advance(regions[0].Lo, regions[0].Hi)
	in := BuildKernelInput(m, a, regions[0], p)
	if in == nil {
		t.Fatal("nil kernel input")
	}
	want := int64(3*in.Outer()+3*in.Inner()+in.Total()) * 8
	if in.Bytes() != want {
		t.Errorf("Bytes = %d, want %d", in.Bytes(), want)
	}
}

func TestGridPositions(t *testing.T) {
	g := GridPositions(0, 100, 5)
	want := []float64{0, 25, 50, 75, 100}
	for i := range want {
		if g[i] != want[i] {
			t.Errorf("grid[%d] = %g, want %g", i, g[i], want[i])
		}
	}
	if got := GridPositions(10, 20, 1); len(got) != 1 || got[0] != 15 {
		t.Errorf("single grid wrong: %v", got)
	}
	if GridPositions(0, 100, 0) != nil || GridPositions(5, 1, 3) != nil {
		t.Error("degenerate grids should be nil")
	}
}

func TestBuildRegionsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomAlignment(rng, 50, 10, 10000)
	p := Params{GridSize: 10, MaxWindow: 1500}
	regions, err := BuildRegions(a, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 10 {
		t.Fatalf("got %d regions", len(regions))
	}
	prevLo, prevHi := -1, -1
	for _, reg := range regions {
		if reg.Lo < prevLo || reg.Hi < prevHi {
			t.Fatal("regions not monotone")
		}
		prevLo, prevHi = reg.Lo, reg.Hi
		for i := reg.Lo; i <= reg.Hi && i < a.NumSNPs(); i++ {
			if math.Abs(a.Positions[i]-reg.Center) > 1500+1e-9 {
				t.Fatalf("SNP %d at %g outside maxwin of centre %g", i, a.Positions[i], reg.Center)
			}
		}
		if reg.K >= reg.Lo && reg.K <= reg.Hi {
			if a.Positions[reg.K] > reg.Center {
				t.Fatal("junction right of centre")
			}
			if reg.K+1 <= reg.Hi && a.Positions[reg.K+1] <= reg.Center {
				t.Fatal("junction not maximal")
			}
		}
	}
}

func TestBuildRegionsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randomAlignment(rng, 5, 8, 100)
	if _, err := BuildRegions(a, Params{GridSize: 0}); err == nil {
		t.Error("grid 0 should fail")
	}
	empty := &seqio.Alignment{Matrix: bitvec.NewMatrix(4)}
	if _, err := BuildRegions(empty, Params{GridSize: 3}); err == nil {
		t.Error("empty alignment should fail")
	}
	if err := (Params{GridSize: 2, MinWindow: -1}).Validate(); err == nil {
		t.Error("negative MinWindow should fail")
	}
	if err := (Params{GridSize: 2, MaxSNPsPerSide: 1, MinSNPsPerSide: 2}).Validate(); err == nil {
		t.Error("MaxSNPsPerSide < MinSNPsPerSide should fail")
	}
}

func TestScanSerialOnSimulatedData(t *testing.T) {
	reps, err := mssim.Simulate(mssim.Config{SampleSize: 30, Replicates: 1, SegSites: 150, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := reps[0].ToAlignment(100000)
	p := Params{GridSize: 20, MaxWindow: 20000}
	results, st, err := ScanCtx(context.Background(), a, p, ld.Direct)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 20 {
		t.Fatalf("got %d results", len(results))
	}
	if st.OmegaScores == 0 || st.R2Computed == 0 {
		t.Fatalf("empty stats: %+v", st)
	}
	if st.R2Reused == 0 {
		t.Error("overlapping regions should reuse M cells")
	}
	for _, r := range results {
		if r.Valid {
			if r.LeftPos > r.Center || r.RightPos < r.Center {
				t.Errorf("window [%g,%g] does not straddle centre %g", r.LeftPos, r.RightPos, r.Center)
			}
			if r.MaxOmega < 0 {
				t.Errorf("negative ω %g", r.MaxOmega)
			}
		}
	}
}

func TestScanParallelMatchesSerial(t *testing.T) {
	reps, err := mssim.Simulate(mssim.Config{SampleSize: 25, Replicates: 1, SegSites: 120, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := reps[0].ToAlignment(50000)
	p := Params{GridSize: 16, MaxWindow: 10000}
	serial, stS, err := ScanCtx(context.Background(), a, p, ld.Direct)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 3, 4} {
		par, stP, err := ScanParallelCtx(context.Background(), a, p, ld.Direct, threads, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("length mismatch")
		}
		for i := range par {
			if par[i].Valid != serial[i].Valid {
				t.Fatalf("threads=%d: validity mismatch at %d", threads, i)
			}
			if par[i].Valid && par[i].MaxOmega != serial[i].MaxOmega {
				t.Fatalf("threads=%d: ω mismatch at %d: %g vs %g",
					threads, i, par[i].MaxOmega, serial[i].MaxOmega)
			}
		}
		if stP.OmegaScores != stS.OmegaScores {
			t.Errorf("threads=%d: score counts differ: %d vs %d", threads, stP.OmegaScores, stS.OmegaScores)
		}
	}
}

func TestScanDetectsSweep(t *testing.T) {
	// A strong completed sweep at the locus centre must produce the ω
	// maximum near the centre of the region.
	reps, err := mssim.Simulate(mssim.Config{
		SampleSize: 40, Replicates: 1, SegSites: 250, Rho: 80, Seed: 23,
		Sweep: &mssim.SweepConfig{Position: 0.5, Alpha: 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	const L = 200000
	a, _ := reps[0].ToAlignment(L)
	p := Params{GridSize: 40, MaxWindow: 40000}
	results, _, err := ScanCtx(context.Background(), a, p, ld.Direct)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := MaxResult(results)
	if !ok {
		t.Fatal("no valid result")
	}
	if math.Abs(best.Center-L/2) > 0.2*L {
		t.Errorf("ω maximum at %g, want within 20%% of locus centre %g", best.Center, float64(L/2))
	}
}

func TestMaxResultEmpty(t *testing.T) {
	if _, ok := MaxResult([]Result{{Valid: false}}); ok {
		t.Error("no valid results should return ok=false")
	}
}

func TestScanParallelBadThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := randomAlignment(rng, 10, 8, 1000)
	if _, _, err := ScanParallelCtx(context.Background(), a, Params{GridSize: 2}, ld.Direct, 0, nil); err == nil {
		t.Error("0 threads should error")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Grid: 1, OmegaScores: 2, R2Computed: 3, R2Reused: 4, R2Duplicated: 5,
		LDTime: 6, OmegaTime: 7, SnapshotTime: 8, OmegaEvaluated: 9}
	b := Stats{Grid: 10, OmegaScores: 20, R2Computed: 30, R2Reused: 40, R2Duplicated: 50,
		LDTime: 60, OmegaTime: 70, SnapshotTime: 80, OmegaEvaluated: 90}
	a.Add(b)
	if a.Grid != 11 || a.OmegaScores != 22 || a.R2Computed != 33 || a.R2Reused != 44 ||
		a.R2Duplicated != 55 || a.LDTime != 66 || a.OmegaTime != 77 || a.SnapshotTime != 88 ||
		a.OmegaEvaluated != 99 {
		t.Errorf("Add wrong: %+v", a)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRegionSideCountsAndViewAccessors(t *testing.T) {
	reg := Region{Lo: 3, Hi: 10, K: 6}
	if reg.LeftSNPs() != 4 || reg.RightSNPs() != 4 {
		t.Errorf("side counts %d/%d, want 4/4", reg.LeftSNPs(), reg.RightSNPs())
	}
	empty := Region{Lo: 5, Hi: 10, K: 4}
	if empty.LeftSNPs() != 0 {
		t.Error("K<Lo should have empty left side")
	}
	right := Region{Lo: 0, Hi: 4, K: 4}
	if right.RightSNPs() != 0 {
		t.Error("K=Hi should have empty right side")
	}

	rng := rand.New(rand.NewSource(90))
	a := randomAlignment(rng, 12, 8, 100)
	m := NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
	m.Advance(2, 9)
	v := m.Snapshot()
	if v.Lo() != 2 || v.Hi() != 9 {
		t.Errorf("view window [%d,%d]", v.Lo(), v.Hi())
	}
	for i := 2; i <= 9; i++ {
		for j := 2; j <= i; j++ {
			if v.At(i, j) != m.At(i, j) {
				t.Fatalf("view differs at (%d,%d)", i, j)
			}
		}
	}
	// Snapshot survives later relocation.
	m.Advance(5, 11)
	if v.At(4, 3) != v.At(4, 3) || v.Lo() != 2 {
		t.Error("snapshot mutated by Advance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-window view access")
		}
	}()
	v.At(11, 3)
}
