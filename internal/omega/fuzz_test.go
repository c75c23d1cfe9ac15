package omega

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"omegago/internal/bitvec"
	"omegago/internal/ld"
	"omegago/internal/seqio"
)

// Shape flags of fuzzAlignment and FuzzBlockedKernelMatchesScalar.
const (
	fuzzMasks      = 1 << iota // random per-SNP validity masks
	fuzzDuplicates             // copy earlier haplotype rows (r² = 1)
	fuzzMonomorph              // some SNPs carry one allele only (zero rows)
	fuzzOrthogonal             // two orthogonal patterns split at the middle: r² ∈ {0,1}, X = 0 at the split
	fuzzMinSide1               // MinSNPsPerSide = 1: ln = rn = 1 cells (0/0)
	fuzzTinyEps                // Epsilon 1e-12 instead of the default
)

// fuzzAlignment builds a small alignment whose shape the flags skew
// towards the cases a pruning bound could get wrong.
func fuzzAlignment(rng *rand.Rand, snps, samples int, flags uint8) *seqio.Alignment {
	m := bitvec.NewMatrix(samples)
	pos := make([]float64, snps)
	at := 0.0
	for i := range pos {
		at += float64(1 + rng.Intn(400))
		pos[i] = at
	}
	rows := make([]*bitvec.Vector, snps)
	for i := 0; i < snps; i++ {
		row := bitvec.New(samples)
		switch {
		case flags&fuzzOrthogonal != 0:
			// Samples 0,1 | 2,3 | … vs 0 | 1 | 2 | …: independent
			// patterns with allele frequency 1/2 when samples%4 == 0.
			for s := 0; s < samples; s++ {
				if i < snps/2 {
					row.Set(s, s%4 < 2)
				} else {
					row.Set(s, s%2 == 0)
				}
			}
		case flags&fuzzDuplicates != 0 && i > 0 && rng.Intn(3) == 0:
			row = rows[rng.Intn(i)]
		case flags&fuzzMonomorph != 0 && rng.Intn(3) == 0:
			if rng.Intn(2) == 0 {
				for s := 0; s < samples; s++ {
					row.Set(s, true)
				}
			}
		default:
			for s := 0; s < samples; s++ {
				row.Set(s, rng.Intn(2) == 1)
			}
		}
		rows[i] = row
		var mask *bitvec.Vector
		if flags&fuzzMasks != 0 && rng.Intn(2) == 0 {
			mask = bitvec.New(samples)
			for s := 0; s < samples; s++ {
				mask.Set(s, rng.Intn(5) != 0)
			}
		}
		m.AppendRow(row, mask)
	}
	return &seqio.Alignment{Positions: pos, Length: at + 1, Matrix: m}
}

// FuzzBlockedKernelMatchesScalar is the differential oracle of the
// blocked kernel's strip pruning. Over random small alignments and
// window parameters, the blocked kernel on a DPMatrix and on its View
// snapshot must reproduce the unpruned scalar kernel bit for bit — the
// same MaxOmega bits, borders, validity and admissible score count —
// and must never evaluate more scores than are admissible.
func FuzzBlockedKernelMatchesScalar(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(16), uint8(0), uint16(0), uint8(0), uint8(6))
	f.Add(int64(2), uint8(60), uint8(24), uint8(fuzzMasks), uint16(900), uint8(0), uint8(9))
	f.Add(int64(3), uint8(50), uint8(12), uint8(fuzzDuplicates), uint16(0), uint8(0), uint8(5))
	f.Add(int64(4), uint8(50), uint8(12), uint8(fuzzMonomorph|fuzzMasks), uint16(0), uint8(0), uint8(5))
	f.Add(int64(5), uint8(32), uint8(16), uint8(fuzzOrthogonal|fuzzTinyEps), uint16(0), uint8(0), uint8(1))
	f.Add(int64(6), uint8(30), uint8(10), uint8(fuzzMinSide1|fuzzDuplicates), uint16(0), uint8(0), uint8(7))
	f.Add(int64(7), uint8(45), uint8(14), uint8(fuzzMinSide1), uint16(0), uint8(3), uint8(8)) // windows shorter than one strip
	f.Fuzz(func(t *testing.T, seed int64, snps, samples, flags uint8, minWin uint16, maxSide, grid uint8) {
		rng := rand.New(rand.NewSource(seed))
		a := fuzzAlignment(rng, 2+int(snps)%79, 2+int(samples)%70, flags)
		p := Params{
			GridSize:       1 + int(grid)%16,
			MinWindow:      float64(minWin) * 4,
			MaxSNPsPerSide: int(maxSide) % 24,
		}
		if flags&fuzzMinSide1 != 0 {
			p.MinSNPsPerSide = 1
		}
		if flags&fuzzTinyEps != 0 {
			p.Epsilon = 1e-12
		}
		p = p.WithDefaults()
		if p.MaxSNPsPerSide != 0 && p.MaxSNPsPerSide < p.MinSNPsPerSide {
			p.MaxSNPsPerSide = p.MinSNPsPerSide
		}
		regions, err := BuildRegions(a, p)
		if err != nil {
			t.Skip(err)
		}
		m := NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
		s := NewScratch(a, p)
		for _, reg := range regions {
			if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
				continue
			}
			m.Advance(reg.Lo, reg.Hi)
			want := scalarKernel{}.Evaluate(s, m, reg, p)
			for _, view := range []struct {
				name string
				m    MatrixView
			}{{"DPMatrix", m}, {"View", m.Snapshot()}} {
				before := s.Evaluated
				got := blockedKernel{}.Evaluate(s, view.m, reg, p)
				if math.Float64bits(got.MaxOmega) != math.Float64bits(want.MaxOmega) ||
					got.LeftBorder != want.LeftBorder || got.RightBorder != want.RightBorder ||
					got.Valid != want.Valid || got.Scores != want.Scores {
					t.Fatalf("%s, region %d: blocked %+v, scalar %+v", view.name, reg.Index, got, want)
				}
				if ev := s.Evaluated - before; ev > got.Scores {
					t.Fatalf("%s, region %d: evaluated %d > admissible %d", view.name, reg.Index, ev, got.Scores)
				}
			}
		}
	})
}

// FuzzScanPathsMatchSerial is the differential oracle of the region-range
// driver. Over random small alignments, grids and windows — empty
// regions and ranges of skipped regions included — the sharded and
// snapshot schedulers and the streamed scan at any chunk size must
// return the serial scan's results and score counts exactly, and their
// extra r² must be exactly the boundary triangles they report as
// duplicated (none for the snapshot scheduler, which slides one matrix).
func FuzzScanPathsMatchSerial(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(16), uint8(0), uint16(0), uint8(0), uint8(12), uint16(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(60), uint8(24), uint8(fuzzMasks), uint16(300), uint8(0), uint8(15), uint16(40), uint8(1), uint8(1), uint8(1))
	f.Add(int64(3), uint8(70), uint8(12), uint8(fuzzDuplicates), uint16(0), uint8(6), uint8(9), uint16(8), uint8(2), uint8(7), uint8(2))
	f.Add(int64(4), uint8(50), uint8(20), uint8(fuzzMinSide1|fuzzMonomorph), uint16(0), uint8(0), uint8(14), uint16(3), uint8(2), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, snps, samples, flags uint8, minWin uint16, maxSide, grid uint8, maxWin uint16, threads, chunk, kernel uint8) {
		rng := rand.New(rand.NewSource(seed))
		a := fuzzAlignment(rng, 2+int(snps)%79, 2+int(samples)%70, flags)
		p := Params{
			GridSize:       1 + int(grid)%24,
			MinWindow:      float64(minWin) * 4,
			MaxWindow:      float64(maxWin) * 50, // 0 = unbounded; small windows leave regions empty
			MaxSNPsPerSide: int(maxSide) % 24,
			Kernel:         KernelKind(kernel % 3),
		}
		if flags&fuzzMinSide1 != 0 {
			p.MinSNPsPerSide = 1
		}
		if p.MaxSNPsPerSide != 0 && p.MaxSNPsPerSide < p.WithDefaults().MinSNPsPerSide {
			p.MaxSNPsPerSide = p.WithDefaults().MinSNPsPerSide
		}
		ctx := context.Background()
		serial, stS, err := ScanCtx(ctx, a, p, ld.Direct)
		if err != nil {
			t.Skip(err)
		}
		check := func(name string, results []Result, st Stats) {
			t.Helper()
			if len(results) != len(serial) {
				t.Fatalf("%s: %d results, want %d", name, len(results), len(serial))
			}
			for i := range results {
				if results[i] != serial[i] {
					t.Fatalf("%s: result[%d] = %+v, want %+v", name, i, results[i], serial[i])
				}
			}
			if st.Grid != stS.Grid || st.OmegaScores != stS.OmegaScores || st.OmegaEvaluated != stS.OmegaEvaluated ||
				st.KernelScalar != stS.KernelScalar || st.KernelBlocked != stS.KernelBlocked {
				t.Fatalf("%s: work counters %+v, serial %+v", name, st, stS)
			}
			if st.R2Computed-st.R2Duplicated != stS.R2Computed {
				t.Fatalf("%s: r² computed %d − duplicated %d != serial %d", name, st.R2Computed, st.R2Duplicated, stS.R2Computed)
			}
		}

		th := 2 + int(threads)%3
		sharded, st, err := ScanShardedCtx(ctx, a, p, ld.Direct, th, nil)
		if err != nil {
			t.Fatal(err)
		}
		check("sharded", sharded, st)
		snapshot, st, err := ScanParallelCtx(ctx, a, p, ld.Direct, th, nil)
		if err != nil {
			t.Fatal(err)
		}
		check("snapshot", snapshot, st)
		if st.R2Duplicated != 0 {
			t.Fatalf("snapshot: R2Duplicated = %d, want 0", st.R2Duplicated)
		}

		// chunkSNPs 0 is the default plan; 1 and anything below the widest
		// region force one chunk per scored region.
		chunkSNPs := int(chunk) % (a.NumSNPs() + 2)
		src, err := seqio.NewAlignmentSource(a)
		if err != nil {
			t.Fatal(err)
		}
		streamed, st, _, err := ScanStream(ctx, src, p, ld.Direct, 1, chunkSNPs, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("stream chunk=%d", chunkSNPs), streamed, st)
	})
}
