package omega

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"omegago/internal/bitvec"
	"omegago/internal/ld"
	"omegago/internal/seqio"
)

// scanWithKernel runs a serial scan with the given kernel forced.
func scanWithKernel(t *testing.T, a *seqio.Alignment, p Params, kind KernelKind) ([]Result, Stats) {
	t.Helper()
	p.Kernel = kind
	res, st, err := ScanCtx(context.Background(), a, p, ld.Direct)
	if err != nil {
		t.Fatalf("scan with kernel %v: %v", kind, err)
	}
	return res, st
}

// requireIdentical asserts bit-identical Result slices (the kernel
// contract: same scores, same max, same tie-breaking window).
func requireIdentical(t *testing.T, ref, got []Result, label string) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(ref))
	}
	for i := range ref {
		if !reflect.DeepEqual(ref[i], got[i]) {
			t.Fatalf("%s: result %d differs:\n got %+v\nwant %+v", label, i, got[i], ref[i])
		}
	}
}

// gridAlignment builds an alignment with positions at exact multiples
// of spacing, so pos[r]−pos[l] lands exactly on MinWindow boundaries.
func gridAlignment(rng *rand.Rand, snps, samples int, spacing float64) *seqio.Alignment {
	m := bitvec.NewMatrix(samples)
	pos := make([]float64, snps)
	for i := range pos {
		pos[i] = float64(i+1) * spacing
	}
	for i := 0; i < snps; i++ {
		row := bitvec.New(samples)
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
	return &seqio.Alignment{Positions: pos, Length: float64(snps+1) * spacing, Matrix: m}
}

// TestKernelBitIdentityQuick is the property proof of the kernel layer:
// over randomized alignments and window parameters, the blocked and
// auto kernels reproduce the scalar reference bit-for-bit — same
// scores, same MaxOmega, same maximizing borders (tie-breaking).
func TestKernelBitIdentityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		snps := rng.Intn(50) + 16
		samples := rng.Intn(20) + 8
		a := randomAlignment(rng, snps, samples, 10000)
		p := Params{
			GridSize:  rng.Intn(8) + 2,
			MaxWindow: []float64{0, 2000, 5000}[rng.Intn(3)],
			MinWindow: []float64{0, 100, 1500, 9000}[rng.Intn(4)],
		}
		if rng.Intn(2) == 1 {
			p.MaxSNPsPerSide = rng.Intn(10) + 2
		}
		// Force auto down both dispatch paths across seeds.
		p.KernelNthr = []int{0, 1, 1 << 30}[rng.Intn(3)]
		ref, _ := scanWithKernel(t, a, p, KernelScalar)
		blk, _ := scanWithKernel(t, a, p, KernelBlocked)
		aut, _ := scanWithKernel(t, a, p, KernelAuto)
		return reflect.DeepEqual(ref, blk) && reflect.DeepEqual(ref, aut)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestKernelMinWindowEdges pins the MinWindow boundary behaviour where
// the two-pointer rewrite could diverge from the scalar skip branch.
func TestKernelMinWindowEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := gridAlignment(rng, 40, 16, 100) // positions 100, 200, …, 4000
	cases := []struct {
		name string
		p    Params
		// wantValid: every grid position with any window must agree; for
		// allSkipped we additionally assert nothing scored at all.
		allSkipped bool
	}{
		{name: "none-skipped", p: Params{GridSize: 6, MinWindow: 0}},
		{name: "all-skipped", p: Params{GridSize: 6, MinWindow: 1e9}, allSkipped: true},
		// pos[r]−pos[l] is an exact multiple of 100, so MinWindow 300 sits
		// exactly on the admissibility boundary (≥ keeps, < skips).
		{name: "boundary-exact", p: Params{GridSize: 6, MinWindow: 300}},
		// One left and one right border per region: outer = inner = 1.
		{name: "single-border", p: Params{GridSize: 6, MinWindow: 300, MaxSNPsPerSide: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, refSt := scanWithKernel(t, a, tc.p, KernelScalar)
			blk, _ := scanWithKernel(t, a, tc.p, KernelBlocked)
			aut, _ := scanWithKernel(t, a, tc.p, KernelAuto)
			requireIdentical(t, ref, blk, "blocked")
			requireIdentical(t, ref, aut, "auto")
			if tc.allSkipped {
				if refSt.OmegaScores != 0 {
					t.Fatalf("MinWindow %g scored %d windows, want 0", tc.p.MinWindow, refSt.OmegaScores)
				}
				for _, r := range ref {
					if r.Valid {
						t.Fatalf("all-skipped scan produced a valid result: %+v", r)
					}
				}
			} else if refSt.OmegaScores == 0 {
				t.Fatalf("%s scored nothing; the case is vacuous", tc.name)
			}
		})
	}
}

// TestKernelBlockedFallbackView exercises the blocked kernel's
// interface-At fallback path through a MatrixView that hides the raw
// row storage.
type atOnlyView struct{ m MatrixView }

func (v atOnlyView) At(i, j int) float64 { return v.m.At(i, j) }
func (v atOnlyView) Lo() int             { return v.m.Lo() }
func (v atOnlyView) Hi() int             { return v.m.Hi() }

func TestKernelBlockedFallbackView(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomAlignment(rng, 36, 14, 8000)
	p := Params{GridSize: 5, MinWindow: 800}.WithDefaults()
	regions, err := BuildRegions(a, p)
	if err != nil {
		t.Fatal(err)
	}
	comp := ld.NewComputer(a, ld.Direct, 1)
	m := NewDPMatrix(comp)
	scored := false
	for _, reg := range regions {
		if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
			continue
		}
		m.Advance(reg.Lo, reg.Hi)
		ref := scalarKernel{}.Evaluate(scratchFor(a), m, reg, p)
		raw := blockedKernel{}.Evaluate(scratchFor(a), m, reg, p)
		fall := blockedKernel{}.Evaluate(scratchFor(a), atOnlyView{m}, reg, p)
		if !reflect.DeepEqual(ref, raw) {
			t.Fatalf("raw-rows blocked diverges at region %d:\n got %+v\nwant %+v", reg.Index, raw, ref)
		}
		if !reflect.DeepEqual(ref, fall) {
			t.Fatalf("fallback blocked diverges at region %d:\n got %+v\nwant %+v", reg.Index, fall, ref)
		}
		scored = scored || ref.Valid
	}
	if !scored {
		t.Fatal("no region scored; the test is vacuous")
	}
}

// TestKernelDispatchCounters pins the auto kernel's Nthr dispatch and
// its observability: the Stats split must attribute every scored region
// to exactly one kernel.
func TestKernelDispatchCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randomAlignment(rng, 60, 12, 10000)
	base := Params{GridSize: 8}

	p := base
	p.KernelNthr = 1 // every region is ≥ 1 slot → all blocked
	_, st := scanWithKernel(t, a, p, KernelAuto)
	if st.KernelScalar != 0 || st.KernelBlocked == 0 {
		t.Fatalf("Nthr=1 dispatch: scalar=%d blocked=%d, want 0/+", st.KernelScalar, st.KernelBlocked)
	}

	p = base
	p.KernelNthr = 1 << 30 // nothing reaches the threshold → all scalar
	_, st = scanWithKernel(t, a, p, KernelAuto)
	if st.KernelBlocked != 0 || st.KernelScalar == 0 {
		t.Fatalf("huge-Nthr dispatch: scalar=%d blocked=%d, want +/0", st.KernelScalar, st.KernelBlocked)
	}

	_, st = scanWithKernel(t, a, base, KernelScalar)
	if st.KernelBlocked != 0 || st.KernelScalar == 0 {
		t.Fatalf("forced scalar: scalar=%d blocked=%d", st.KernelScalar, st.KernelBlocked)
	}
	_, st = scanWithKernel(t, a, base, KernelBlocked)
	if st.KernelScalar != 0 || st.KernelBlocked == 0 {
		t.Fatalf("forced blocked: scalar=%d blocked=%d", st.KernelScalar, st.KernelBlocked)
	}
}

// TestKernelsAcrossSchedulers: the forced blocked kernel must stay
// bit-identical to the serial scalar reference under both parallel
// schedulers.
func TestKernelsAcrossSchedulers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randomAlignment(rng, 80, 16, 20000)
	p := Params{GridSize: 12, MinWindow: 500}
	ref, _ := scanWithKernel(t, a, p, KernelScalar)

	p.Kernel = KernelBlocked
	snap, _, err := ScanParallelCtx(context.Background(), a, p, ld.Direct, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, snap, "snapshot scheduler / blocked")

	shard, _, err := ScanShardedCtx(context.Background(), a, p, ld.Direct, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, shard, "sharded scheduler / blocked")
}

// TestScratchBuildKernelInputMatchesStandalone: the allocation-free
// scratch packing must produce the same buffers as the standalone
// BuildKernelInput, skip bitmap included.
func TestScratchBuildKernelInputMatchesStandalone(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := gridAlignment(rng, 40, 12, 100)
	for _, minwin := range []float64{0, 300, 1e9} {
		p := Params{GridSize: 6, MinWindow: minwin}.WithDefaults()
		regions, err := BuildRegions(a, p)
		if err != nil {
			t.Fatal(err)
		}
		comp := ld.NewComputer(a, ld.Direct, 1)
		s := NewScratch(a, p)
		m := NewDPMatrixScratch(comp, s)
		for _, reg := range regions {
			if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
				continue
			}
			m.Advance(reg.Lo, reg.Hi)
			want := BuildKernelInput(m, a, reg, p)
			got := s.BuildKernelInput(m, reg, p)
			if (want == nil) != (got == nil) {
				t.Fatalf("minwin %g region %d: scratch nil=%v, standalone nil=%v",
					minwin, reg.Index, got == nil, want == nil)
			}
			if want == nil {
				continue
			}
			// Compare by value: the scratch input aliases reusable buffers,
			// so pointer identity is expected to differ.
			if !reflect.DeepEqual(*want, KernelInput{
				GridIndex: got.GridIndex, Center: got.Center, Epsilon: got.Epsilon,
				LeftBorders: got.LeftBorders, LS: got.LS, KL: got.KL, LN: got.LN,
				RightBorders: got.RightBorders, RS: got.RS, KR: got.KR, RN: got.RN,
				TS: got.TS, Skip: got.Skip,
			}) {
				t.Fatalf("minwin %g region %d: scratch packing differs from standalone",
					minwin, reg.Index)
			}
		}
	}
}

func TestParseKernelKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want KernelKind
	}{{"auto", KernelAuto}, {"", KernelAuto}, {"scalar", KernelScalar}, {"blocked", KernelBlocked}} {
		got, err := ParseKernelKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKernelKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("KernelKind(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseKernelKind("simd"); err == nil || !strings.Contains(err.Error(), "simd") {
		t.Errorf("ParseKernelKind(simd) err = %v, want unknown-kernel error naming it", err)
	}
	if _, err := LookupKernel("nope"); err == nil {
		t.Error("LookupKernel(nope) must fail")
	}
	names := KernelNames()
	if !reflect.DeepEqual(names, []string{"auto", "blocked", "scalar"}) {
		t.Errorf("KernelNames() = %v", names)
	}
}

func TestParamsValidateKernel(t *testing.T) {
	p := Params{GridSize: 4, Kernel: KernelKind(99)}
	if err := p.Validate(); err == nil {
		t.Error("unknown kernel kind must fail validation")
	}
	p = Params{GridSize: 4, KernelNthr: -1}
	if err := p.Validate(); err == nil {
		t.Error("negative KernelNthr must fail validation")
	}
}
