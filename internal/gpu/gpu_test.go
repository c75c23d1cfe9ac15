package gpu

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"omegago/internal/devmodel"
	"omegago/internal/ld"
	"omegago/internal/mssim"
	"omegago/internal/omega"
	"omegago/internal/seqio"
)

func testAlignment(t testing.TB, snps, samples int, seed int64) *seqio.Alignment {
	t.Helper()
	reps, err := mssim.Simulate(mssim.Config{
		SampleSize: samples, Replicates: 1, SegSites: snps, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := reps[0].ToAlignment(1e6)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestThresholdEquation4(t *testing.T) {
	if got := TeslaK80.Threshold(); got != 13*32*32 {
		t.Errorf("K80 threshold = %d, want %d", got, 13*32*32)
	}
	if got := RadeonHD8750M.Threshold(); got != 6*64*32 {
		t.Errorf("HD8750M threshold = %d, want %d", got, 6*64*32)
	}
}

func TestDeviceAccessors(t *testing.T) {
	if TeslaK80.Lanes() != 2496 {
		t.Errorf("K80 lanes = %d, want 2496", TeslaK80.Lanes())
	}
	if RadeonHD8750M.Lanes() != 384 {
		t.Errorf("HD8750M lanes = %d, want 384", RadeonHD8750M.Lanes())
	}
	if len(Catalog()) != 2 {
		t.Error("catalog should hold the two paper systems")
	}
	if !strings.Contains(TeslaK80.String(), "K80") {
		t.Error("String should name the device")
	}
}

func TestKindString(t *testing.T) {
	if KernelI.String() != "kernel-I" || KernelII.String() != "kernel-II" || Dynamic.String() != "dynamic" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(7).String(), "7") {
		t.Error("unknown kind should include value")
	}
}

// launchAll runs every region of a scan through one kernel kind and
// compares against the CPU reference.
func launchAll(t *testing.T, d Device, kind Kind, a *seqio.Alignment, p omega.Params, opts Options) {
	t.Helper()
	p = p.WithDefaults()
	regions, err := omega.BuildRegions(a, p)
	if err != nil {
		t.Fatal(err)
	}
	m := omega.NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
	for _, reg := range regions {
		if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
			continue
		}
		m.Advance(reg.Lo, reg.Hi)
		cpu := omega.ComputeOmega(m, a, reg, p)
		in := omega.BuildKernelInput(m, a, reg, p)
		if in == nil {
			if cpu.Valid {
				t.Fatalf("region %d: nil input but CPU valid", reg.Index)
			}
			continue
		}
		res, rep := LaunchOmega(d, kind, in, a, opts)
		if res.Valid != cpu.Valid {
			t.Fatalf("region %d: validity mismatch", reg.Index)
		}
		if !cpu.Valid {
			continue
		}
		if res.MaxOmega != cpu.MaxOmega {
			t.Fatalf("region %d kind %v: ω %g != CPU %g", reg.Index, kind, res.MaxOmega, cpu.MaxOmega)
		}
		if res.LeftBorder != cpu.LeftBorder || res.RightBorder != cpu.RightBorder {
			t.Fatalf("region %d kind %v: borders (%d,%d) != CPU (%d,%d)",
				reg.Index, kind, res.LeftBorder, res.RightBorder, cpu.LeftBorder, cpu.RightBorder)
		}
		if res.Scores != cpu.Scores || rep.Omegas != cpu.Scores {
			t.Fatalf("region %d: scores %d/%d != CPU %d", reg.Index, res.Scores, rep.Omegas, cpu.Scores)
		}
		if rep.KernelSeconds <= 0 || rep.TotalSeconds() <= 0 {
			t.Fatalf("region %d: non-positive modeled time %+v", reg.Index, rep)
		}
	}
}

func TestKernelsMatchCPU(t *testing.T) {
	a := testAlignment(t, 200, 40, 31)
	p := omega.Params{GridSize: 12, MaxWindow: 60000}
	for _, d := range Catalog() {
		for _, kind := range []Kind{KernelI, KernelII, Dynamic} {
			launchAll(t, d, kind, a, p, Options{})
		}
	}
}

func TestKernelsMatchCPUWithMinWindow(t *testing.T) {
	a := testAlignment(t, 150, 30, 37)
	p := omega.Params{GridSize: 8, MaxWindow: 80000, MinWindow: 15000}
	launchAll(t, TeslaK80, Dynamic, a, p, Options{})
}

func TestOrderSwitchAblationSameResults(t *testing.T) {
	a := testAlignment(t, 120, 25, 41)
	p := omega.Params{GridSize: 10, MaxWindow: 100000}
	launchAll(t, TeslaK80, KernelII, a, p, Options{DisableOrderSwitch: true})
}

func TestOrderSwitchProperty(t *testing.T) {
	// Order switch must never change the result, only the report.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := testAlignment(t, rng.Intn(60)+20, rng.Intn(20)+5, seed)
		p := omega.Params{GridSize: 3, MaxWindow: 1e6}.WithDefaults()
		regions, err := omega.BuildRegions(a, p)
		if err != nil {
			return false
		}
		m := omega.NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
		for _, reg := range regions {
			if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
				continue
			}
			m.Advance(reg.Lo, reg.Hi)
			in := omega.BuildKernelInput(m, a, reg, p)
			if in == nil {
				continue
			}
			on, _ := LaunchOmega(RadeonHD8750M, Dynamic, in, a, Options{})
			off, _ := LaunchOmega(RadeonHD8750M, Dynamic, in, a, Options{DisableOrderSwitch: true})
			if on.MaxOmega != off.MaxOmega || on.LeftBorder != off.LeftBorder ||
				on.RightBorder != off.RightBorder || on.Scores != off.Scores {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestDynamicSelectsByThreshold(t *testing.T) {
	a := testAlignment(t, 400, 30, 43)
	p := omega.Params{GridSize: 6, MaxWindow: 1e6}.WithDefaults()
	regions, _ := omega.BuildRegions(a, p)
	m := omega.NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
	sawI, sawII := false, false
	for _, reg := range regions {
		if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
			continue
		}
		m.Advance(reg.Lo, reg.Hi)
		in := omega.BuildKernelInput(m, a, reg, p)
		if in == nil {
			continue
		}
		_, rep := LaunchOmega(TeslaK80, Dynamic, in, a, Options{})
		if int64(in.Total()) < TeslaK80.Threshold() {
			if rep.Kind != KernelI {
				t.Fatalf("small load (%d) deployed %v", in.Total(), rep.Kind)
			}
			sawI = true
		} else {
			if rep.Kind != KernelII {
				t.Fatalf("large load (%d) deployed %v", in.Total(), rep.Kind)
			}
			sawII = true
		}
	}
	if !sawI || !sawII {
		t.Skipf("workload did not exercise both kernels (I=%v II=%v)", sawI, sawII)
	}
}

func TestKernelIIWildAndPadding(t *testing.T) {
	a := testAlignment(t, 500, 25, 47)
	p := omega.Params{GridSize: 1, MaxWindow: 1e6}.WithDefaults()
	regions, _ := omega.BuildRegions(a, p)
	m := omega.NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
	reg := regions[0]
	m.Advance(reg.Lo, reg.Hi)
	in := omega.BuildKernelInput(m, a, reg, p)
	if in == nil {
		t.Fatal("nil input")
	}
	_, rep := LaunchOmega(TeslaK80, KernelII, in, a, Options{})
	if rep.PaddedItems%WorkGroupSize != 0 {
		t.Errorf("items %d not padded to work-group size", rep.PaddedItems)
	}
	if rep.WILD < 1 || rep.PaddedItems*rep.WILD < in.Total() {
		t.Errorf("WILD %d × items %d cannot cover %d slots", rep.WILD, rep.PaddedItems, in.Total())
	}
	if rep.Bytes <= int64(in.Total())*8 {
		t.Errorf("padded transfer %d should exceed raw TS bytes", rep.Bytes)
	}
}

func TestModelAsymptoticRates(t *testing.T) {
	// At full occupancy the modeled per-ω rate of Kernel II must exceed
	// Kernel I by ~2.6×, and Kernel I must win when WILD would be 1.
	cal := devmodel.Default().GPU
	rI := 1.0 / cal.CyclesPerItemKernelI
	rII := 1.0 / cal.CyclesPerIterKernelII
	if ratio := rII / rI; ratio < 2.3 || ratio > 3.0 {
		t.Errorf("asymptotic kernel ratio %.2f outside the paper's ≈2.5–2.6 band", ratio)
	}
	// WILD = 1: Kernel II pays setup on every ω → ~10% slower.
	perOmegaII1 := cal.SetupCyclesKernelII + cal.CyclesPerIterKernelII
	if adv := perOmegaII1 / cal.CyclesPerItemKernelI; adv < 1.05 || adv > 1.2 {
		t.Errorf("kernel I advantage at WILD=1 is %.2f, want ≈1.1", adv)
	}
}

func TestOccupancyRamp(t *testing.T) {
	a := testAlignment(t, 60, 20, 53)
	p := omega.Params{GridSize: 1, MaxWindow: 1e6}.WithDefaults()
	regions, _ := omega.BuildRegions(a, p)
	m := omega.NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
	reg := regions[0]
	m.Advance(reg.Lo, reg.Hi)
	in := omega.BuildKernelInput(m, a, reg, p)
	_, rep := LaunchOmega(TeslaK80, KernelI, in, a, Options{})
	if rep.Occupancy <= 0 || rep.Occupancy > 1 {
		t.Errorf("occupancy %g outside (0,1]", rep.Occupancy)
	}
	if int64(in.Total()) < TeslaK80.Threshold() && rep.Occupancy == 1 {
		t.Errorf("small launch should not reach full occupancy")
	}
}

func TestLaunchOmegaNilInput(t *testing.T) {
	res, rep := LaunchOmega(TeslaK80, Dynamic, nil, nil, Options{})
	if res.Valid || rep.Omegas != 0 {
		t.Error("nil input should produce empty result")
	}
}

func TestScanMatchesCPUScan(t *testing.T) {
	a := testAlignment(t, 250, 40, 59)
	p := omega.Params{GridSize: 15, MaxWindow: 80000}
	cpuRes, cpuStats, err := omega.ScanCtx(context.Background(), a, p, ld.Direct)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Catalog() {
		rep, err := ScanCtx(context.Background(), d, Dynamic, a, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != len(cpuRes) {
			t.Fatalf("%s: %d results, want %d", d.Name, len(rep.Results), len(cpuRes))
		}
		for i := range cpuRes {
			if rep.Results[i].Valid != cpuRes[i].Valid {
				t.Fatalf("%s: validity mismatch at %d", d.Name, i)
			}
			if cpuRes[i].Valid && rep.Results[i].MaxOmega != cpuRes[i].MaxOmega {
				t.Fatalf("%s: ω mismatch at %d", d.Name, i)
			}
		}
		if rep.OmegaScores != cpuStats.OmegaScores {
			t.Errorf("%s: scores %d, want %d", d.Name, rep.OmegaScores, cpuStats.OmegaScores)
		}
		if rep.TotalSeconds() <= 0 || rep.LDSeconds <= 0 {
			t.Errorf("%s: empty cost model: %+v", d.Name, rep)
		}
		if rep.KernelILaunches+rep.KernelIILaunches == 0 {
			t.Errorf("%s: no launches recorded", d.Name)
		}
	}
}

// TestScanLDModelCountsEnteringRows pins the rows the GPU LD model
// sends over PCIe on a sparse grid, where no window overlaps the last:
// each scored window is filled afresh, so exactly its own rows enter,
// not the gap before it.
func TestScanLDModelCountsEnteringRows(t *testing.T) {
	a := testAlignment(t, 4000, 30, 97)
	p := omega.Params{GridSize: 10, MaxWindow: 3000}
	regions, err := omega.BuildRegions(a, p.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	prevHi, gaps := -1, 0
	for _, reg := range regions {
		if reg.Skipped() {
			continue
		}
		if reg.Lo <= prevHi {
			t.Fatalf("region %d overlaps its predecessor; the grid is not sparse", reg.Index)
		}
		if reg.Lo > prevHi+1 {
			gaps++
		}
		w := reg.Hi - reg.Lo + 1
		want += ModelLDSeconds(TeslaK80, int64(w)*int64(w-1)/2, w, w, a.Samples())
		prevHi = reg.Hi
	}
	if gaps == 0 {
		t.Fatal("no gap between scored windows")
	}
	rep, err := ScanCtx(context.Background(), TeslaK80, Dynamic, a, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.LDSeconds-want) > 1e-12*want {
		t.Errorf("LDSeconds = %g, want %g (entering rows only)", rep.LDSeconds, want)
	}
}

func TestModelLDSeconds(t *testing.T) {
	if ModelLDSeconds(TeslaK80, 0, 0, 0, 50) != 0 {
		t.Error("zero pairs should cost nothing")
	}
	small := ModelLDSeconds(TeslaK80, 1000, 10, 100, 50)
	big := ModelLDSeconds(TeslaK80, 1000000, 10, 100, 50)
	if small <= 0 || big <= small {
		t.Errorf("LD model not monotone: %g vs %g", small, big)
	}
	// More samples per pair must cost more device time.
	few := ModelLDSeconds(TeslaK80, 1e6, 100, 1000, 100)
	many := ModelLDSeconds(TeslaK80, 1e6, 100, 1000, 60000)
	if many <= few {
		t.Errorf("sample scaling wrong: %g vs %g", few, many)
	}
}

func TestRoundUp(t *testing.T) {
	cases := []struct{ v, m, want int }{
		{0, 256, 0}, {1, 256, 256}, {256, 256, 256}, {257, 256, 512}, {5, 0, 5},
	}
	for _, c := range cases {
		if got := roundUp(c.v, c.m); got != c.want {
			t.Errorf("roundUp(%d,%d) = %d, want %d", c.v, c.m, got, c.want)
		}
	}
}

func TestPrepSecondsTiers(t *testing.T) {
	warm := TeslaK80.prepSeconds(1<<20, 1<<20)
	cold := TeslaK80.prepSeconds(1<<20, 1<<30)
	if cold <= warm {
		t.Errorf("cold prep (%g) should exceed warm prep (%g)", cold, warm)
	}
}

func TestLaunchReportTotal(t *testing.T) {
	r := LaunchReport{KernelSeconds: 1, PrepSeconds: 2, TransferSeconds: 3}
	if r.TotalSeconds() != 6 {
		t.Error("TotalSeconds wrong")
	}
}

func TestModelMemoryPenaltyShortInner(t *testing.T) {
	// A short inner axis (uncoalesced) must not make the model faster.
	repWide := LaunchReport{Kind: KernelI, PaddedItems: 1 << 16, Warps: 2048}
	repNarrow := repWide
	TeslaK80.model(&repWide, 512)
	TeslaK80.model(&repNarrow, 2)
	if repNarrow.KernelSeconds < repWide.KernelSeconds {
		t.Errorf("narrow inner %g faster than wide %g", repNarrow.KernelSeconds, repWide.KernelSeconds)
	}
}

func TestScanSweepDetectionOnGPU(t *testing.T) {
	reps, err := mssim.Simulate(mssim.Config{
		SampleSize: 30, Replicates: 1, SegSites: 200, Rho: 60, Seed: 61,
		Sweep: &mssim.SweepConfig{Position: 0.5, Alpha: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	const L = 150000
	a, _ := reps[0].ToAlignment(L)
	rep, err := ScanCtx(context.Background(), TeslaK80, Dynamic, a, omega.Params{GridSize: 30, MaxWindow: 30000}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	best, ok := omega.MaxResult(rep.Results)
	if !ok {
		t.Fatal("no valid result")
	}
	if math.Abs(best.Center-L/2) > 0.25*L {
		t.Errorf("GPU scan ω maximum at %g, want near centre %d", best.Center, L/2)
	}
}

func TestOverlapTransfersReducesExposedTime(t *testing.T) {
	a := testAlignment(t, 300, 40, 67)
	p := omega.Params{GridSize: 12, MaxWindow: 80000}
	plain, err := ScanCtx(context.Background(), TeslaK80, Dynamic, a, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	overlapped, err := ScanCtx(context.Background(), TeslaK80, Dynamic, a, p, Options{OverlapTransfers: true})
	if err != nil {
		t.Fatal(err)
	}
	if overlapped.OmegaTransferSeconds >= plain.OmegaTransferSeconds {
		t.Errorf("overlap should hide PCIe time: %g vs %g",
			overlapped.OmegaTransferSeconds, plain.OmegaTransferSeconds)
	}
	if overlapped.OmegaSeconds() >= plain.OmegaSeconds() {
		t.Errorf("overlap should shorten the ω phase")
	}
	// Results untouched by the cost-model option.
	for i := range plain.Results {
		if plain.Results[i].Valid && plain.Results[i].MaxOmega != overlapped.Results[i].MaxOmega {
			t.Fatal("overlap option changed results")
		}
	}
}
