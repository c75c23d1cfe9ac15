package fpga

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

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

func TestResourceModelReproducesTable1(t *testing.T) {
	// The fitted models must reproduce the paper's Table I exactly at
	// the deployed unroll factors.
	zcu := ZCU102.Utilization()
	if zcu != (Resources{BRAM: 36, DSP: 48, FF: 12003, LUT: 12847}) {
		t.Errorf("ZCU102 utilization %+v", zcu)
	}
	alveo := AlveoU200.Utilization()
	if alveo != (Resources{BRAM: 40, DSP: 215, FF: 50841, LUT: 50584}) {
		t.Errorf("Alveo U200 utilization %+v", alveo)
	}
}

func TestUtilizationPercent(t *testing.T) {
	got := UtilizationPercent(36, 1824)
	if math.Abs(got-1.97) > 0.01 {
		t.Errorf("BRAM%% = %.3f, want ≈1.97", got)
	}
	if UtilizationPercent(1, 0) != 0 {
		t.Error("zero capacity should give 0")
	}
}

func TestMaxUnrollFactorSizing(t *testing.T) {
	// The bandwidth sizing rule must yield the paper's deployed UFs.
	if got := ZCU102.MaxUnrollFactor(); got != 4 {
		t.Errorf("ZCU102 max UF = %d, want 4", got)
	}
	if got := AlveoU200.MaxUnrollFactor(); got != 32 {
		t.Errorf("Alveo max UF = %d, want 32", got)
	}
}

func TestPeakThroughput(t *testing.T) {
	if got := ZCU102.PeakOmegaPerSec(); got != 0.4e9 {
		t.Errorf("ZCU102 peak = %g, want 0.4 Gω/s", got)
	}
	if got := AlveoU200.PeakOmegaPerSec(); got != 8e9 {
		t.Errorf("Alveo peak = %g, want 8 Gω/s", got)
	}
}

func TestPipelineDepth(t *testing.T) {
	if Depth() != 115 {
		t.Errorf("pipeline depth = %d, want 115", Depth())
	}
	if len(PipelineStages()) < 8 {
		t.Error("pipeline should enumerate its stage groups")
	}
	if !strings.Contains(ZCU102.String(), "UF=4") {
		t.Error("device String should include UF")
	}
}

func TestModelThroughputSaturation(t *testing.T) {
	for _, d := range Catalog() {
		peak := d.PeakOmegaPerSec()
		prev := 0.0
		for _, inner := range []int{d.UnrollFactor, 100, 1000, 10000, 100000} {
			thr := ModelThroughput(d, 0, inner)
			if thr <= 0 || thr > peak {
				t.Fatalf("%s: throughput %g outside (0, %g]", d.Name, thr, peak)
			}
			if thr+1e-9 < prev {
				t.Fatalf("%s: throughput not monotone at inner=%d", d.Name, inner)
			}
			prev = thr
		}
		// 90% of peak must be reached at inner ≈ 9·UF·Depth.
		at90 := 9 * d.UnrollFactor * Depth()
		if thr := ModelThroughput(d, 0, at90); thr < 0.88*peak || thr > 0.92*peak {
			t.Errorf("%s: throughput at %d iterations = %.3g, want ≈0.9 of %g",
				d.Name, at90, thr, peak)
		}
	}
	if ModelThroughput(ZCU102, 0, 0) != 0 {
		t.Error("zero iterations should give zero throughput")
	}
}

func TestLaunchMatchesCPU(t *testing.T) {
	a := testAlignment(t, 220, 35, 71)
	p := omega.Params{GridSize: 10, MaxWindow: 70000}.WithDefaults()
	regions, err := omega.BuildRegions(a, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Catalog() {
		m := omega.NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
		for _, reg := range regions {
			if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
				continue
			}
			m.Advance(reg.Lo, reg.Hi)
			cpu := omega.ComputeOmega(m, a, reg, p)
			in := omega.BuildKernelInput(m, a, reg, p)
			if in == nil {
				continue
			}
			res, rep := LaunchOmega(d, in, a, Options{})
			if res.Valid != cpu.Valid {
				t.Fatalf("%s region %d: validity mismatch", d.Name, reg.Index)
			}
			if !cpu.Valid {
				continue
			}
			if res.MaxOmega != cpu.MaxOmega || res.LeftBorder != cpu.LeftBorder ||
				res.RightBorder != cpu.RightBorder || res.Scores != cpu.Scores {
				t.Fatalf("%s region %d: result mismatch", d.Name, reg.Index)
			}
			if rep.HardwareOmegas+rep.SoftwareOmegas != int64(in.Total()) {
				t.Fatalf("%s region %d: hw %d + sw %d != total %d",
					d.Name, reg.Index, rep.HardwareOmegas, rep.SoftwareOmegas, in.Total())
			}
			if rep.Cycles <= 0 || rep.HardwareSeconds <= 0 {
				t.Fatalf("%s region %d: empty cost model", d.Name, reg.Index)
			}
		}
	}
}

func TestSoftwareRemainderSplit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := testAlignment(t, rng.Intn(80)+20, 12, seed)
		p := omega.Params{GridSize: 2, MaxWindow: 1e6}.WithDefaults()
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
			uf := []int{1, 3, 4, 7}[rng.Intn(4)]
			_, rep := LaunchOmega(ZCU102, in, a, Options{UnrollFactor: uf})
			wantSW := int64(in.Outer() * (in.Inner() % uf))
			if rep.SoftwareOmegas != wantSW {
				return false
			}
			if rep.HardwareOmegas != int64(in.Total())-wantSW {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestUnrollFactorAblationSameResults(t *testing.T) {
	a := testAlignment(t, 100, 20, 73)
	p := omega.Params{GridSize: 4, MaxWindow: 1e6}.WithDefaults()
	regions, _ := omega.BuildRegions(a, p)
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
		ref, _ := LaunchOmega(AlveoU200, in, a, Options{UnrollFactor: 1})
		for _, uf := range []int{2, 4, 8, 16, 32} {
			res, rep := LaunchOmega(AlveoU200, in, a, Options{UnrollFactor: uf})
			if res.MaxOmega != ref.MaxOmega || res.Scores != ref.Scores {
				t.Fatalf("UF=%d changes results", uf)
			}
			if rep.UnrollFactor != uf {
				t.Fatalf("report UF %d, want %d", rep.UnrollFactor, uf)
			}
		}
	}
}

func TestLaunchNilInput(t *testing.T) {
	res, rep := LaunchOmega(ZCU102, nil, nil, Options{})
	if res.Valid || rep.Cycles != 0 {
		t.Error("nil input should be empty")
	}
}

func TestModelLDSeconds(t *testing.T) {
	if ModelLDSeconds(AlveoU200, 0, 100) != 0 {
		t.Error("zero pairs cost nothing")
	}
	few := ModelLDSeconds(AlveoU200, 1e6, 500)
	many := ModelLDSeconds(AlveoU200, 1e6, 60000)
	if many <= few {
		t.Errorf("sample scaling wrong: %g vs %g", few, many)
	}
	// 64-sample granularity: 1..64 samples = 1 word
	if ModelLDSeconds(AlveoU200, 100, 1) != ModelLDSeconds(AlveoU200, 100, 64) {
		t.Error("sub-word sample counts should cost one word")
	}
}

func TestScanMatchesCPUScan(t *testing.T) {
	a := testAlignment(t, 250, 40, 79)
	p := omega.Params{GridSize: 15, MaxWindow: 80000}
	cpuRes, cpuStats, err := omega.ScanCtx(context.Background(), a, p, ld.Direct)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Catalog() {
		rep, err := ScanCtx(context.Background(), d, a, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != len(cpuRes) {
			t.Fatalf("%s: result count mismatch", d.Name)
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
		if rep.TotalSeconds() <= 0 {
			t.Errorf("%s: empty cost model", d.Name)
		}
		if rep.HardwareOmegas+rep.SoftwareOmegas != rep.OmegaScores+skippedScores(rep) {
			// HardwareOmegas counts slots, OmegaScores counts admissible
			// scores; without MinWindow they coincide.
			t.Errorf("%s: slot accounting off", d.Name)
		}
	}
}

// skippedScores: with no MinWindow constraint every slot is scored.
func skippedScores(*ScanReport) int64 { return 0 }

func TestAlveoFasterThanZCU(t *testing.T) {
	a := testAlignment(t, 200, 30, 83)
	p := omega.Params{GridSize: 10, MaxWindow: 1e6}
	zcu, err := ScanCtx(context.Background(), ZCU102, a, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	alveo, err := ScanCtx(context.Background(), AlveoU200, a, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if alveo.HardwareSeconds >= zcu.HardwareSeconds {
		t.Errorf("Alveo (%.3gs) should outrun ZCU102 (%.3gs)",
			alveo.HardwareSeconds, zcu.HardwareSeconds)
	}
}

func TestResourceEstimateMonotone(t *testing.T) {
	f := func(raw uint8) bool {
		uf := int(raw%64) + 1
		r1 := AlveoU200.Model.Estimate(uf)
		r2 := AlveoU200.Model.Estimate(uf + 1)
		return r2.DSP >= r1.DSP && r2.FF >= r1.FF && r2.LUT >= r1.LUT && r2.BRAM >= r1.BRAM
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
