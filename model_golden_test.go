package omegago_test

import (
	"context"
	"testing"

	"omegago/internal/fpga"
	"omegago/internal/gpu"
	"omegago/internal/harness"
	"omegago/internal/ld"
	"omegago/internal/omega"
)

// TestGoldenAcceleratorModels pins the accelerator cost models to exact
// values for a fixed kernel input, so accidental drift in the
// calibrated constants (cycle counts, occupancy, padding, PCIe rates,
// pipeline depth) is caught. EXPERIMENTS.md's paper comparisons assume
// these exact models; re-pin only alongside a deliberate recalibration
// and refresh EXPERIMENTS.md in the same change.
func TestGoldenAcceleratorModels(t *testing.T) {
	a, err := harness.Dataset(800, 50, 31415)
	if err != nil {
		t.Fatal(err)
	}
	p := omega.Params{GridSize: 3, MaxWindow: 0}.WithDefaults()
	regions, err := omega.BuildRegions(a, p)
	if err != nil {
		t.Fatal(err)
	}
	m := omega.NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
	reg := regions[1]
	m.Advance(reg.Lo, reg.Hi)
	in := omega.BuildKernelInput(m, a, reg, p)
	if in == nil {
		t.Fatal("nil kernel input")
	}
	if in.Outer() != 412 || in.Inner() != 386 || in.Total() != 159032 {
		t.Fatalf("input geometry drifted: %dx%d", in.Outer(), in.Inner())
	}

	_, kI := gpu.LaunchOmega(gpu.TeslaK80, gpu.KernelI, in, a, gpu.Options{})
	if kI.KernelSeconds != 2.274742857142857e-05 {
		t.Errorf("Kernel I modeled time = %v", kI.KernelSeconds)
	}
	if kI.Bytes != 1298432 || kI.PaddedItems != 159232 || kI.WILD != 1 {
		t.Errorf("Kernel I launch geometry drifted: %+v", kI)
	}

	_, kII := gpu.LaunchOmega(gpu.TeslaK80, gpu.KernelII, in, a, gpu.Options{})
	if kII.KernelSeconds != 1.0002285714285715e-05 {
		t.Errorf("Kernel II modeled time = %v", kII.KernelSeconds)
	}
	if kII.PaddedItems != 13312 || kII.WILD != 12 {
		t.Errorf("Kernel II launch geometry drifted: %+v", kII)
	}
	// The calibrated Kernel II advantage at this workload (~2.3×).
	if ratio := kI.KernelSeconds / kII.KernelSeconds; ratio < 2.0 || ratio > 2.6 {
		t.Errorf("kernel ratio %.2f drifted", ratio)
	}

	_, fp := fpga.LaunchOmega(fpga.AlveoU200, in, a, fpga.Options{})
	if fp.Cycles != 52710 {
		t.Errorf("FPGA cycles = %d, want 52710", fp.Cycles)
	}
	if fp.HardwareSeconds != 0.00021084 {
		t.Errorf("FPGA hardware seconds = %v", fp.HardwareSeconds)
	}
	if fp.SoftwareOmegas != 824 { // outer × (inner mod 32) = 412 × 2
		t.Errorf("FPGA software remainder = %d, want 824", fp.SoftwareOmegas)
	}

	// Model invariants tied to the paper's architecture.
	if d := fpga.Depth(); d != 115 {
		t.Errorf("pipeline depth %d, want 115", d)
	}
	if thr := gpu.TeslaK80.Threshold(); thr != 13312 {
		t.Errorf("Eq. 4 threshold %d, want 13312", thr)
	}
}

// TestGoldenModeledScanSeconds pins full-scan modeled seconds, per
// phase, for every simulated device under the embedded default
// calibration. The values were captured immediately BEFORE the
// device-timing math moved into internal/devmodel, so this test is the
// bit-for-bit proof that the refactor (and any future calibration-table
// plumbing) did not change a single float64 operation. Re-pin only
// alongside a deliberate recalibration.
func TestGoldenModeledScanSeconds(t *testing.T) {
	a, err := harness.Dataset(800, 50, 31415)
	if err != nil {
		t.Fatal(err)
	}
	p := omega.Params{GridSize: 3, MaxWindow: 0}

	check := func(name string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %v, want %v (pre-refactor)", name, got, want)
		}
	}

	grep, err := gpu.ScanCtx(context.Background(), gpu.RadeonHD8750M, gpu.Dynamic, a, p, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check("HD8750M LDSeconds", grep.LDSeconds, 0.010449566169599217)
	check("HD8750M OmegaKernelSeconds", grep.OmegaKernelSeconds, 9.078709677419355e-05)
	check("HD8750M OmegaPrepSeconds", grep.OmegaPrepSeconds, 0.0015886359530100532)
	check("HD8750M OmegaTransferSeconds", grep.OmegaTransferSeconds, 0.000247088)
	check("HD8750M OmegaSeconds", grep.OmegaSeconds(), 0.0019265110497842467)
	check("HD8750M TotalSeconds", grep.TotalSeconds(), 0.012376077219383464)

	grep, err = gpu.ScanCtx(context.Background(), gpu.TeslaK80, gpu.Dynamic, a, p, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check("K80 LDSeconds", grep.LDSeconds, 0.0015461587275724274)
	check("K80 OmegaKernelSeconds", grep.OmegaKernelSeconds, 1.0002285714285715e-05)
	check("K80 OmegaPrepSeconds", grep.OmegaPrepSeconds, 0.0014327808)
	check("K80 OmegaTransferSeconds", grep.OmegaTransferSeconds, 0.0001502528)
	check("K80 OmegaSeconds", grep.OmegaSeconds(), 0.0015930358857142858)
	check("K80 TotalSeconds", grep.TotalSeconds(), 0.003139194613286713)

	grep, err = gpu.ScanCtx(context.Background(), gpu.TeslaK80, gpu.Dynamic, a, p, gpu.Options{OverlapTransfers: true})
	if err != nil {
		t.Fatal(err)
	}
	check("K80 overlap OmegaTransferSeconds", grep.OmegaTransferSeconds, 0.0001402505142857143)
	check("K80 overlap TotalSeconds", grep.TotalSeconds(), 0.0031291923275724273)

	frep, err := fpga.ScanCtx(context.Background(), fpga.ZCU102, a, p, fpga.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check("ZCU102 LDSeconds", frep.LDSeconds, 0.000799)
	check("ZCU102 HardwareSeconds", frep.HardwareSeconds, 0.00087318)
	check("ZCU102 SoftwareSeconds", frep.SoftwareSeconds, 1.1771428571428572e-05)
	if frep.Cycles != 87318 {
		t.Errorf("ZCU102 Cycles = %d, want 87318 (pre-refactor)", frep.Cycles)
	}
	check("ZCU102 OmegaSeconds", frep.OmegaSeconds(), 0.0008849514285714286)
	check("ZCU102 TotalSeconds", frep.TotalSeconds(), 0.0016839514285714287)

	frep, err = fpga.ScanCtx(context.Background(), fpga.AlveoU200, a, p, fpga.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check("AlveoU200 LDSeconds", frep.LDSeconds, 7.60952380952381e-05)
	check("AlveoU200 HardwareSeconds", frep.HardwareSeconds, 0.00021084)
	check("AlveoU200 SoftwareSeconds", frep.SoftwareSeconds, 1.1771428571428572e-05)
	if frep.Cycles != 52710 {
		t.Errorf("AlveoU200 Cycles = %d, want 52710 (pre-refactor)", frep.Cycles)
	}
	check("AlveoU200 OmegaSeconds", frep.OmegaSeconds(), 0.0002226114285714286)
	check("AlveoU200 TotalSeconds", frep.TotalSeconds(), 0.0002987066666666667)
}
