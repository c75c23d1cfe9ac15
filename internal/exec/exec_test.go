package exec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"omegago/internal/harness"
	"omegago/internal/ld"
	"omegago/internal/obs"
	"omegago/internal/omega"
)

func testParams() omega.Params {
	return omega.Params{GridSize: 20, MaxWindow: 20000}.WithDefaults()
}

// TestRegistry pins the registered backend set: exactly the three
// engines of the paper's Fig. 3 workflow, resolvable by name, sorted.
func TestRegistry(t *testing.T) {
	var got []string
	for _, b := range Backends() {
		got = append(got, b.Name())
	}
	want := []string{"cpu", "fpga-sim", "gpu-sim"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Backends() = %v, want %v", got, want)
	}
	for _, name := range want {
		b, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, b.Name())
		}
	}
	if _, err := Lookup("tpu-sim"); err == nil {
		t.Error("Lookup of an unregistered backend succeeded")
	} else if !strings.Contains(err.Error(), "cpu") {
		t.Errorf("lookup error %q does not list the registered names", err)
	}
}

// TestBackendEquivalence asserts every registered backend reproduces
// the serial CPU reference bit-identically through the uniform Scan
// interface — the invariant the whole exec layer rests on. The second
// case has one SNP per side, so each region's single admissible window
// scores 0/0: every backend returns it invalid and still counts its
// admissible score, as the CPU kernels do.
func TestBackendEquivalence(t *testing.T) {
	a, err := harness.Dataset(600, 40, 271828)
	if err != nil {
		t.Fatal(err)
	}
	allNaN := omega.Params{GridSize: 10, MaxWindow: 20000, MinSNPsPerSide: 1, MaxSNPsPerSide: 1}
	for _, p := range []omega.Params{testParams(), allNaN} {
		ref, refSt, err := omega.ScanCtx(context.Background(), a, p, ld.Direct)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range Backends() {
			out, err := b.Scan(context.Background(), a, p, Options{})
			if err != nil {
				t.Fatalf("%s: %v", b.Name(), err)
			}
			if len(out.Results) != len(ref) {
				t.Fatalf("%s: %d results, want %d", b.Name(), len(out.Results), len(ref))
			}
			for i := range ref {
				if out.Results[i] != ref[i] {
					t.Fatalf("%s: result[%d] = %+v, want %+v", b.Name(), i, out.Results[i], ref[i])
				}
			}
			if out.Stats.OmegaScores != refSt.OmegaScores || out.Stats.R2Computed == 0 {
				t.Errorf("%s: unified stats %+v, want %d scores", b.Name(), out.Stats, refSt.OmegaScores)
			}
			// The simulators score every admissible cell, as the paper's
			// hardware does; only the CPU kernels may skip cells.
			if ev := out.Stats.OmegaEvaluated; ev <= 0 || ev > out.Stats.OmegaScores ||
				(b.Name() != "cpu" && ev != out.Stats.OmegaScores) {
				t.Errorf("%s: evaluated %d of %d admissible scores", b.Name(), ev, out.Stats.OmegaScores)
			}
		}
	}
}

// TestBackendCancellation verifies that a pre-cancelled context aborts
// every backend with ctx.Err() before any result is produced.
func TestBackendCancellation(t *testing.T) {
	a, err := harness.Dataset(400, 32, 314159)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range Backends() {
		out, err := b.Scan(ctx, a, testParams(), Options{Threads: 2})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", b.Name(), err)
		}
		if out != nil {
			t.Errorf("%s: non-nil output after cancellation", b.Name())
		}
	}
}

// TestCPUSchedulerSelection pins the auto-scheduler rule the CPU
// adapter applies: sharded needs grid ≥ 4·threads and a predicted
// shard-boundary r² of at most a quarter of the sharded scan's r²
// (omega.PreferSharded); the explicit schedulers ignore both tests.
func TestCPUSchedulerSelection(t *testing.T) {
	a, err := harness.Dataset(400, 32, 314159)
	if err != nil {
		t.Fatal(err)
	}
	const narrow = 5000 // bp per side: shards barely overlap
	cases := []struct {
		sched   Scheduler
		grid    int
		maxWin  float64 // 0 = unbounded
		threads int
		want    bool
	}{
		{SchedAuto, 16, narrow, 4, true},
		{SchedAuto, 15, narrow, 4, false},
		{SchedAuto, 100, narrow, 1, false},
		{SchedSharded, 2, narrow, 8, true},
		{SchedSharded, 100, narrow, 1, false},
		{SchedSnapshot, 100, narrow, 8, false},
		// Grid ≥ 4·threads, but an unbounded window makes every shard
		// rebuild nearly the whole DP band: snapshot.
		{SchedAuto, 64, 0, 2, false},
		// The same grid with a bounded window shares little: sharded.
		{SchedAuto, 64, 20000, 2, true},
	}
	for _, c := range cases {
		regions, err := omega.BuildRegions(a, omega.Params{GridSize: c.grid, MaxWindow: c.maxWin})
		if err != nil {
			t.Fatal(err)
		}
		if got := UseSharded(c.sched, regions, c.threads); got != c.want {
			t.Errorf("UseSharded(%v, grid=%d, maxwin=%g, threads=%d) = %v, want %v",
				c.sched, c.grid, c.maxWin, c.threads, got, c.want)
		}
	}
}

// TestStatsAdd checks the batch aggregation covers every counter.
func TestStatsAdd(t *testing.T) {
	a := Stats{Grid: 1, OmegaScores: 2, R2Computed: 3, R2Reused: 4, R2Duplicated: 5,
		LDSeconds: 1, OmegaSeconds: 2, SnapshotSeconds: 3, WallSeconds: 4,
		KernelILaunches: 6, KernelIILaunches: 7, OrderSwitches: 8, BytesTransferred: 9,
		HardwareOmegas: 10, SoftwareOmegas: 11, Cycles: 12,
		OmegaKernelScalar: 13, OmegaKernelBlocked: 14, OmegaEvaluated: 15}
	sum := a
	sum.Add(a)
	want := Stats{Grid: 2, OmegaScores: 4, R2Computed: 6, R2Reused: 8, R2Duplicated: 10,
		LDSeconds: 2, OmegaSeconds: 4, SnapshotSeconds: 6, WallSeconds: 8,
		KernelILaunches: 12, KernelIILaunches: 14, OrderSwitches: 16, BytesTransferred: 18,
		HardwareOmegas: 20, SoftwareOmegas: 22, Cycles: 24,
		OmegaKernelScalar: 26, OmegaKernelBlocked: 28, OmegaEvaluated: 30}
	if sum != want {
		t.Fatalf("Add: got %+v, want %+v", sum, want)
	}
}

// TestCPUKernelOptionDispatch: the exec-layer kernel option must force
// the selected ω kernel, keep results bit-identical, and surface the
// dispatch split through Stats and the labeled Prometheus counters.
func TestCPUKernelOptionDispatch(t *testing.T) {
	a, err := harness.Dataset(400, 32, 161803)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := Lookup("cpu")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	ref, err := cpu.Scan(context.Background(), a, p, Options{OmegaKernel: omega.KernelScalar})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.OmegaKernelScalar == 0 || ref.Stats.OmegaKernelBlocked != 0 {
		t.Fatalf("forced scalar dispatch: %+v", ref.Stats)
	}
	if ref.Stats.OmegaEvaluated != ref.Stats.OmegaScores {
		t.Fatalf("scalar kernel evaluated %d of %d scores; it must not prune",
			ref.Stats.OmegaEvaluated, ref.Stats.OmegaScores)
	}
	blk, err := cpu.Scan(context.Background(), a, p, Options{OmegaKernel: omega.KernelBlocked})
	if err != nil {
		t.Fatal(err)
	}
	if blk.Stats.OmegaKernelBlocked == 0 || blk.Stats.OmegaKernelScalar != 0 {
		t.Fatalf("forced blocked dispatch: %+v", blk.Stats)
	}
	if blk.Stats.OmegaScores != ref.Stats.OmegaScores || blk.Stats.OmegaEvaluated >= blk.Stats.OmegaScores {
		t.Fatalf("blocked kernel scores %d (want %d), evaluated %d (want fewer)",
			blk.Stats.OmegaScores, ref.Stats.OmegaScores, blk.Stats.OmegaEvaluated)
	}
	for i := range ref.Results {
		if blk.Results[i] != ref.Results[i] {
			t.Fatalf("kernel option broke bit identity at result %d", i)
		}
	}
	// OmegaNthr drives the auto kernel down one path per extreme.
	aut, err := cpu.Scan(context.Background(), a, p, Options{OmegaNthr: 1})
	if err != nil {
		t.Fatal(err)
	}
	if aut.Stats.OmegaKernelScalar != 0 || aut.Stats.OmegaKernelBlocked == 0 {
		t.Fatalf("auto Nthr=1 dispatch: %+v", aut.Stats)
	}
	met := obs.NewMetrics(obs.NewRegistry())
	blk.Stats.Publish(met)
	if met.KernelDispatchBlocked.Value() != blk.Stats.OmegaKernelBlocked ||
		met.KernelDispatchScalar.Value() != 0 {
		t.Fatalf("published dispatch counters scalar=%d blocked=%d, want 0/%d",
			met.KernelDispatchScalar.Value(), met.KernelDispatchBlocked.Value(),
			blk.Stats.OmegaKernelBlocked)
	}
	if got := met.OmegaEvaluated.Value(); got != blk.Stats.OmegaEvaluated {
		t.Fatalf("published omegago_omega_evaluated_total = %d, want %d", got, blk.Stats.OmegaEvaluated)
	}
}
