package omegago_test

import (
	"context"
	"testing"

	"omegago"
	"omegago/internal/harness"
	"omegago/internal/ld"
	"omegago/internal/omega"
	"omegago/internal/seqio"
)

// TestGoldenSchedulerEquivalence asserts the scheduler contract on the
// repository's golden datasets: ScanCtx (serial), ScanParallelCtx (snapshot
// scheduler) and ScanShardedCtx (per-shard DP matrices) must return
// identical []Result — ω values, borders, positions, validity and score
// counts, compared with struct equality, i.e. bitwise for the floats —
// at thread counts {1, 2, 3, 8}, including grids smaller than the
// thread count.
func TestGoldenSchedulerEquivalence(t *testing.T) {
	goldenSim, err := omegago.Simulate(omegago.SimConfig{
		SampleSize: 32, Replicates: 1, SegSites: 400, Rho: 120, Seed: 20260706,
	}, 250000)
	if err != nil {
		t.Fatal(err)
	}
	goldenHarness, err := harness.Dataset(800, 50, 31415)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		a    *seqio.Alignment
		p    omega.Params
	}{
		{"sim/grid25", goldenSim, omega.Params{GridSize: 25, MinWindow: 4000, MaxWindow: 50000}},
		{"sim/grid3-smaller-than-threads", goldenSim, omega.Params{GridSize: 3, MaxWindow: 30000}},
		{"harness/grid40", goldenHarness, omega.Params{GridSize: 40, MaxWindow: 20000}},
		{"harness/grid2-smaller-than-threads", goldenHarness, omega.Params{GridSize: 2, MaxWindow: 20000}},
	}
	threadCounts := []int{1, 2, 3, 8}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, _, err := omega.ScanCtx(context.Background(), tc.a, tc.p, ld.Direct)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range threadCounts {
				snapshot, _, err := omega.ScanParallelCtx(context.Background(), tc.a, tc.p, ld.Direct, threads, nil)
				if err != nil {
					t.Fatal(err)
				}
				sharded, _, err := omega.ScanShardedCtx(context.Background(), tc.a, tc.p, ld.Direct, threads, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(snapshot) != len(serial) || len(sharded) != len(serial) {
					t.Fatalf("threads=%d: result lengths %d/%d, want %d",
						threads, len(snapshot), len(sharded), len(serial))
				}
				for i := range serial {
					if snapshot[i] != serial[i] {
						t.Fatalf("threads=%d: snapshot result[%d] = %+v, want %+v",
							threads, i, snapshot[i], serial[i])
					}
					if sharded[i] != serial[i] {
						t.Fatalf("threads=%d: sharded result[%d] = %+v, want %+v",
							threads, i, sharded[i], serial[i])
					}
				}
			}
		})
	}
}

// TestSchedulerConfigEquivalence drives the same contract through the
// public API: every Config.Sched value must reproduce the serial scan's
// report exactly.
func TestSchedulerConfigEquivalence(t *testing.T) {
	ds, err := omegago.Simulate(omegago.SimConfig{
		SampleSize: 24, Replicates: 1, SegSites: 300, Rho: 60, Seed: 99,
	}, 150000)
	if err != nil {
		t.Fatal(err)
	}
	base := omegago.Config{GridSize: 20, MaxWindow: 25000}
	want, err := omegago.Scan(ds, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []omegago.Scheduler{omegago.SchedAuto, omegago.SchedSnapshot, omegago.SchedSharded} {
		cfg := base
		cfg.Threads = 4
		cfg.Sched = sched
		got, err := omegago.Scan(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Results {
			if got.Results[i] != want.Results[i] {
				t.Fatalf("sched=%v: result[%d] = %+v, want %+v",
					sched, i, got.Results[i], want.Results[i])
			}
		}
		if got.OmegaScores != want.OmegaScores {
			t.Errorf("sched=%v: %d ω scores, want %d", sched, got.OmegaScores, want.OmegaScores)
		}
		if sched == omegago.SchedSnapshot && got.R2Duplicated != 0 {
			t.Errorf("snapshot scheduler reported %d duplicated r²", got.R2Duplicated)
		}
	}
}
