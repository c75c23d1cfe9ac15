package omegago_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"omegago"
	"omegago/internal/mssim"
	"omegago/internal/seqio"
)

// batchDatasets simulates a multi-replicate ms study — the LoadMSAll
// shape ScanBatch exists for.
func batchDatasets(t testing.TB, replicates int, seed int64) []*omegago.Dataset {
	t.Helper()
	reps, err := mssim.Simulate(mssim.Config{
		SampleSize: 24, Replicates: replicates, SegSites: 200, Rho: 40, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]*omegago.Dataset, len(reps))
	for i, rep := range reps {
		a, err := rep.ToAlignment(200000)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = a
	}
	return batch
}

// TestScanBatchMatchesSequential asserts the worker pool changes
// nothing about the per-replicate results: whatever Scan returns one
// dataset at a time, ScanBatch returns for the same index, at every
// worker count, and the aggregate counters are the exact sums.
func TestScanBatchMatchesSequential(t *testing.T) {
	batch := batchDatasets(t, 5, 424242)
	cfg := omegago.Config{GridSize: 15, MaxWindow: 30000}

	want := make([]*omegago.Report, len(batch))
	var wantScores, wantR2 int64
	for i, ds := range batch {
		r, err := omegago.Scan(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
		wantScores += r.OmegaScores
		wantR2 += r.R2Computed
	}

	for _, workers := range []int{1, 2, 8} {
		cfg.BatchWorkers = workers
		rep, err := omegago.ScanBatch(context.Background(), batch, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Scanned != len(batch) || rep.Skipped != 0 || rep.Failed != 0 {
			t.Fatalf("workers=%d: scanned/skipped/failed = %d/%d/%d",
				workers, rep.Scanned, rep.Skipped, rep.Failed)
		}
		for i, item := range rep.Replicates {
			if item.Index != i || item.Err != nil || item.Report == nil {
				t.Fatalf("workers=%d: replicate %d malformed: %+v", workers, i, item)
			}
			gotBest, gotOK := item.Report.Best()
			wantBest, wantOK := want[i].Best()
			if gotOK != wantOK || gotBest != wantBest {
				t.Errorf("workers=%d: replicate %d best = %+v, want %+v",
					workers, i, gotBest, wantBest)
			}
		}
		if rep.OmegaScores != wantScores || rep.R2Computed != wantR2 {
			t.Errorf("workers=%d: aggregate scores/r² = %d/%d, want %d/%d",
				workers, rep.OmegaScores, rep.R2Computed, wantScores, wantR2)
		}
		if best, idx, ok := rep.Best(); !ok || idx < 0 || best.MaxOmega <= 0 {
			t.Errorf("workers=%d: batch Best() = %+v at %d (ok=%v)", workers, best, idx, ok)
		}
	}
}

// TestScanBatchErrorIsolation mixes healthy replicates with a nil
// dataset (the LoadMSAll zero-segsites convention) and a structurally
// invalid one: the batch must complete, attributing the skip and the
// failure to the right indices.
func TestScanBatchErrorIsolation(t *testing.T) {
	batch := batchDatasets(t, 3, 7)
	invalid := &seqio.Alignment{Positions: []float64{10, 20}} // no matrix
	batch = append(batch, nil, invalid)

	rep, err := omegago.ScanBatch(context.Background(), batch, omegago.Config{
		GridSize: 10, MaxWindow: 30000, BatchWorkers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 3 || rep.Skipped != 1 || rep.Failed != 1 {
		t.Fatalf("scanned/skipped/failed = %d/%d/%d, want 3/1/1",
			rep.Scanned, rep.Skipped, rep.Failed)
	}
	if !rep.Replicates[3].Skipped {
		t.Error("nil dataset not marked skipped")
	}
	if rep.Replicates[4].Err == nil {
		t.Error("invalid dataset produced no error")
	}
	for i := 0; i < 3; i++ {
		if rep.Replicates[i].Err != nil || rep.Replicates[i].Report == nil {
			t.Errorf("healthy replicate %d affected by the failing one: %+v", i, rep.Replicates[i])
		}
	}
}

// TestScanBatchCancellation: a cancelled context aborts the whole batch
// with ctx.Err() rather than a per-replicate error.
func TestScanBatchCancellation(t *testing.T) {
	batch := batchDatasets(t, 4, 99)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := omegago.ScanBatch(ctx, batch, omegago.Config{GridSize: 10, MaxWindow: 30000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("non-nil report after cancellation")
	}
}

// TestScanBatchEmpty pins the empty-input error.
func TestScanBatchEmpty(t *testing.T) {
	if _, err := omegago.ScanBatch(context.Background(), nil, omegago.Config{}); err == nil {
		t.Fatal("empty batch succeeded")
	}
}

// TestScanBatchAccelerator runs a batch through the gpu-sim backend:
// backend dispatch must be per-call, uniform, and race-free under the
// pool.
func TestScanBatchAccelerator(t *testing.T) {
	batch := batchDatasets(t, 3, 1234)
	cfg := omegago.Config{GridSize: 10, MaxWindow: 30000, Backend: omegago.BackendGPU, BatchWorkers: 3}
	rep, err := omegago.ScanBatch(context.Background(), batch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 3 {
		t.Fatalf("scanned %d of 3", rep.Scanned)
	}
	for i, item := range rep.Replicates {
		want, err := omegago.Scan(batch[i], omegago.Config{GridSize: 10, MaxWindow: 30000})
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := item.Report.Best()
		wb, _ := want.Best()
		if gb.MaxOmega != wb.MaxOmega {
			t.Errorf("replicate %d: gpu-sim batch ω %v, cpu reference %v", i, gb.MaxOmega, wb.MaxOmega)
		}
	}
}

// TestScanBatchSplitsThreadBudget pins the one thread budget: a batch
// of Threads 4 over 2 workers scans each replicate with 2 threads, so
// under the forced sharded scheduler every replicate duplicates exactly
// the r² of a standalone 2-thread sharded scan, and still returns the
// serial results. A one-replicate batch keeps the whole budget.
func TestScanBatchSplitsThreadBudget(t *testing.T) {
	batch := batchDatasets(t, 4, 2024)
	base := omegago.Config{GridSize: 16, MaxWindow: 30000, Sched: omegago.SchedSharded}
	scan := func(ds *omegago.Dataset, threads int) *omegago.Report {
		t.Helper()
		cfg := base
		cfg.Threads = threads
		r, err := omegago.Scan(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	sameResults := func(name string, got, want *omegago.Report) {
		t.Helper()
		if len(got.Results) != len(want.Results) {
			t.Fatalf("%s: %d results, want %d", name, len(got.Results), len(want.Results))
		}
		for i := range want.Results {
			if got.Results[i] != want.Results[i] {
				t.Fatalf("%s: result[%d] = %+v, want %+v", name, i, got.Results[i], want.Results[i])
			}
		}
	}

	cfg := base
	cfg.Threads, cfg.BatchWorkers = 4, 2
	rep, err := omegago.ScanBatch(context.Background(), batch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	split := false // some replicate duplicates differently at 2 and 4 threads
	for i, item := range rep.Replicates {
		if item.Err != nil || item.Report == nil {
			t.Fatalf("replicate %d: %+v", i, item)
		}
		two := scan(batch[i], 2)
		if got := item.Report.R2Duplicated; got != two.R2Duplicated {
			t.Errorf("replicate %d: R2Duplicated %d, want the 2-thread scan's %d", i, got, two.R2Duplicated)
		}
		split = split || two.R2Duplicated != scan(batch[i], 4).R2Duplicated
		sameResults(fmt.Sprintf("replicate %d", i), item.Report, scan(batch[i], 1))
	}
	if !split {
		t.Fatal("no replicate tells 2 threads from 4 by its duplicated r²")
	}

	cfg.Threads, cfg.BatchWorkers = 2, 0
	one, err := omegago.ScanBatch(context.Background(), batch[:1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	two := scan(batch[0], 2)
	if got := one.Replicates[0].Report; got.R2Duplicated != two.R2Duplicated || got.R2Duplicated == 0 {
		t.Errorf("one-replicate batch: R2Duplicated %d, want the 2-thread scan's %d (> 0)", got.R2Duplicated, two.R2Duplicated)
	}
	sameResults("one-replicate batch", one.Replicates[0].Report, two)
}
