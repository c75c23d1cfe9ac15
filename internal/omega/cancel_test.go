package omega

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"omegago/internal/ld"
	"omegago/internal/mssim"
	"omegago/internal/seqio"
)

// cancelAlignment simulates a deterministic test alignment.
func cancelAlignment(t *testing.T, segSites, samples int, seed int64) *seqio.Alignment {
	t.Helper()
	reps, err := mssim.Simulate(mssim.Config{
		SampleSize: samples, Replicates: 1, SegSites: segSites, Rho: 50, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := reps[0].ToAlignment(200000)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// cancelScanners enumerates the scheduler entry points that must honour
// ctx at region granularity.
func cancelScanners(threads int) map[string]func(context.Context, *seqio.Alignment, Params, ld.Engine) ([]Result, Stats, error) {
	return map[string]func(context.Context, *seqio.Alignment, Params, ld.Engine) ([]Result, Stats, error){
		"serial": func(ctx context.Context, a *seqio.Alignment, p Params, e ld.Engine) ([]Result, Stats, error) {
			return ScanCtx(ctx, a, p, e)
		},
		"snapshot": func(ctx context.Context, a *seqio.Alignment, p Params, e ld.Engine) ([]Result, Stats, error) {
			return ScanParallelCtx(ctx, a, p, e, threads, nil)
		},
		"sharded": func(ctx context.Context, a *seqio.Alignment, p Params, e ld.Engine) ([]Result, Stats, error) {
			return ScanShardedCtx(ctx, a, p, e, threads, nil)
		},
	}
}

// TestScanCancellation: a pre-cancelled context aborts every scheduler
// with ctx.Err(), results nil, and all worker goroutines joined.
func TestScanCancellation(t *testing.T) {
	a := cancelAlignment(t, 300, 24, 1111)
	p := Params{GridSize: 40, MaxWindow: 30000}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, scan := range cancelScanners(3) {
		t.Run(name, func(t *testing.T) {
			results, _, err := scan(ctx, a, p, ld.Direct)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if results != nil {
				t.Fatal("non-nil results from a cancelled scan")
			}
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestScanCancellationUnaffectedWhenUncancelled: threading a live
// context through changes nothing about the results.
func TestScanCancellationUnaffectedWhenUncancelled(t *testing.T) {
	a := cancelAlignment(t, 300, 24, 2222)
	p := Params{GridSize: 30, MaxWindow: 30000}
	ref, _, err := ScanCtx(context.Background(), a, p, ld.Direct)
	if err != nil {
		t.Fatal(err)
	}
	for name, scan := range cancelScanners(4) {
		got, _, err := scan(context.Background(), a, p, ld.Direct)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: result[%d] diverges with a live context", name, i)
			}
		}
	}
}
