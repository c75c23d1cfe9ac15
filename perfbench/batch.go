package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"omegago"
)

// batchShapes returns the per-replicate shapes of replicate-batch: one
// pinned SNP layout per replicate, so replicates differ in work as
// simulated replicates do.
func batchShapes(sp spec) []shape {
	out := make([]shape, sp.Replicates)
	for r := range out {
		out[r] = sp.Shape
		out[r].LayoutSeed = sp.Shape.LayoutSeed + uint64(r)
	}
	return out
}

// batchDigest folds per-replicate digests into one.
func batchDigest(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runBatch is the replicate-batch workload: many small resident
// replicates through ScanBatch, one batch per unit.
func runBatch(rc *runCtx) (*outcome, error) {
	sp := rc.spec
	shapes := batchShapes(sp)
	var batch []*omegago.Dataset
	setup, err := measureSetup(func() error {
		batch = make([]*omegago.Dataset, len(shapes))
		for r, s := range shapes {
			batch[r] = generate(s, rc.seed, uint64(r))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cfg := omegago.Config{GridSize: sp.Grid, MaxWindow: sp.MaxWindow, Threads: rc.nproc, BatchWorkers: rc.nproc}
	o := &outcome{metrics: map[string]float64{"setup_s": setup}}

	var (
		replicates, tracedReps []float64
		batches                unitTimes
		got                    [][]string // per batch, per replicate digest
		tot                    kernelTotals
		windows                []interval
		ctx                    = context.Background()
		rssReset               = resetPeakRSS()
		start                  = time.Now()
	)
	for i := 0; i == 0 || time.Since(start) < rc.seconds; i++ {
		rec := rc.recFor(i)
		callID := rec.reserve()
		c := cfg
		c.Observer = rec.observer(callID)
		t0 := time.Now()
		br, err := omegago.ScanBatch(ctx, batch, c)
		t1 := time.Now()
		o.attempted += len(batch)
		if err != nil {
			o.failed += len(batch)
			o.notef("batch %d: %v", i, err)
			continue
		}
		rec.finish(span{ID: callID, Layer: "omegago", Name: "scan_batch", Start: t0, End: t1})
		batches.add(t1.Sub(t0), rec != nil)
		ds := make([]string, len(br.Replicates))
		for r, item := range br.Replicates {
			if item.Err != nil || item.Report == nil {
				o.failed++
				o.notef("batch %d replicate %d: %v", i, r, item.Err)
				continue
			}
			ds[r] = digest(item.Report.Results)
			replicates = append(replicates, item.Seconds)
			if rec != nil {
				tracedReps = append(tracedReps, item.Seconds)
				tot.add(item.Report)
			}
		}
		got = append(got, ds)
		if rec != nil {
			windows = append(windows, interval{t0, t1})
			tot.reference += sp.ReferenceOmega[0]
		}
	}
	wall := time.Since(start)
	o.metrics["peak_rss_mib"] = peakRSSMiB()
	if !rssReset {
		o.notef("peak RSS could not be reset: peak_rss_mib is the process lifetime peak")
	}
	// One scan is one replicate; one job is one ScanBatch call.
	setTimings(o, replicates, batches.all, wall)
	o.metrics["momega_per_s"] = ratio(float64(sp.ReferenceOmega[0]), quantile(batches.all, 0.5)) / 1e6

	// Correctness: every replicate must match its own serial Scan on the
	// scalar reference kernel, sampled rows of the first replicates must
	// match the brute-force oracle, and at the golden seed the folded
	// digest must match the pinned one.
	want := make([]string, len(batch))
	for r, d := range batch {
		ref, err := omegago.Scan(d, omegago.Config{
			GridSize: sp.Grid, MaxWindow: sp.MaxWindow, Threads: 1, OmegaKernel: omegago.OmegaKernelScalar,
		})
		if err != nil {
			return nil, fmt.Errorf("reference scan of replicate %d: %w", r, err)
		}
		want[r] = digest(ref.Results)
		if r < oracleReplicates {
			if err := oracleCheck(d, sp.Grid, sp.MaxWindow, ref.Results, 3); err != nil {
				o.notef("reference scan of replicate %d: %v", r, err)
				o.failed = o.attempted
			}
		}
	}
	folded := batchDigest(want)
	if rc.seed == sp.GoldenSeed && folded != sp.GoldenDigest {
		o.notef("reference digest %s differs from the golden %s at seed %d", folded, sp.GoldenDigest, rc.seed)
		o.failed = o.attempted
	}
	for i, ds := range got {
		for r, d := range ds {
			if d != "" && d != want[r] {
				o.failed++
				o.notef("batch %d replicate %d digest %s, want %s", i, r, d, want[r])
			}
		}
	}
	o.notef("reference digest %s", folded)

	if rc.rec != nil {
		spans := rc.rec.all()
		busy := busyByName(spans)
		kernelLayers(o.metrics, busy["ld.ld"], busy["omega.omega"], tot, sp.Shape.Samples, measurePeaks(rc.nproc, 200*time.Millisecond))
		o.metrics["omegago.scan_batch.calls"] = float64(len(batches.traced))
		o.metrics["omegago.scan_batch.busy_s"] = busy["omegago.scan_batch"]
		p50 := quantile(tracedReps, 0.5)
		p90, _ := tail(tracedReps, 90)
		o.metrics["omegago.replicate_p50_s"] = p50
		o.metrics["omegago.replicate_p90_s"] = p90
		o.metrics["omegago.replicate_spread"] = ratio(p90, p50)
		o.metrics["trace.coverage"] = coverage(spans, windows)
		o.metrics["trace.overhead_ratio"] = batches.overhead()
	}
	return o, nil
}
