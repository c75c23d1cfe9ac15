package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"omegago"
)

// runChrom is the chrom-stream workload: one large dataset written once
// as bitmat, then rescanned out of core — each unit reopens the file
// with OpenBitmatSource and runs ScanStreamContext over it.
func runChrom(rc *runCtx) (*outcome, error) {
	sp := rc.spec
	path := filepath.Join(rc.workDir, "chrom.bitmat")
	var ds *omegago.Dataset
	setup, err := measureSetup(func() error {
		ds = generate(sp.Shape, rc.seed, 0)
		return omegago.SaveBitmat(path, ds)
	})
	if err != nil {
		return nil, fmt.Errorf("chrom-stream set-up: %w", err)
	}
	cfg := omegago.Config{GridSize: sp.Grid, MaxWindow: sp.MaxWindow, Threads: rc.nproc}
	o := &outcome{metrics: map[string]float64{"setup_s": setup}}

	var (
		scans, jobs   unitTimes
		digests       []string
		tot           kernelTotals
		openS, stallS float64
		loadS         float64
		reads         opStat
		bytesRead     int64
		jobWindows    []interval
		ctx           = context.Background()
		rssReset      = resetPeakRSS()
		start         = time.Now()
	)
	for i := 0; i == 0 || time.Since(start) < rc.seconds; i++ {
		rec := rc.recFor(i)
		jobID := rec.reserve()
		j0 := time.Now()
		src, err := omegago.OpenBitmatSource(path)
		if err != nil {
			return nil, err
		}
		opened := time.Now()
		rec.add(span{Parent: jobID, Layer: "seqio", Name: "open", Start: j0, End: opened})
		callID := rec.reserve()
		cs := &countingSource{ChunkSource: src, rec: rec, parent: callID}
		c := cfg
		c.Observer = rec.observer(callID)
		t0 := time.Now()
		rep, err := omegago.ScanStreamContext(ctx, cs, c)
		t1 := time.Now()
		src.Close()
		o.attempted++
		if err != nil {
			o.failed++
			o.notef("scan %d: %v", i, err)
			continue
		}
		rec.finish(span{ID: callID, Parent: jobID, Layer: "omegago", Name: "scan_stream", Start: t0, End: t1})
		digests = append(digests, digest(rep.Results))
		j1 := time.Now()
		rec.finish(span{ID: jobID, Layer: "bench", Name: "job", Start: j0, End: j1})
		scans.add(t1.Sub(t0), rec != nil)
		jobs.add(j1.Sub(j0), rec != nil)
		if rec != nil {
			jobWindows = append(jobWindows, interval{j0, j1})
			tot.add(rep)
			tot.reference += sp.ReferenceOmega[0]
			openS += opened.Sub(j0).Seconds()
			stallS += rep.StreamStallSeconds
			loadS += rep.StreamLoadSeconds
			reads.calls.Add(cs.reads.calls.Load())
			reads.nanos.Add(cs.reads.nanos.Load())
			bytesRead += cs.bytes.Load()
		}
	}
	wall := time.Since(start)
	o.metrics["peak_rss_mib"] = peakRSSMiB()
	if !rssReset {
		o.notef("peak RSS could not be reset: peak_rss_mib is the process lifetime peak")
	}
	setTimings(o, scans.all, jobs.all, wall)
	o.metrics["momega_per_s"] = ratio(float64(sp.ReferenceOmega[0]), quantile(scans.all, 0.5)) / 1e6

	// Correctness: every streamed scan must match a resident serial scan
	// on the scalar reference kernel, sampled rows of that scan must
	// match the brute-force oracle, and at the golden seed its digest
	// must match the pinned one.
	ref, err := omegago.Scan(ds, omegago.Config{
		GridSize: sp.Grid, MaxWindow: sp.MaxWindow, Threads: 1, OmegaKernel: omegago.OmegaKernelScalar,
	})
	if err != nil {
		return nil, fmt.Errorf("reference scan: %w", err)
	}
	want := digest(ref.Results)
	if err := oracleCheck(ds, sp.Grid, sp.MaxWindow, ref.Results, oracleRows); err != nil {
		o.notef("reference scan: %v", err)
		o.failed = o.attempted
	}
	if rc.seed == sp.GoldenSeed && want != sp.GoldenDigest {
		o.notef("reference digest %s differs from the golden %s at seed %d", want, sp.GoldenDigest, rc.seed)
		o.failed = o.attempted
	}
	for i, d := range digests {
		if d != want {
			o.failed++
			o.notef("scan %d digest %s, want %s", i, d, want)
		}
	}
	o.notef("reference digest %s", want)

	if rc.rec != nil {
		spans := rc.rec.all()
		busy := busyByName(spans)
		kernelLayers(o.metrics, busy["ld.ld"], busy["omega.omega"], tot, sp.Shape.Samples, measurePeaks(rc.nproc, 200*time.Millisecond))
		o.metrics["seqio.open_s"] = openS
		o.metrics["seqio.read_chunk_calls"] = float64(reads.calls.Load())
		o.metrics["seqio.read_chunk_s"] = reads.seconds()
		o.metrics["seqio.bytes_read"] = float64(bytesRead)
		o.metrics["seqio.stall_s"] = stallS
		// Report.StreamOverlapRatio over the traced scans' summed times.
		o.metrics["seqio.overlap_ratio"] = (&omegago.Report{StreamLoadSeconds: loadS, StreamStallSeconds: stallS}).StreamOverlapRatio()
		o.metrics["omegago.scan_stream.calls"] = float64(len(scans.traced))
		o.metrics["omegago.scan_stream.busy_s"] = busy["omegago.scan_stream"]
		o.metrics["trace.coverage"] = coverage(spans, jobWindows)
		o.metrics["trace.overhead_ratio"] = scans.overhead()
	}
	return o, nil
}
