package omegago

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"omegago/internal/exec"
	"omegago/internal/obs"
	"omegago/internal/stats"
)

// BatchResult is the outcome of one dataset in a ScanBatch call.
type BatchResult struct {
	// Index is the dataset's position in the input slice (0-based; for
	// LoadMSAll inputs, replicate Index+1 of the ms stream).
	Index int
	// Report holds the scan outcome; nil when Skipped or Err is set.
	Report *Report
	// Err is the scan failure of this dataset alone. One failing
	// replicate does not abort the batch.
	Err error
	// Skipped marks a nil input dataset (e.g. an ms replicate with zero
	// segregating sites, the LoadMSAll convention).
	Skipped bool
	// Seconds is this replicate's measured wall-clock, queue-to-done
	// inside its worker (zero when Skipped). Because workers overlap,
	// the per-replicate seconds sum to more than the batch WallSeconds.
	Seconds float64
}

// BatchReport aggregates a ScanBatch run.
type BatchReport struct {
	// Replicates holds one entry per input dataset, in input order.
	Replicates []BatchResult
	// Scanned / Skipped / Failed partition len(Replicates).
	Scanned int
	Skipped int
	Failed  int
	// Aggregated work counters summed over the scanned replicates.
	OmegaScores    int64
	OmegaEvaluated int64
	R2Computed     int64
	R2Reused       int64
	R2Duplicated   int64
	// LDSeconds / OmegaSeconds are summed across replicates (and across
	// workers within each replicate); WallSeconds is the measured
	// wall-clock of the whole batch, so LDSeconds+OmegaSeconds can
	// exceed it when workers overlap.
	LDSeconds    float64
	OmegaSeconds float64
	WallSeconds  float64
}

// Best returns the highest-ω candidate across every scanned replicate
// and the index of the replicate holding it.
func (b *BatchReport) Best() (Result, int, bool) {
	best := Result{}
	idx := -1
	for _, item := range b.Replicates {
		if item.Report == nil {
			continue
		}
		if r, ok := item.Report.Best(); ok && (idx < 0 || r.MaxOmega > best.MaxOmega) {
			best, idx = r, item.Index
		}
	}
	return best, idx, idx >= 0
}

// ReplicateSeconds returns the p50 and p95 of the per-replicate
// wall-clock over the scanned replicates; ok is false when none
// scanned.
func (b *BatchReport) ReplicateSeconds() (p50, p95 float64, ok bool) {
	secs := make([]float64, 0, len(b.Replicates))
	for _, item := range b.Replicates {
		if item.Report != nil {
			secs = append(secs, item.Seconds)
		}
	}
	if len(secs) == 0 {
		return 0, 0, false
	}
	sort.Float64s(secs)
	return stats.Quantile(secs, 0.5), stats.Quantile(secs, 0.95), true
}

// WriteReport emits every scanned replicate's OmegaPlus-style report
// section (labelled "label replicate=N") followed by a comment footer
// with the batch aggregate: scanned/skipped/failed partition, total ω
// scores, and the p50/p95 per-replicate wall-clock.
func (b *BatchReport) WriteReport(w io.Writer, label string) error {
	for _, item := range b.Replicates {
		if item.Report == nil {
			continue
		}
		if err := item.Report.WriteReport(w, fmt.Sprintf("%s replicate=%d", label, item.Index+1)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "// batch scanned=%d skipped=%d failed=%d omega_scores=%d wall=%.3fs\n",
		b.Scanned, b.Skipped, b.Failed, b.OmegaScores, b.WallSeconds)
	if err != nil {
		return err
	}
	if p50, p95, ok := b.ReplicateSeconds(); ok {
		_, err = fmt.Fprintf(w, "// batch replicate seconds p50=%.4f p95=%.4f\n", p50, p95)
	}
	return err
}

// batchWorkers resolves the worker-pool size for n datasets.
func (c Config) batchWorkers(n int) int {
	w := c.BatchWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ScanBatch scans many datasets — the multi-replicate shape LoadMSAll
// returns — through a pool of Config.BatchWorkers concurrent workers,
// each running the full scan pipeline on the configured backend. The
// configuration is checked by Config.Validate exactly once for the
// whole batch.
//
// Error isolation is per replicate: a dataset that fails to scan
// records its error in its BatchResult and the rest of the batch
// proceeds. Nil datasets are skipped (LoadMSAll yields nil for
// replicates with no segregating sites). Cancelling ctx aborts the
// whole batch promptly with ctx.Err(); in-flight scans stop within one
// grid position of work and no goroutines are leaked.
//
// Observability aggregates across the pool: Config.Observer receives
// one merged Progress stream whose GridTotal spans the whole batch
// (grid size × non-nil datasets) and whose ReplicatesDone/Total track
// batch completion; Config.Metrics counters likewise accumulate over
// every worker.
func ScanBatch(ctx context.Context, batch []*Dataset, cfg Config) (*BatchReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(batch) == 0 {
		return nil, fmt.Errorf("omegago: empty batch")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := cfg.params().WithDefaults()
	be, err := exec.Lookup(cfg.Backend.String())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownBackend, cfg.Backend)
	}
	replicates := 0
	for _, ds := range batch {
		if ds != nil {
			replicates++
		}
	}
	var bm *obs.Meter
	if cfg.Observer != nil || cfg.Metrics != nil {
		bm = obs.NewBatchMeter(cfg.Backend.String(), p.GridSize*replicates, replicates, cfg.Observer, cfg.Metrics)
	}
	t0 := time.Now()
	rep := &BatchReport{Replicates: make([]BatchResult, len(batch))}
	workers := cfg.batchWorkers(len(batch))

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				ds := batch[i]
				if ds == nil {
					rep.Replicates[i] = BatchResult{Index: i, Skipped: true}
					continue
				}
				rt0 := time.Now()
				r, err := scanResolved(ctx, ds, cfg, p, be, bm.Replicate(i))
				rep.Replicates[i] = BatchResult{
					Index: i, Report: r, Err: err,
					Seconds: time.Since(rt0).Seconds(),
				}
			}
		}()
	}
feed:
	for i := range batch {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for _, item := range rep.Replicates {
		switch {
		case item.Skipped:
			rep.Skipped++
		case item.Err != nil:
			rep.Failed++
		default:
			rep.Scanned++
			r := item.Report
			rep.OmegaScores += r.OmegaScores
			rep.OmegaEvaluated += r.OmegaEvaluated
			rep.R2Computed += r.R2Computed
			rep.R2Reused += r.R2Reused
			rep.R2Duplicated += r.R2Duplicated
			rep.LDSeconds += r.LDSeconds
			rep.OmegaSeconds += r.OmegaSeconds
		}
	}
	rep.WallSeconds = time.Since(t0).Seconds()
	return rep, nil
}
