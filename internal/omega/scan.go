package omega

import (
	"context"
	"fmt"
	"sync"
	"time"

	"omegago/internal/ld"
	"omegago/internal/obs"
	"omegago/internal/seqio"
)

// Stats aggregates the work performed by a scan. The LD/ω time split is
// the quantity Fig. 14 of the paper reports; the score counts are the
// throughput numerators of Table III.
type Stats struct {
	Grid        int   // grid positions evaluated
	OmegaScores int64 // admissible ω border combinations
	R2Computed  int64 // fresh r² values (M cells filled)
	R2Reused    int64 // M cells preserved by relocation
	// R2Duplicated counts the subset of R2Computed that a serial scan
	// would have obtained by relocation instead: the overlap triangles
	// each ScanSharded shard recomputes at its left boundary because it
	// owns a private DP matrix. Zero for serial and snapshot scans; it
	// keeps the Table III reuse accounting honest under sharding.
	R2Duplicated int64
	// LDTime covers r² computation and the DP update of M; OmegaTime
	// covers the ω nested loop. Summed across workers for parallel scans.
	LDTime    time.Duration
	OmegaTime time.Duration
	// SnapshotTime is the cost of copying DP-matrix row headers for the
	// snapshot scheduler's immutable views (ScanParallel). Kept separate
	// from LDTime so the Fig. 14 LD/ω split is not inflated by scheduling
	// overhead that the paper's serial profile does not contain.
	SnapshotTime time.Duration
	// KernelScalar/KernelBlocked count the grid regions evaluated by each
	// ω kernel implementation — the CPU analogue of the paper's Kernel
	// I/II launch split under dynamic selection (§IV-A). With a forced
	// kernel one counter carries the whole grid; under auto dispatch the
	// split shows which side of the Nthr threshold the workload fell on.
	KernelScalar  int64
	KernelBlocked int64
	// OmegaEvaluated counts the ω values actually computed. OmegaScores
	// counts every admissible border combination (the Table III
	// numerator); the blocked kernel skips combinations that provably
	// cannot beat the running max, so OmegaEvaluated ≤ OmegaScores.
	OmegaEvaluated int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Grid += other.Grid
	s.OmegaScores += other.OmegaScores
	s.R2Computed += other.R2Computed
	s.R2Reused += other.R2Reused
	s.R2Duplicated += other.R2Duplicated
	s.LDTime += other.LDTime
	s.OmegaTime += other.OmegaTime
	s.SnapshotTime += other.SnapshotTime
	s.KernelScalar += other.KernelScalar
	s.KernelBlocked += other.KernelBlocked
	s.OmegaEvaluated += other.OmegaEvaluated
}

// Scan runs the complete OmegaPlus workflow (§III of the paper)
// serially: for every grid position, slide the DP matrix of Equation 3
// to the region (computing Equation 1 r² for newly entering SNPs,
// relocating the overlap) and score all admissible window combinations
// with Equation 2. This is the single-core reference whose timings are
// the CPU baselines of Fig. 14 and Table III, and whose results every
// other execution path — parallel schedulers and simulated
// accelerators alike — must reproduce bit-identically.
func Scan(a *seqio.Alignment, p Params, engine ld.Engine, ldWorkers int) ([]Result, Stats, error) {
	return ScanCtx(context.Background(), a, p, engine, ldWorkers)
}

// ScanCtx is Scan with cancellation: the region loop checks ctx between
// grid positions, so a cancelled or expired context aborts the scan
// within one region of work and returns ctx.Err().
func ScanCtx(ctx context.Context, a *seqio.Alignment, p Params, engine ld.Engine, ldWorkers int) ([]Result, Stats, error) {
	regions, err := BuildRegions(a, p)
	if err != nil {
		return nil, Stats{}, err
	}
	comp := ld.NewComputer(a, engine, ldWorkers)
	return scanRegions(ctx, comp, a, regions, p, nil)
}

// scanRegions evaluates a contiguous, sorted slice of regions with one
// DP matrix, checking ctx once per region. mt (nil = disabled) receives
// one progress tick and the LD/ω phase spans per region; the span
// durations reuse the Stats timing measurements, so observability adds
// no clock reads of its own.
func scanRegions(ctx context.Context, comp *ld.Computer, a *seqio.Alignment, regions []Region, p Params, mt *obs.Meter) ([]Result, Stats, error) {
	p = p.WithDefaults()
	krn, err := kernelFor(p)
	if err != nil {
		return nil, Stats{}, err
	}
	s := NewScratch(a, p)
	m := NewDPMatrixScratch(comp, s)
	results := make([]Result, 0, len(regions))
	var st Stats
	var prevR2 int64
	for _, reg := range regions {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		st.Grid++
		if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
			results = append(results, Result{GridIndex: reg.Index, Center: reg.Center})
			mt.Tick(0, 0)
			continue
		}
		t0 := time.Now()
		m.Advance(reg.Lo, reg.Hi)
		dLD := time.Since(t0)
		st.LDTime += dLD
		mt.Span(obs.PhaseLD, 0, t0, dLD, false, nil)

		t1 := time.Now()
		res := krn.Evaluate(s, m, reg, p)
		dOmega := time.Since(t1)
		st.OmegaTime += dOmega
		mt.Span(obs.PhaseOmega, 0, t1, dOmega, false, nil)
		st.OmegaScores += res.Scores
		results = append(results, res)
		r2 := m.R2Computed()
		mt.Tick(res.Scores, r2-prevR2)
		prevR2 = r2
	}
	st.R2Computed = m.R2Computed()
	st.R2Reused = m.R2Reused()
	st.KernelScalar = s.ScalarRegions
	st.KernelBlocked = s.BlockedRegions
	st.OmegaEvaluated = s.Evaluated
	return results, st, nil
}

// ScanParallel is the snapshot scheduler: it parallelizes the ω
// computation (Equation 2) across grid positions in the style of the
// generic multithreaded OmegaPlus (OmegaPlus-G, discussed in §III): a
// producer slides the DP matrix through the regions serially (LD and
// the M update are computed once, with maximal Equation 3 reuse),
// taking an immutable snapshot per region, and `threads` workers score
// the snapshots concurrently. OmegaTime is summed across workers.
//
// Because the producer is alone, LD throughput does not scale with
// threads — the bottleneck ScanSharded exists to remove on the
// LD-dominated workloads of Fig. 14.
func ScanParallel(a *seqio.Alignment, p Params, engine ld.Engine, threads int) ([]Result, Stats, error) {
	return ScanParallelCtx(context.Background(), a, p, engine, threads, nil)
}

// ScanParallelCtx is ScanParallel with cancellation and live metering.
// The producer checks ctx before sliding the DP matrix to each region
// and the workers drop queued snapshots once the context is done, so
// the call returns ctx.Err() within one region of work; all workers
// are joined before returning, leaking no goroutines.
//
// mt (nil = disabled) receives LD/snapshot phase spans on track 1 from
// the producer, ω spans on track 2+w from worker w, r² progress as the
// producer advances, and one grid-position tick per scored region.
func ScanParallelCtx(ctx context.Context, a *seqio.Alignment, p Params, engine ld.Engine, threads int, mt *obs.Meter) ([]Result, Stats, error) {
	if threads < 1 {
		return nil, Stats{}, fmt.Errorf("omega: thread count %d < 1", threads)
	}
	regions, err := BuildRegions(a, p)
	if err != nil {
		return nil, Stats{}, err
	}
	comp := ld.NewComputer(a, engine, 1)
	if threads == 1 || len(regions) < 2 {
		return scanRegions(ctx, comp, a, regions, p, mt)
	}
	p = p.WithDefaults()
	krn, err := kernelFor(p)
	if err != nil {
		return nil, Stats{}, err
	}

	type job struct {
		view *View
		reg  Region
		slot int
	}
	jobs := make(chan job, threads)
	results := make([]Result, len(regions))
	omegaNs := make([]int64, threads)
	scores := make([]int64, threads)
	scratches := make([]*Scratch, threads) // one per worker, never shared
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		scratches[w] = NewScratch(a, p)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := scratches[w]
			for jb := range jobs {
				if ctx.Err() != nil {
					continue // drain without scoring: the scan is aborting
				}
				t0 := time.Now()
				res := krn.Evaluate(ws, jb.view, jb.reg, p)
				d := time.Since(t0)
				omegaNs[w] += d.Nanoseconds()
				mt.Span(obs.PhaseOmega, 2+w, t0, d, false, nil)
				scores[w] += res.Scores
				results[jb.slot] = res
				mt.Tick(res.Scores, 0)
			}
		}(w)
	}

	// The producer's scratch backs only the DP matrix arena; workers
	// score snapshots with their own scratches.
	m := NewDPMatrixScratch(comp, NewScratch(a, p))
	var st Stats
	var prevR2 int64
	for i, reg := range regions {
		if ctx.Err() != nil {
			break
		}
		st.Grid++
		if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
			results[i] = Result{GridIndex: reg.Index, Center: reg.Center}
			mt.Tick(0, 0)
			continue
		}
		t0 := time.Now()
		m.Advance(reg.Lo, reg.Hi)
		dLD := time.Since(t0)
		st.LDTime += dLD
		mt.Span(obs.PhaseLD, 1, t0, dLD, false, nil)
		r2 := m.R2Computed()
		mt.AddR2(r2 - prevR2)
		prevR2 = r2
		t1 := time.Now()
		view := m.Snapshot()
		dSnap := time.Since(t1)
		st.SnapshotTime += dSnap
		mt.Span(obs.PhaseSnapshot, 1, t1, dSnap, false, nil)
		jobs <- job{view: view, reg: reg, slot: i}
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	for w := 0; w < threads; w++ {
		st.OmegaTime += time.Duration(omegaNs[w])
		st.OmegaScores += scores[w]
		st.KernelScalar += scratches[w].ScalarRegions
		st.KernelBlocked += scratches[w].BlockedRegions
		st.OmegaEvaluated += scratches[w].Evaluated
	}
	st.R2Computed = m.R2Computed()
	st.R2Reused = m.R2Reused()
	return results, st, nil
}

// MaxResult returns the result with the highest ω (the sweep candidate),
// or ok=false if no grid position was valid.
func MaxResult(results []Result) (Result, bool) {
	best := Result{}
	ok := false
	for _, r := range results {
		if !r.Valid {
			continue
		}
		if !ok || r.MaxOmega > best.MaxOmega {
			best = r
			ok = true
		}
	}
	return best, ok
}
