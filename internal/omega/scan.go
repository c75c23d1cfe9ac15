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
	// would have obtained by relocation instead: the overlap triangle
	// each region range recomputes at its left boundary because it
	// starts a fresh DP matrix — one per ScanShardedCtx shard and one
	// per ScanStream chunk. Zero for serial and snapshot scans; it keeps
	// the Table III reuse accounting honest under sharding and chunking.
	R2Duplicated int64
	// LDTime covers r² computation and the DP update of M; OmegaTime
	// covers the ω nested loop. Summed across workers for parallel scans.
	LDTime    time.Duration
	OmegaTime time.Duration
	// SnapshotTime is the cost of copying DP-matrix row headers for the
	// snapshot scheduler's immutable views (ScanParallelCtx). Kept separate
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

// ScanCtx runs the complete OmegaPlus workflow (§III of the paper)
// serially: for every grid position, slide the DP matrix of Equation 3
// to the region (computing Equation 1 r² for newly entering SNPs,
// relocating the overlap) and score all admissible window combinations
// with Equation 2. This is the single-core reference whose timings are
// the CPU baselines of Fig. 14 and Table III, and whose results every
// other execution path — parallel schedulers and simulated
// accelerators alike — must reproduce bit-identically.
//
// The region loop checks ctx between grid positions, so a cancelled or
// expired context aborts the scan within one region of work and
// returns ctx.Err().
func ScanCtx(ctx context.Context, a *seqio.Alignment, p Params, engine ld.Engine) ([]Result, Stats, error) {
	regions, err := BuildRegions(a, p)
	if err != nil {
		return nil, Stats{}, err
	}
	return scanRegions(ctx, ld.NewComputer(a, engine, 1), a, regions, p, nil)
}

// scanRegions is the serial scan: the whole grid as one region range
// on lane 0.
func scanRegions(ctx context.Context, comp *ld.Computer, a *seqio.Alignment, regions []Region, p Params, mt *obs.Meter) ([]Result, Stats, error) {
	p = p.WithDefaults()
	krn, err := kernelFor(p)
	if err != nil {
		return nil, Stats{}, err
	}
	sc := NewScratch(a, p)
	results := make([]Result, len(regions))
	st, err := scanRange(ctx, NewDPMatrixScratch(comp, sc), sc, krn, p, regions, 0, len(regions), 0, results, mt, 0)
	if err != nil {
		return nil, st, err
	}
	st.addTallies(sc)
	return results, st, nil
}

// scanRange is the region-range driver shared by the serial, sharded
// and streamed scans (ARCHITECTURE.md §2.5): it advances the DP matrix
// m to each scored region of regions[lo:hi) in order, evaluates it with
// krn, and writes the result to its global slot out[i]. The matrix
// covers SNP rows from global row off on (0 in memory, the chunk's
// first row when streaming): region indices are shifted down by off on
// the way in and border indices back up on the way out. m may be nil
// only when every region in the range is skipped.
//
// The first scored region charges the overlap with its serial
// predecessor — the triangle a serial matrix would have relocated — to
// R2Duplicated; it is zero when the range starts the grid. Kernel
// tallies stay on sc for the caller to read once, since a scratch may
// outlive one range. mt (nil = disabled) receives LD/ω spans on lane
// and one progress tick per region. The scan stops at the first region
// that finds ctx done and returns ctx.Err() with the partial Stats.
func scanRange(ctx context.Context, m *DPMatrix, sc *Scratch, krn Kernel, p Params, regions []Region, lo, hi, off int, out []Result, mt *obs.Meter, lane int) (st Stats, err error) {
	first := true
	var prevR2 int64
	for i := lo; i < hi; i++ {
		if err = ctx.Err(); err != nil {
			break
		}
		reg := regions[i]
		st.Grid++
		if reg.Skipped() {
			out[i] = Result{GridIndex: reg.Index, Center: reg.Center}
			mt.Tick(0, 0)
			continue
		}
		if first {
			st.R2Duplicated = boundaryDup(regions, i)
			first = false
		}
		local := reg
		local.Lo -= off
		local.Hi -= off
		local.K -= off

		t0 := time.Now()
		m.Advance(local.Lo, local.Hi)
		dLD := time.Since(t0)
		st.LDTime += dLD
		mt.Span(obs.PhaseLD, lane, t0, dLD, false, nil)

		t1 := time.Now()
		res := krn.Evaluate(sc, m, local, p)
		dOmega := time.Since(t1)
		st.OmegaTime += dOmega
		mt.Span(obs.PhaseOmega, lane, t1, dOmega, false, nil)
		if res.Valid {
			res.LeftBorder += off
			res.RightBorder += off
		}
		st.OmegaScores += res.Scores
		out[i] = res
		r2 := m.R2Computed()
		mt.Tick(res.Scores, r2-prevR2)
		prevR2 = r2
	}
	if m != nil {
		st.R2Computed = m.R2Computed()
		st.R2Reused = m.R2Reused()
	}
	return st, err
}

// addTallies adds the kernel dispatch and evaluation tallies of sc
// (nil = none) to s.
func (s *Stats) addTallies(sc *Scratch) {
	if sc == nil {
		return
	}
	s.KernelScalar += sc.ScalarRegions
	s.KernelBlocked += sc.BlockedRegions
	s.OmegaEvaluated += sc.Evaluated
}

// ScanParallelCtx is the snapshot scheduler: it parallelizes the ω
// computation (Equation 2) across grid positions in the style of the
// generic multithreaded OmegaPlus (OmegaPlus-G, discussed in §III): a
// producer slides the DP matrix through the regions serially (LD and
// the M update are computed once, with maximal Equation 3 reuse),
// taking an immutable snapshot per region, and `threads` workers score
// the snapshots concurrently. OmegaTime is summed across workers.
//
// Because the producer is alone, LD throughput does not scale with
// threads — the bottleneck ScanShardedCtx exists to remove on the
// LD-dominated workloads of Fig. 14.
//
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
		if reg.Skipped() {
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
		st.addTallies(scratches[w])
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
