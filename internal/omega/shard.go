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

// shardSpan is a contiguous run of grid regions [Lo, Hi) owned by one
// worker. Contiguity is what lets each shard keep a private DP matrix:
// within a shard the region windows are monotone (BuildRegions
// guarantees monotonicity over the whole grid, hence over any
// contiguous slice of it), so the relocation optimization of Equation 3
// applies shard-locally exactly as it does serially.
type shardSpan struct {
	Lo, Hi int // region index range, half-open
}

// triangleCells returns the number of M cells computed for a fresh
// window of w SNPs: one r² per strictly-sub-diagonal cell, C(w, 2).
func triangleCells(w int) int64 {
	if w < 2 {
		return 0
	}
	return int64(w) * int64(w-1) / 2
}

// estimateCellWork returns the serial marginal M-cell cost of every
// region: the number of DP cells (one fresh r² each, Equation 3) that a
// single sliding matrix computes when it advances to that region's
// window. This is the LD/DP-stage workload Fig. 14 of the paper shows
// dominating many scans, so it is the quantity shard balancing targets.
func estimateCellWork(regions []Region) []int64 {
	work := make([]int64, len(regions))
	pLo, pHi := 0, -1 // empty window
	for i, reg := range regions {
		if reg.Skipped() {
			continue // no Advance, no cells
		}
		w := reg.Hi - reg.Lo + 1
		if pHi < pLo || reg.Lo > pHi { // fresh fill (no overlap)
			work[i] = triangleCells(w)
		} else { // relocation retains the overlap triangle
			work[i] = triangleCells(w) - triangleCells(pHi-reg.Lo+1)
		}
		pLo, pHi = reg.Lo, reg.Hi
	}
	return work
}

// partitionRegions splits the grid into at most `threads` contiguous
// shards balanced by estimated M-cell work. Greedy fair-share cutting:
// a shard closes once it has accumulated its share of the remaining
// work, or when exactly one region per remaining shard is left. Every
// shard holds at least one region, so grids smaller than the thread
// count simply produce fewer shards.
func partitionRegions(regions []Region, threads int) []shardSpan {
	n := len(regions)
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		return []shardSpan{{Lo: 0, Hi: n}}
	}
	work := estimateCellWork(regions)
	var total int64
	for _, w := range work {
		total += w
	}
	spans := make([]shardSpan, 0, threads)
	start := 0
	var acc, done int64
	for i := 0; i < n; i++ {
		acc += work[i]
		shardsAfter := threads - len(spans) - 1
		regionsAfter := n - i - 1
		if shardsAfter > 0 && regionsAfter >= shardsAfter &&
			(acc*int64(shardsAfter+1) >= total-done || regionsAfter == shardsAfter) {
			spans = append(spans, shardSpan{Lo: start, Hi: i + 1})
			done += acc
			acc = 0
			start = i + 1
		}
	}
	return append(spans, shardSpan{Lo: start, Hi: n})
}

// boundaryDup returns the r² a fresh DP matrix recomputes when its
// region range starts at the scored region i: the overlap triangle
// between regions[i] and its nearest scored predecessor, which a serial
// matrix would have relocated instead. Zero when no scored region
// precedes i or the two windows do not overlap.
func boundaryDup(regions []Region, i int) int64 {
	prevHi := -1
	for j := i - 1; j >= 0; j-- {
		if !regions[j].Skipped() {
			prevHi = regions[j].Hi
			break
		}
	}
	return triangleCells(prevHi - regions[i].Lo + 1)
}

// predictShardedR2 returns, before any r² is computed, the fresh M
// cells a serial scan of regions fills and the R2Duplicated that
// ScanShardedCtx at threads would report: the same shards, each
// charged boundaryDup at its first scored region, as scanRange does.
func predictShardedR2(regions []Region, threads int) (serial, dup int64) {
	for _, w := range estimateCellWork(regions) {
		serial += w
	}
	for _, sp := range partitionRegions(regions, threads) {
		for i := sp.Lo; i < sp.Hi; i++ {
			if !regions[i].Skipped() {
				dup += boundaryDup(regions, i)
				break
			}
		}
	}
	return serial, dup
}

// PreferSharded reports whether sharding regions across threads keeps
// the duplicated r² small: at most a quarter of all r² the sharded scan
// computes (serial cells plus duplicated ones, the omega.dup_ratio of
// perfbench). A wide window makes every shard rebuild most of the DP
// band, so its scan belongs on the snapshot scheduler, whose one
// sliding matrix duplicates nothing.
func PreferSharded(regions []Region, threads int) bool {
	serial, dup := predictShardedR2(regions, threads)
	return 4*dup <= serial+dup
}

// ScanShardedCtx runs the scan with the sharded scheduler: the grid is
// partitioned into contiguous shards balanced by estimated M-cell work
// (Equation 3 cells, the LD/DP workload of Fig. 14), and every shard is
// one region range (scanRange) with a private DP matrix — both the
// LD/DP stage and the ω nested loop (Equation 2) run fully in parallel.
//
// This removes the serial-producer bottleneck of ScanParallelCtx
// (OmegaPlus-G style), whose single thread slides the one shared matrix
// and caps speedup at the producer's LD throughput. The price is the
// boundary triangle each shard recomputes, reported in
// Stats.R2Duplicated; results stay bit-identical to the serial scan
// (ARCHITECTURE.md §2.5).
//
// Every shard checks ctx between regions, so a cancelled or expired
// context aborts the scan within one region of work per shard and
// returns ctx.Err(). All shard workers are joined before returning,
// leaking no goroutines.
//
// mt (nil = disabled) receives per-region "ld"/"omega" phase spans on
// track 2+s from shard s plus one shard-summary span per shard, and
// one grid-position tick per region — passing a trace.Tracer as the
// scan's Observer therefore renders each shard on its own Perfetto
// lane.
func ScanShardedCtx(ctx context.Context, a *seqio.Alignment, p Params, engine ld.Engine, threads int, mt *obs.Meter) ([]Result, Stats, error) {
	if threads < 1 {
		return nil, Stats{}, fmt.Errorf("omega: thread count %d < 1", threads)
	}
	regions, err := BuildRegions(a, p)
	if err != nil {
		return nil, Stats{}, err
	}
	p = p.WithDefaults()
	krn, err := kernelFor(p)
	if err != nil {
		return nil, Stats{}, err
	}
	comp := ld.NewComputer(a, engine, 1)
	shards := partitionRegions(regions, threads)
	if len(shards) <= 1 {
		return scanRegions(ctx, comp, a, regions, p, mt)
	}
	results := make([]Result, len(regions))
	perShard := make([]Stats, len(shards))
	var wg sync.WaitGroup
	for s, sp := range shards {
		wg.Add(1)
		go func(s int, sp shardSpan) {
			defer wg.Done()
			// Lanes 0–1 are reserved for top-level phases and the
			// snapshot producer.
			lane := 2 + s
			sc := NewScratch(a, p) // shard-private: scratches are never shared
			start := time.Now()
			st, _ := scanRange(ctx, NewDPMatrixScratch(comp.Clone(), sc), sc, krn, p, regions, sp.Lo, sp.Hi, 0, results, mt, lane)
			st.addTallies(sc)
			mt.Span(fmt.Sprintf("shard %d", s), lane, start, time.Since(start), false, map[string]any{
				"regions":       sp.Hi - sp.Lo,
				"r2_computed":   st.R2Computed,
				"r2_reused":     st.R2Reused,
				"r2_duplicated": st.R2Duplicated,
			})
			perShard[s] = st
		}(s, sp)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	var st Stats
	for _, s := range perShard {
		st.Add(s)
	}
	return results, st, nil
}
