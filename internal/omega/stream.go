package omega

import (
	"context"
	"time"

	"omegago/internal/ld"
	"omegago/internal/obs"
	"omegago/internal/seqio"
)

// StreamStats is the I/O-side accounting of a chunked scan,
// complementing Stats (which keeps its usual meaning over the whole
// scan). The overlap ratio it derives is the double-buffering
// effectiveness measure of Beyer & Bientinesi's HDD-to-GPU streaming
// pattern: how much of the load time was hidden behind compute.
type StreamStats struct {
	// Chunks is the number of chunks the plan produced (all of them are
	// read unless the scan aborts early).
	Chunks int
	// BytesRead is the total ChunkStats.Bytes across chunks: input bytes
	// read, or freshly mapped on the bitmat path.
	BytesRead int64
	// CompressedSNPs counts SNPs that went through allele compression
	// (text → packed bits) while streaming. Zero on the bitmat path —
	// the format stores rows pre-packed, which is its reason to exist.
	CompressedSNPs int64
	// LoadTime is the summed wall time of ReadChunk calls (the loader
	// goroutine's I/O+parse work, running concurrently with compute).
	LoadTime time.Duration
	// StallTime is the summed wall time the scanner spent waiting for a
	// chunk that was not ready — load time the double buffer failed to
	// hide. The first chunk's load is always a stall (pipeline fill).
	StallTime time.Duration
}

// chunkSpan is one unit of the chunk plan: a contiguous run of grid
// regions [regLo, regHi) and the SNP rows [snpLo, snpHi) they need.
type chunkSpan struct {
	regLo, regHi int
	snpLo, snpHi int
}

// maxRegionSpan returns the widest region's SNP count — the minimum
// chunk size that can hold any single region.
func maxRegionSpan(regions []Region) int {
	span := 0
	for _, reg := range regions {
		if reg.Skipped() {
			continue
		}
		if w := reg.Hi - reg.Lo + 1; w > span {
			span = w
		}
	}
	return span
}

// planChunks groups consecutive regions into chunks whose SNP span does
// not exceed chunkSNPs, with two guarantees: every chunk holds at least
// one non-empty region (a single region wider than chunkSNPs gets a
// chunk of its own, so any chunk size is safe), and chunk SNP ranges
// are monotone in lo (regions are monotone), satisfying the forward-
// streaming contract of seqio.ChunkSource. Empty regions attach to the
// chunk being built; they consume no rows.
func planChunks(regions []Region, chunkSNPs int) []chunkSpan {
	var spans []chunkSpan
	start := 0
	curLo, curHi := -1, -1
	for i, reg := range regions {
		if reg.Skipped() {
			continue
		}
		if curLo < 0 {
			curLo, curHi = reg.Lo, reg.Hi
			continue
		}
		newHi := curHi
		if reg.Hi > newHi {
			newHi = reg.Hi
		}
		if newHi-curLo+1 > chunkSNPs {
			spans = append(spans, chunkSpan{regLo: start, regHi: i, snpLo: curLo, snpHi: curHi + 1})
			start = i
			curLo, curHi = reg.Lo, reg.Hi
			continue
		}
		curHi = newHi
	}
	last := chunkSpan{regLo: start, regHi: len(regions)}
	if curLo >= 0 {
		last.snpLo, last.snpHi = curLo, curHi+1
	}
	return append(spans, last)
}

// loadedChunk is one double-buffer handoff from the loader goroutine.
type loadedChunk struct {
	span chunkSpan
	a    *seqio.Alignment
	cst  seqio.ChunkStats
	dur  time.Duration
	err  error
}

// ScanStream runs the OmegaPlus workflow out-of-core: the grid is laid
// out from the source's positions table alone, regions are grouped into
// chunks of at most chunkSNPs rows (0 = a default of four max-window
// spans), and a loader goroutine reads chunk N+1 while the scan loop
// runs LD/ω over chunk N — the double-buffered I/O/compute pipeline of
// Beyer & Bientinesi applied to the paper's Fig. 3 workflow. Only the
// live chunk's rows and DP band are resident.
//
// Each chunk is one region range (ScanRange) with a fresh DP matrix
// over the chunk's rows, so results are bit-identical to the in-memory
// ScanCtx on the same data and the boundary overlap each chunk
// recomputes is reported in Stats.R2Duplicated (ARCHITECTURE.md §2.5).
//
// The scan is serial over regions (chunks arrive in order; parallelism
// comes from overlapping I/O with compute and from ldWorkers inside the
// LD stage). ctx is checked between regions and between chunks; on
// cancellation the loader is stopped and joined before returning, so no
// goroutine outlives the call and src can be closed immediately after.
func ScanStream(ctx context.Context, src seqio.ChunkSource, p Params, engine ld.Engine, ldWorkers int, chunkSNPs int, mt *obs.Meter) ([]Result, Stats, StreamStats, error) {
	meta := src.Meta()
	regions, err := BuildRegionsFromPositions(meta.Positions, p)
	if err != nil {
		return nil, Stats{}, StreamStats{}, err
	}
	p = p.WithDefaults()
	krn, err := kernelFor(p)
	if err != nil {
		return nil, Stats{}, StreamStats{}, err
	}
	if chunkSNPs <= 0 {
		chunkSNPs = 4 * maxRegionSpan(regions)
		if chunkSNPs < 1 {
			chunkSNPs = 1
		}
	}
	spans := planChunks(regions, chunkSNPs)

	// Loader: reads one chunk ahead of the scan loop. The channel is
	// unbuffered, so the loader blocks with chunk N+1 ready while the
	// scanner works on chunk N — exactly one chunk of look-ahead, the
	// classic double buffer. stop lets the scanner abandon a blocked
	// send on early return; loaderDone joins the goroutine so the
	// source is never used after ScanStream returns.
	ch := make(chan loadedChunk)
	stop := make(chan struct{})
	loaderDone := make(chan struct{})
	go func() {
		defer close(loaderDone)
		defer close(ch)
		for _, sp := range spans {
			if ctx.Err() != nil {
				return
			}
			l := loadedChunk{span: sp}
			t0 := time.Now()
			if sp.snpHi > sp.snpLo {
				l.a, l.cst, l.err = src.ReadChunk(sp.snpLo, sp.snpHi)
			}
			l.dur = time.Since(t0)
			select {
			case ch <- l:
				if l.err != nil {
					return
				}
			case <-stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-loaderDone
	}()

	results := make([]Result, len(regions))
	var st Stats
	var sst StreamStats
	var sc *Scratch // shared across chunks; re-pointed at each chunk's positions
	for {
		tw := time.Now()
		l, ok := <-ch
		sst.StallTime += time.Since(tw)
		if !ok {
			break
		}
		if l.err != nil {
			return nil, st, sst, l.err
		}
		sst.Chunks++
		sst.BytesRead += l.cst.Bytes
		sst.CompressedSNPs += int64(l.cst.CompressedSNPs)
		sst.LoadTime += l.dur
		mt.Span(obs.PhaseStreamLoad, 1, tw.Add(-l.dur), l.dur, false, nil)

		// A chunk has rows exactly when it holds a scored region (see
		// planChunks); the chunk alignment's row r is global row snpLo+r
		// and its Positions slice is the global table offset by snpLo,
		// so positions stay globally correct.
		var m *DPMatrix
		if l.a != nil {
			if sc == nil {
				sc = NewScratch(l.a, p)
			} else {
				sc.pos = l.a.Positions
			}
			m = NewDPMatrixScratch(ld.NewComputer(l.a, engine, ldWorkers), sc)
		}
		cst, err := ScanRange(ctx, m,
			Range{Regions: regions, Lo: l.span.regLo, Hi: l.span.regHi, Off: l.span.snpLo, Out: results, Meter: mt},
			kernelEval(krn, sc, p))
		st.Add(cst)
		if err != nil {
			return nil, st, sst, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, st, sst, err
	}
	st.addTallies(sc)
	return results, st, sst, nil
}
