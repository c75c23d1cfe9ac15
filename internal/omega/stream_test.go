package omega

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"omegago/internal/ld"
	"omegago/internal/mssim"
	"omegago/internal/seqio"
)

func streamAlignment(t *testing.T, segSites, samples int, seed int64, regionBP float64) *seqio.Alignment {
	t.Helper()
	reps, err := mssim.Simulate(mssim.Config{
		SampleSize: samples, Replicates: 1, SegSites: segSites, Rho: 40, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := reps[0].ToAlignment(regionBP)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestPlanChunksInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		a := randomAlignment(rng, rng.Intn(120)+10, 12, 50000)
		p := Params{GridSize: rng.Intn(40) + 1, MaxWindow: float64(rng.Intn(8000) + 500)}.WithDefaults()
		regions, err := BuildRegions(a, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunkSNPs := range []int{0, 1, 7, 50, 10000} {
			chunks := planChunks(regions, chunkSNPs)
			// Every region appears in exactly one chunk, in order.
			nextReg := 0
			prevLo := -1
			for _, c := range chunks {
				if c.regLo != nextReg || c.regHi <= c.regLo {
					t.Fatalf("chunkSNPs=%d: bad region span %+v (next=%d)", chunkSNPs, c, nextReg)
				}
				nextReg = c.regHi
				if c.snpLo < prevLo {
					t.Fatalf("chunkSNPs=%d: chunk snpLo %d moved backwards from %d", chunkSNPs, c.snpLo, prevLo)
				}
				prevLo = c.snpLo
				if c.snpLo > c.snpHi || c.snpHi > a.NumSNPs() {
					t.Fatalf("chunkSNPs=%d: bad SNP span %+v (n=%d)", chunkSNPs, c, a.NumSNPs())
				}
				// Chunk must cover every SNP its regions touch.
				nonEmpty := false
				for r := c.regLo; r < c.regHi; r++ {
					reg := regions[r]
					if reg.Skipped() {
						continue
					}
					nonEmpty = true
					if reg.Lo < c.snpLo || reg.Hi >= c.snpHi {
						t.Fatalf("chunkSNPs=%d: region %+v escapes chunk %+v", chunkSNPs, reg, c)
					}
				}
				_ = nonEmpty
			}
			if nextReg != len(regions) {
				t.Fatalf("chunkSNPs=%d: chunks cover %d of %d regions", chunkSNPs, nextReg, len(regions))
			}
		}
	}
}

// TestScanStreamMatchesSerial is the out-of-core equivalence contract:
// chunking is a memory-behaviour knob, so every field of every Result
// and every work counter must be bit-identical to the resident serial
// scan at any chunk size — the widest region (the minimum), double
// that, a ragged size that never divides the input evenly, and the
// default.
func TestScanStreamMatchesSerial(t *testing.T) {
	a := streamAlignment(t, 400, 24, 71, 200000)
	for _, engine := range []ld.Engine{ld.Direct, ld.GEMM} {
		for _, gridSize := range []int{3, 16, 48} {
			p := Params{GridSize: gridSize, MaxWindow: 15000}
			serial, stS, err := ScanCtx(context.Background(), a, p, engine)
			if err != nil {
				t.Fatal(err)
			}
			regions, err := BuildRegions(a, p.WithDefaults())
			if err != nil {
				t.Fatal(err)
			}
			widest := maxRegionSpan(regions)
			for _, chunkSNPs := range []int{0, widest, 2 * widest, widest + 13} {
				src, err := seqio.NewAlignmentSource(a)
				if err != nil {
					t.Fatal(err)
				}
				results, st, sst, err := ScanStream(context.Background(), src, p, engine, 1, chunkSNPs, nil)
				if err != nil {
					t.Fatalf("engine=%v grid=%d chunk=%d: %v", engine, gridSize, chunkSNPs, err)
				}
				if len(results) != len(serial) {
					t.Fatalf("engine=%v grid=%d chunk=%d: %d results, want %d",
						engine, gridSize, chunkSNPs, len(results), len(serial))
				}
				for i := range results {
					if results[i] != serial[i] {
						t.Fatalf("engine=%v grid=%d chunk=%d: result[%d] = %+v, want %+v",
							engine, gridSize, chunkSNPs, i, results[i], serial[i])
					}
				}
				if st.OmegaScores != stS.OmegaScores || st.Grid != stS.Grid {
					t.Errorf("engine=%v grid=%d chunk=%d: stats drifted: %+v vs %+v",
						engine, gridSize, chunkSNPs, st, stS)
				}
				if sst.Chunks < 1 {
					t.Errorf("engine=%v grid=%d chunk=%d: StreamStats.Chunks = %d", engine, gridSize, chunkSNPs, sst.Chunks)
				}
				// The duplication identity of sharded scans holds per chunk:
				// streamed work is serial work plus the reported boundary
				// triangles.
				if extra := st.R2Computed - stS.R2Computed; extra != st.R2Duplicated {
					t.Errorf("engine=%v grid=%d chunk=%d: extra r² %d != duplicated %d",
						engine, gridSize, chunkSNPs, extra, st.R2Duplicated)
				}
			}
		}
	}
}

// TestScanStreamLDWorkersMatchSerial covers the threaded stream path:
// with ldWorkers > 1 the LD trapezoid of every chunk-local DP band is
// split across workers by rows, which must change neither a result bit
// nor a work counter. Regions span ~180 SNPs, so fresh bands are large
// enough to take the parallel row walk.
func TestScanStreamLDWorkersMatchSerial(t *testing.T) {
	a := streamAlignment(t, 600, 32, 74, 200000)
	p := Params{GridSize: 24, MaxWindow: 30000}
	regions, err := BuildRegions(a, p.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	widest := maxRegionSpan(regions)
	for _, engine := range []ld.Engine{ld.Direct, ld.GEMM} {
		serial, stS, err := ScanCtx(context.Background(), a, p, engine)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunkSNPs := range []int{0, widest, widest + 13} {
			var base Stats
			for _, workers := range []int{1, 2, 4} {
				src, err := seqio.NewAlignmentSource(a)
				if err != nil {
					t.Fatal(err)
				}
				results, st, _, err := ScanStream(context.Background(), src, p, engine, workers, chunkSNPs, nil)
				if err != nil {
					t.Fatalf("engine=%v chunk=%d workers=%d: %v", engine, chunkSNPs, workers, err)
				}
				if len(results) != len(serial) {
					t.Fatalf("engine=%v chunk=%d workers=%d: %d results, want %d",
						engine, chunkSNPs, workers, len(results), len(serial))
				}
				for i := range results {
					if results[i] != serial[i] {
						t.Fatalf("engine=%v chunk=%d workers=%d: result[%d] = %+v, want %+v",
							engine, chunkSNPs, workers, i, results[i], serial[i])
					}
				}
				if extra := st.R2Computed - stS.R2Computed; extra != st.R2Duplicated {
					t.Errorf("engine=%v chunk=%d workers=%d: extra r² %d != duplicated %d",
						engine, chunkSNPs, workers, extra, st.R2Duplicated)
				}
				if workers == 1 {
					base = st
					continue
				}
				if st.R2Computed != base.R2Computed || st.R2Reused != base.R2Reused ||
					st.R2Duplicated != base.R2Duplicated || st.OmegaScores != base.OmegaScores {
					t.Errorf("engine=%v chunk=%d workers=%d: counters (computed %d, reused %d, duplicated %d, ω %d), want (%d, %d, %d, %d)",
						engine, chunkSNPs, workers, st.R2Computed, st.R2Reused, st.R2Duplicated, st.OmegaScores,
						base.R2Computed, base.R2Reused, base.R2Duplicated, base.OmegaScores)
				}
			}
		}
	}
}

// TestScanStreamSources: every ChunkSource implementation feeding the
// same data must yield identical results — the resident wrapper, the
// deferred-packing ms source, and the mmap-able bitmat file.
func TestScanStreamSources(t *testing.T) {
	reps, err := mssim.Simulate(mssim.Config{
		SampleSize: 20, Replicates: 1, SegSites: 250, Rho: 30, Seed: 72,
	})
	if err != nil {
		t.Fatal(err)
	}
	const regionBP = 120000
	a, err := reps[0].ToAlignment(regionBP)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{GridSize: 20, MaxWindow: 10000}
	serial, _, err := ScanCtx(context.Background(), a, p, ld.Direct)
	if err != nil {
		t.Fatal(err)
	}

	bitmatPath := t.TempDir() + "/a.bitmat"
	if err := seqio.WriteBitmatFile(bitmatPath, a); err != nil {
		t.Fatal(err)
	}

	sources := map[string]func() (seqio.ChunkSource, error){
		"alignment": func() (seqio.ChunkSource, error) { return seqio.NewAlignmentSource(a) },
		"ms":        func() (seqio.ChunkSource, error) { return seqio.NewMSSource(reps[0], regionBP) },
		"bitmat":    func() (seqio.ChunkSource, error) { return seqio.OpenBitmat(bitmatPath) },
	}
	for name, open := range sources {
		t.Run(name, func(t *testing.T) {
			src, err := open()
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			results, _, sst, err := ScanStream(context.Background(), src, p, ld.Direct, 2, 60, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range results {
				if results[i] != serial[i] {
					t.Fatalf("result[%d] = %+v, want %+v", i, results[i], serial[i])
				}
			}
			if name == "bitmat" && sst.CompressedSNPs != 0 {
				t.Errorf("bitmat source compressed %d SNPs, want 0 (packed on disk)", sst.CompressedSNPs)
			}
			if name == "ms" && sst.CompressedSNPs == 0 {
				t.Error("ms source reported no allele compression; packing should happen per chunk")
			}
		})
	}
}

// TestScanStreamCancellation: cancelling mid-stream aborts with
// ctx.Err() and joins the loader goroutine — run under -race this also
// proves the loader never touches the source after ScanStream returns.
func TestScanStreamCancellation(t *testing.T) {
	a := streamAlignment(t, 500, 24, 73, 300000)
	p := Params{GridSize: 60, MaxWindow: 25000}
	baseline := runtime.NumGoroutine()

	t.Run("pre-cancelled", func(t *testing.T) {
		src, err := seqio.NewAlignmentSource(a)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		results, _, _, err := ScanStream(ctx, src, p, ld.Direct, 1, 50, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if results != nil {
			t.Fatal("non-nil results from a cancelled stream scan")
		}
	})

	t.Run("mid-stream", func(t *testing.T) {
		src, err := seqio.NewAlignmentSource(a)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(500 * time.Microsecond)
			cancel()
		}()
		_, _, _, err = ScanStream(ctx, src, p, ld.Direct, 1, 30, nil)
		// Timing-dependent: the scan may finish before the cancel lands.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want nil or context.Canceled", err)
		}
		// Closing the source immediately after return must be safe: the
		// loader has been joined.
		if cerr := src.Close(); cerr != nil {
			t.Fatal(cerr)
		}
	})

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestScanStreamEmptyAlignment mirrors Scan's contract on empty input.
func TestScanStreamEmptyAlignment(t *testing.T) {
	_, err := seqio.NewAlignmentSource(&seqio.Alignment{})
	if err == nil {
		t.Fatal("NewAlignmentSource accepted an empty alignment")
	}
}
