package omega

import (
	"context"
	"math/rand"
	"testing"

	"omegago/internal/ld"
	"omegago/internal/mssim"
	"omegago/internal/obs"
	"omegago/internal/trace"
)

func TestPartitionRegionsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		a := randomAlignment(rng, rng.Intn(60)+10, 12, 20000)
		p := Params{GridSize: rng.Intn(30) + 1, MaxWindow: float64(rng.Intn(5000) + 500)}.WithDefaults()
		regions, err := BuildRegions(a, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2, 3, 5, 8, 100} {
			spans := partitionRegions(regions, threads)
			want := threads
			if want > len(regions) {
				want = len(regions)
			}
			if len(spans) != want {
				t.Fatalf("threads=%d regions=%d: got %d shards, want %d",
					threads, len(regions), len(spans), want)
			}
			next := 0
			for _, sp := range spans {
				if sp.Lo != next || sp.Hi <= sp.Lo {
					t.Fatalf("threads=%d: bad span %+v (next=%d)", threads, sp, next)
				}
				next = sp.Hi
			}
			if next != len(regions) {
				t.Fatalf("threads=%d: spans cover %d of %d regions", threads, next, len(regions))
			}
		}
	}
}

func TestPartitionRegionsBalance(t *testing.T) {
	// On a uniform grid the work split must be roughly even: no shard
	// should carry more than twice the fair share of estimated cells.
	rng := rand.New(rand.NewSource(42))
	a := randomAlignment(rng, 400, 16, 100000)
	p := Params{GridSize: 64, MaxWindow: 8000}.WithDefaults()
	regions, err := BuildRegions(a, p)
	if err != nil {
		t.Fatal(err)
	}
	work := estimateCellWork(regions)
	var total int64
	for _, w := range work {
		total += w
	}
	const threads = 4
	spans := partitionRegions(regions, threads)
	for _, sp := range spans {
		var got int64
		for i := sp.Lo; i < sp.Hi; i++ {
			got += work[i]
		}
		if got > total*2/threads {
			t.Errorf("shard %+v holds %d of %d cells (> 2x fair share)", sp, got, total)
		}
	}
}

// TestScanShardedMatchesSerial is the scheduler-equivalence contract:
// every field of every Result must be bit-identical to the serial scan,
// at thread counts below, at, and above the grid size.
func TestScanShardedMatchesSerial(t *testing.T) {
	reps, err := mssim.Simulate(mssim.Config{SampleSize: 25, Replicates: 1, SegSites: 150, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := reps[0].ToAlignment(80000)
	for _, gridSize := range []int{2, 5, 16} {
		p := Params{GridSize: gridSize, MaxWindow: 12000}
		serial, stS, err := ScanCtx(context.Background(), a, p, ld.Direct)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2, 3, 8} {
			sharded, stP, err := ScanShardedCtx(context.Background(), a, p, ld.Direct, threads, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(sharded) != len(serial) {
				t.Fatalf("grid=%d threads=%d: %d results, want %d",
					gridSize, threads, len(sharded), len(serial))
			}
			for i := range sharded {
				if sharded[i] != serial[i] {
					t.Fatalf("grid=%d threads=%d: result[%d] = %+v, want %+v",
						gridSize, threads, i, sharded[i], serial[i])
				}
			}
			if stP.OmegaScores != stS.OmegaScores || stP.Grid != stS.Grid {
				t.Errorf("grid=%d threads=%d: stats drifted: %+v vs %+v",
					gridSize, threads, stP, stS)
			}
		}
	}
}

func TestScanShardedGEMMEngine(t *testing.T) {
	reps, err := mssim.Simulate(mssim.Config{SampleSize: 40, Replicates: 1, SegSites: 120, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := reps[0].ToAlignment(60000)
	p := Params{GridSize: 12, MaxWindow: 10000}
	serial, _, err := ScanCtx(context.Background(), a, p, ld.GEMM)
	if err != nil {
		t.Fatal(err)
	}
	sharded, _, err := ScanShardedCtx(context.Background(), a, p, ld.GEMM, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sharded {
		if sharded[i] != serial[i] {
			t.Fatalf("GEMM result[%d] = %+v, want %+v", i, sharded[i], serial[i])
		}
	}
}

// TestScanShardedDuplicationAccounting checks the exact boundary-cost
// identity: the cells a sharded scan computes are the serial cells plus
// exactly the duplicated overlap triangles it reports.
func TestScanShardedDuplicationAccounting(t *testing.T) {
	reps, err := mssim.Simulate(mssim.Config{SampleSize: 20, Replicates: 1, SegSites: 200, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := reps[0].ToAlignment(100000)
	p := Params{GridSize: 24, MaxWindow: 15000}
	_, stS, err := ScanCtx(context.Background(), a, p, ld.Direct)
	if err != nil {
		t.Fatal(err)
	}
	if stS.R2Duplicated != 0 {
		t.Fatalf("serial scan reported %d duplicated cells", stS.R2Duplicated)
	}
	for _, threads := range []int{2, 4, 6} {
		_, stP, err := ScanShardedCtx(context.Background(), a, p, ld.Direct, threads, nil)
		if err != nil {
			t.Fatal(err)
		}
		if threads > 1 && stP.R2Duplicated == 0 {
			t.Errorf("threads=%d: expected boundary duplication on overlapping grid", threads)
		}
		if stP.R2Computed-stP.R2Duplicated != stS.R2Computed {
			t.Errorf("threads=%d: computed %d − duplicated %d ≠ serial %d",
				threads, stP.R2Computed, stP.R2Duplicated, stS.R2Computed)
		}
	}
}

func TestScanShardedBadThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	a := randomAlignment(rng, 10, 8, 1000)
	if _, _, err := ScanShardedCtx(context.Background(), a, Params{GridSize: 2}, ld.Direct, 0, nil); err == nil {
		t.Error("0 threads should error")
	}
}

func TestScanShardedTraceSpans(t *testing.T) {
	reps, err := mssim.Simulate(mssim.Config{SampleSize: 20, Replicates: 1, SegSites: 100, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := reps[0].ToAlignment(50000)
	tr := trace.NewTracer()
	const threads = 3
	mt := obs.NewMeter("cpu", 12, tr, nil)
	if _, _, err := ScanShardedCtx(context.Background(), a, Params{GridSize: 12, MaxWindow: 10000}, ld.Direct, threads, mt); err != nil {
		t.Fatal(err)
	}
	tracks := map[int]bool{}
	shardSpans := 0
	for _, s := range tr.Spans() {
		if s.Track >= 2 {
			tracks[s.Track] = true
		}
		if s.Name == "shard 0" || s.Name == "shard 1" || s.Name == "shard 2" {
			shardSpans++
			if s.Args["r2_computed"] == nil {
				t.Errorf("shard span %q missing work args", s.Name)
			}
		}
	}
	if len(tracks) != threads {
		t.Errorf("spans on %d shard tracks, want %d", len(tracks), threads)
	}
	if shardSpans != threads {
		t.Errorf("%d shard summary spans, want %d", shardSpans, threads)
	}
}
