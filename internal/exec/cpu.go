package exec

import (
	"context"
	"time"

	"omegago/internal/ld"
	"omegago/internal/omega"
	"omegago/internal/seqio"
)

func init() { Register(cpuBackend{}) }

// cpuBackend runs the reference OmegaPlus algorithm on the host,
// dispatching to the snapshot or sharded scheduler when multithreaded.
type cpuBackend struct{}

func (cpuBackend) Name() string { return "cpu" }

// UseSharded resolves a Scheduler to a concrete strategy for the grid
// regions of a scan and its thread count. Auto picks sharded only when
// the grid holds at least four regions per worker and the r² the shards
// would recompute at their boundaries is at most a quarter of all r²
// the sharded scan computes (omega.PreferSharded, an exact prediction).
// Otherwise the snapshot scheduler's one sliding matrix wins: a wide
// window makes every shard rebuild most of the DP band.
func UseSharded(s Scheduler, regions []omega.Region, threads int) bool {
	if threads <= 1 {
		return false
	}
	switch s {
	case SchedSharded:
		return true
	case SchedSnapshot:
		return false
	default:
		return len(regions) >= 4*threads && omega.PreferSharded(regions, threads)
	}
}

func (cpuBackend) Scan(ctx context.Context, a *seqio.Alignment, p omega.Params, opts Options) (*Output, error) {
	p = p.WithDefaults()
	if opts.OmegaKernel != omega.KernelAuto {
		p.Kernel = opts.OmegaKernel
	}
	if opts.OmegaNthr > 0 {
		p.KernelNthr = opts.OmegaNthr
	}
	engine := ld.Direct
	if opts.UseGEMMLD {
		engine = ld.GEMM
	}
	threads := opts.Threads
	if threads < 1 {
		threads = 1
	}
	t0 := time.Now()
	if opts.Stream != nil {
		// Out-of-core path: regions are scanned serially chunk by chunk
		// with parsing double-buffered against compute; Threads feeds the
		// LD stage's workers instead of a grid scheduler.
		results, st, sst, err := omega.ScanStream(ctx, opts.Stream, p, engine, threads, opts.ChunkSNPs, opts.Meter)
		if err != nil {
			return nil, err
		}
		return &Output{Results: results, Stats: cpuStats(st, sst, t0)}, nil
	}
	var (
		results []omega.Result
		st      omega.Stats
	)
	regions, err := omega.BuildRegions(a, p)
	if err != nil {
		return nil, err
	}
	if UseSharded(opts.Sched, regions, threads) {
		results, st, err = omega.ScanShardedCtx(ctx, a, p, engine, threads, opts.Meter)
	} else {
		results, st, err = omega.ScanParallelCtx(ctx, a, p, engine, threads, opts.Meter)
	}
	if err != nil {
		return nil, err
	}
	return &Output{Results: results, Stats: cpuStats(st, omega.StreamStats{}, t0)}, nil
}

// cpuStats converts a CPU scan's accounting into Stats; sst is zero for
// in-memory scans and t0 is when the scan started.
func cpuStats(st omega.Stats, sst omega.StreamStats, t0 time.Time) Stats {
	return Stats{
		Grid:                 st.Grid,
		OmegaScores:          st.OmegaScores,
		OmegaEvaluated:       st.OmegaEvaluated,
		R2Computed:           st.R2Computed,
		R2Reused:             st.R2Reused,
		R2Duplicated:         st.R2Duplicated,
		LDSeconds:            st.LDTime.Seconds(),
		OmegaSeconds:         st.OmegaTime.Seconds(),
		SnapshotSeconds:      st.SnapshotTime.Seconds(),
		WallSeconds:          time.Since(t0).Seconds(),
		OmegaKernelScalar:    st.KernelScalar,
		OmegaKernelBlocked:   st.KernelBlocked,
		StreamChunks:         sst.Chunks,
		StreamBytesRead:      sst.BytesRead,
		StreamCompressedSNPs: sst.CompressedSNPs,
		StreamLoadSeconds:    sst.LoadTime.Seconds(),
		StreamStallSeconds:   sst.StallTime.Seconds(),
	}
}
