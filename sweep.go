// Package omegago is a Go reproduction of OmegaPlus-style LD-based
// selective sweep detection with simulated GPU and FPGA accelerator
// backends, after:
//
//	R. Corts, N. Sterenborg, N. Alachiotis, "Accelerated LD-based
//	selective sweep detection using GPUs and FPGAs", IPDPSW 2022.
//
// The package scans a genomic region for the LD signature of a
// selective sweep using Kim & Nielsen's ω statistic: at a grid of
// positions along the region, every combination of left/right
// sub-window borders is scored and the maximum ω per position is
// reported. High ω marks candidate sweep locations.
//
// # Quick start
//
//	ds, _ := omegago.Simulate(omegago.SimConfig{
//		SampleSize: 50, Replicates: 1, SegSites: 2000, Seed: 1,
//	}, 1e6)
//	rep, _ := omegago.Scan(ds, omegago.Config{GridSize: 100, MaxWindow: 20000})
//	best, _ := rep.Best()
//	fmt.Printf("max ω = %.2f at %.0f bp\n", best.MaxOmega, best.Center)
//
// Backends: the default CPU backend runs the OmegaPlus algorithm
// directly (optionally multithreaded); BackendGPU and BackendFPGA run
// the same computation through simulated accelerator execution paths
// that report modeled device times alongside bit-identical results (see
// DESIGN.md for the simulation fidelity contract).
package omegago

import (
	"context"
	"fmt"
	"io"
	"time"

	"omegago/internal/exec"
	"omegago/internal/fpga"
	"omegago/internal/gpu"
	"omegago/internal/mssim"
	"omegago/internal/names"
	"omegago/internal/obs"
	"omegago/internal/omega"
	"omegago/internal/seqio"
	"omegago/internal/sfs"
	"omegago/internal/trace"
)

// Tracer collects hierarchical timing spans of a scan and exports them
// in the Chrome trace-event format (see cmd/omegago's -trace flag). A
// Tracer is an Observer: set Config.Observer to capture per-phase —
// and, with the sharded scheduler, per-shard — spans of a scan.
type Tracer = trace.Tracer

// NewTracer starts a Tracer whose timestamps are relative to now.
func NewTracer() *Tracer { return trace.NewTracer() }

// Scheduler selects how the CPU backend parallelizes a multithreaded
// scan. The schedulers differ only in wall-clock behaviour: results are
// bit-identical across all of them (and to the serial scan).
type Scheduler int

const (
	// SchedAuto picks SchedSharded when the grid is large enough to
	// amortize the per-shard boundary recomputation (grid ≥ 4·threads),
	// and SchedSnapshot otherwise. The default.
	SchedAuto Scheduler = iota
	// SchedSnapshot is the OmegaPlus-G style producer/consumer pipeline
	// (omega.ScanParallelCtx): one producer slides a single DP matrix and
	// workers score immutable snapshots. LD remains serial.
	SchedSnapshot
	// SchedSharded partitions the grid into contiguous shards with a
	// private DP matrix each (omega.ScanShardedCtx): LD and ω both run in
	// parallel, at the cost of duplicated r² at shard boundaries
	// (reported as Report.R2Duplicated).
	SchedSharded
)

// schedNames is the Scheduler name table; String, ParseScheduler and
// Validate all derive from it so the CLI, the api wire package and the
// omegad service cannot drift on spellings.
var schedNames = names.New[Scheduler]("scheduler", "Scheduler",
	"auto", "snapshot", "sharded")

// String implements fmt.Stringer.
func (s Scheduler) String() string { return schedNames.String(s) }

// ParseScheduler resolves a scheduler name as printed by
// Scheduler.String ("auto", "snapshot", "sharded"). It is the inverse
// of String over every defined scheduler; the CLI's -sched flag parses
// through it.
func ParseScheduler(name string) (Scheduler, error) {
	s, err := schedNames.Parse(name)
	if err != nil {
		return SchedAuto, fmt.Errorf("omegago: %w", err)
	}
	return s, nil
}

// OmegaKernel selects the CPU ω-kernel implementation of a scan. All
// kernels are bit-identical; they differ only in throughput and in how
// the per-region work is organized (see internal/omega's kernel layer).
type OmegaKernel = omega.KernelKind

const (
	// OmegaKernelAuto dispatches per grid region on workload size, the
	// CPU analogue of the paper's dynamic Kernel I/II selection (§IV-A).
	// The default.
	OmegaKernelAuto = omega.KernelAuto
	// OmegaKernelScalar forces the reference nested loop everywhere.
	OmegaKernelScalar = omega.KernelScalar
	// OmegaKernelBlocked forces the branch-free blocked kernel everywhere.
	OmegaKernelBlocked = omega.KernelBlocked
)

// ParseOmegaKernel resolves an ω-kernel name ("auto", "scalar",
// "blocked") as printed by OmegaKernel.String; the CLI's -omega-kernel
// flag parses through it.
func ParseOmegaKernel(name string) (OmegaKernel, error) {
	return omega.ParseKernelKind(name)
}

// Dataset is a binary SNP alignment over a genomic region (positions in
// base pairs plus a bit-packed SNP matrix).
type Dataset = seqio.Alignment

// Result is the ω outcome at one grid position.
type Result = omega.Result

// SimConfig configures the built-in coalescent simulator (an ms-style
// neutral/sweep model; see internal/mssim).
type SimConfig = mssim.Config

// SweepSimConfig parameterizes a superimposed selective sweep.
type SweepSimConfig = mssim.SweepConfig

// Backend selects the execution engine of a scan.
type Backend int

const (
	// BackendCPU is the reference OmegaPlus algorithm on the host CPU.
	BackendCPU Backend = iota
	// BackendGPU runs LD as GEMM and ω as the two-kernel OpenCL design
	// on a simulated GPU device.
	BackendGPU
	// BackendFPGA runs ω through the simulated HLS pipeline (and models
	// the companion LD accelerator).
	BackendFPGA
)

// backendNames is the Backend name table: the canonical names the
// execution registry is keyed on, plus the bare accelerator aliases
// "gpu" and "fpga" for parsing convenience.
var backendNames = names.New[Backend]("backend", "Backend",
	"cpu", "gpu-sim", "fpga-sim").
	Alias("gpu", BackendGPU).Alias("fpga", BackendFPGA)

// String implements fmt.Stringer.
func (b Backend) String() string { return backendNames.String(b) }

// ParseBackend resolves a backend name to the Backend enum. It accepts
// exactly the registry names Backend.String prints ("cpu", "gpu-sim",
// "fpga-sim") plus the bare accelerator aliases "gpu" and "fpga", so
// the CLI and config files share one parser with the execution-layer
// registry rather than each keeping a switch of its own. Unknown names
// wrap ErrUnknownBackend.
func ParseBackend(name string) (Backend, error) {
	b, err := backendNames.Parse(name)
	if err != nil {
		return BackendCPU, fmt.Errorf("%w: %v", ErrUnknownBackend, err)
	}
	return b, nil
}

// Config configures a sweep scan.
type Config struct {
	// GridSize is the number of equidistant ω positions (default 100).
	GridSize int
	// MinWindow is the minimum total window span in bp (default 0).
	MinWindow float64
	// MaxWindow is the maximum distance of a window border from the
	// grid position in bp, per side (default unbounded).
	MaxWindow float64
	// MaxSNPsPerSide caps the SNPs per sub-window (default unbounded),
	// bounding both the ω workload and the DP matrix memory.
	MaxSNPsPerSide int
	// Threads parallelizes the CPU backend across grid positions
	// (default 1).
	Threads int
	// Sched selects the CPU multithreading scheduler (default SchedAuto;
	// ignored when Threads ≤ 1 or the backend is not BackendCPU).
	Sched Scheduler
	// OmegaKernel selects the CPU ω kernel (default OmegaKernelAuto:
	// per-region scalar/blocked dispatch on workload size). Ignored by
	// the accelerator backends, which always run the packed-buffer path.
	OmegaKernel OmegaKernel
	// KernelNthr overrides the OmegaKernelAuto dispatch threshold in
	// border combinations per region (default omega.DefaultNthr; the
	// Equation 4 Nthr analogue). Ignored by the explicit kernels.
	KernelNthr int
	// Backend selects the engine (default BackendCPU).
	Backend Backend
	// Observer, when non-nil, receives live Progress snapshots (one per
	// completed grid position) and Phase spans from the scan. A *Tracer
	// satisfies this (replacing the removed Config.Tracer hook); compose
	// several with MultiObserver. Must be safe for concurrent use.
	Observer Observer
	// Metrics, when non-nil, is fed live counters (grid positions, ω
	// scores, fresh r², per-phase histograms) plus per-scan totals on
	// completion. Expose its Registry over HTTP for Prometheus scraping;
	// the CLI's -metrics-addr flag does exactly that.
	Metrics *Metrics
	// GPU options (BackendGPU).
	GPUDevice *gpu.Device // default Tesla K80
	GPUKernel gpu.Kind    // default Dynamic
	// FPGA options (BackendFPGA).
	FPGADevice *fpga.Device // default Alveo U200
	// Calibration selects the device cost-model table the accelerator
	// backends price modeled seconds with (nil = embedded default,
	// which reproduces the historical constants bit-for-bit). Load one
	// with LoadCalibration; Validate rejects corrupt tables with
	// ErrBadCalibration.
	Calibration *Calibration
	// UseGEMMLD batches CPU-backend LD through the BLIS-style
	// cache-blocked triangular bit-matrix multiply instead of per-pair
	// popcounts: SNP bit-rows are packed into word-aligned panels and
	// only the window trapezoid ω consumes is popcounted. Results are
	// bit-identical to the direct engine; only the throughput differs
	// (see cmd/omegabench and BENCH_*.json for the recorded trajectory).
	UseGEMMLD bool
	// BatchWorkers bounds the concurrent replicate scans of ScanBatch
	// (default GOMAXPROCS, capped at the batch size). Ignored by Scan.
	BatchWorkers int
	// ChunkSNPs bounds the SNP rows per chunk of a ScanStream scan
	// (default: four times the widest grid region, so the double buffer
	// holds a handful of regions per chunk). Ignored by Scan, which
	// keeps the whole alignment resident.
	ChunkSNPs int
}

func (c Config) params() omega.Params {
	g := c.GridSize
	if g == 0 {
		g = 100
	}
	return omega.Params{
		GridSize:       g,
		MinWindow:      c.MinWindow,
		MaxWindow:      c.MaxWindow,
		MaxSNPsPerSide: c.MaxSNPsPerSide,
	}
}

// Report is the outcome of a scan.
type Report struct {
	// Results holds one entry per grid position, in genomic order.
	Results []Result
	// Backend that produced the results.
	Backend Backend
	// OmegaScores / R2Computed / R2Reused count the work performed.
	// OmegaScores is the admissible border-combination count (the
	// Table III numerator); OmegaEvaluated is how many of those ω values
	// were actually computed — lower on the CPU backend, whose blocked
	// kernel skips combinations that cannot beat the running max.
	OmegaScores    int64
	OmegaEvaluated int64
	R2Computed     int64
	R2Reused       int64
	// R2Duplicated counts r² values recomputed at region-range
	// boundaries (a subset of R2Computed): at shard boundaries by the
	// sharded scheduler and at chunk boundaries by ScanStream; zero for
	// serial and snapshot scans and on accelerator backends.
	R2Duplicated int64
	// LDSeconds / OmegaSeconds split the runtime between the two phases.
	// For the CPU backend these are measured; for accelerator backends
	// they are modeled device times (the measured host wall time of the
	// functional simulation is WallSeconds).
	LDSeconds    float64
	OmegaSeconds float64
	// SnapshotSeconds is the DP-matrix snapshot-copying overhead of the
	// snapshot scheduler, kept out of LDSeconds so the Fig. 14 LD/ω
	// split stays comparable to the serial profile.
	SnapshotSeconds float64
	// WallSeconds is the measured wall-clock time of the scan.
	WallSeconds float64
	// OmegaKernelScalar / OmegaKernelBlocked count grid regions per CPU
	// ω-kernel implementation — with OmegaKernelAuto they show where the
	// Nthr-style dispatch landed. Zero on accelerator backends.
	OmegaKernelScalar  int64
	OmegaKernelBlocked int64
	// Streaming accounting, populated only by ScanStream: chunks read,
	// input bytes read or mapped, SNPs allele-compressed while streaming
	// (zero on the bitmat path), the loader's cumulative read/parse
	// time, and how long the scan stalled waiting for chunks.
	StreamChunks         int
	StreamBytesRead      int64
	StreamCompressedSNPs int64
	StreamLoadSeconds    float64
	StreamStallSeconds   float64
	// ModelVersion / CalibrationID stamp the devmodel table that priced
	// the modeled seconds of an accelerator scan (schema version and
	// table ID; zero/empty on BackendCPU), so capacity numbers stay
	// attributable after calibration tables evolve.
	ModelVersion  int
	CalibrationID string
}

// StreamOverlapRatio returns the fraction of chunk load time a
// ScanStream scan hid behind compute, in [0, 1] — the double-buffer
// effectiveness measure (0 for non-streamed scans).
func (r *Report) StreamOverlapRatio() float64 {
	if r.StreamLoadSeconds <= 0 {
		return 0
	}
	o := (r.StreamLoadSeconds - r.StreamStallSeconds) / r.StreamLoadSeconds
	if o < 0 {
		return 0
	}
	if o > 1 {
		return 1
	}
	return o
}

// Best returns the grid position with the highest ω.
func (r *Report) Best() (Result, bool) { return omega.MaxResult(r.Results) }

// execOptions translates the public Config into the unified execution
// layer's option set.
func (c Config) execOptions(mt *obs.Meter) exec.Options {
	return exec.Options{
		Threads:     c.Threads,
		Sched:       exec.Scheduler(c.Sched),
		UseGEMMLD:   c.UseGEMMLD,
		OmegaKernel: c.OmegaKernel,
		OmegaNthr:   c.KernelNthr,
		Meter:       mt,
		GPUDevice:   c.GPUDevice,
		GPUKernel:   c.GPUKernel,
		FPGADevice:  c.FPGADevice,
		ChunkSNPs:   c.ChunkSNPs,
		Calibration: c.Calibration,
	}
}

// newMeter builds the scan-progress meter for a run of gridTotal
// positions, or nil when nobody is observing — the engines then pay a
// single nil check per grid position.
func (c Config) newMeter(gridTotal int) *obs.Meter {
	if c.Observer == nil && c.Metrics == nil {
		return nil
	}
	return obs.NewMeter(c.Backend.String(), gridTotal, c.Observer, c.Metrics)
}

// Scan runs LD-based selective sweep detection over a dataset. It is
// ScanContext with a background context; use ScanContext to bound a
// scan with a timeout or cancel it.
func Scan(ds *Dataset, cfg Config) (*Report, error) {
	return ScanContext(context.Background(), ds, cfg)
}

// ScanContext runs LD-based selective sweep detection over a dataset,
// honouring ctx: cancellation or an expired deadline aborts the scan
// within one grid position of work on every backend — CPU schedulers
// included — returning ctx.Err() and leaking no goroutines.
//
// The configuration is checked by Config.Validate exactly once (errors
// match ErrBadGrid / ErrUnknownBackend via errors.Is; an empty dataset
// matches ErrNoSNPs). The backend is resolved through the internal
// execution registry by Config.Backend; every engine returns the same
// bit-identical results and is assembled into the Report through this
// single path.
func ScanContext(ctx context.Context, ds *Dataset, cfg Config) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Resolve the parameter defaults exactly once; every layer below —
	// scanResolved included — receives the resolved set.
	p := cfg.params().WithDefaults()
	be, err := exec.Lookup(cfg.Backend.String())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownBackend, cfg.Backend)
	}
	mt := cfg.newMeter(p.GridSize)
	return scanResolved(ctx, ds, cfg, p, be, mt)
}

// scanResolved runs one scan with configuration already validated,
// defaults resolved and the backend looked up — the shared inner path
// of ScanContext and ScanBatch (which validates once for the whole
// batch, not once per replicate). mt may be nil; a non-nil meter has
// Done called exactly once, on every path.
func scanResolved(ctx context.Context, ds *Dataset, cfg Config, p omega.Params, be exec.Backend, mt *obs.Meter) (*Report, error) {
	if ds == nil || ds.NumSNPs() == 0 {
		err := fmt.Errorf("%w (empty dataset)", ErrNoSNPs)
		mt.Done(err)
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		err = fmt.Errorf("omegago: invalid dataset: %w", err)
		mt.Done(err)
		return nil, err
	}
	t0 := time.Now()
	out, err := be.Scan(ctx, ds, p, cfg.execOptions(mt))
	mt.Done(err)
	if err != nil {
		return nil, err
	}
	out.Stats.Publish(cfg.Metrics)
	return newReport(out, cfg.Backend, t0), nil
}

// newReport builds the Report of a finished backend run that started at
// t0.
func newReport(out *exec.Output, backend Backend, t0 time.Time) *Report {
	st := out.Stats
	return &Report{
		Results: out.Results, Backend: backend,
		OmegaScores: st.OmegaScores, OmegaEvaluated: st.OmegaEvaluated,
		R2Computed: st.R2Computed, R2Reused: st.R2Reused, R2Duplicated: st.R2Duplicated,
		LDSeconds: st.LDSeconds, OmegaSeconds: st.OmegaSeconds,
		SnapshotSeconds:   st.SnapshotSeconds,
		WallSeconds:       time.Since(t0).Seconds(),
		OmegaKernelScalar: st.OmegaKernelScalar, OmegaKernelBlocked: st.OmegaKernelBlocked,
		StreamChunks: st.StreamChunks, StreamBytesRead: st.StreamBytesRead,
		StreamCompressedSNPs: st.StreamCompressedSNPs,
		StreamLoadSeconds:    st.StreamLoadSeconds, StreamStallSeconds: st.StreamStallSeconds,
		ModelVersion: st.ModelVersion, CalibrationID: st.CalibrationID,
	}
}

// Simulate generates a dataset with the built-in coalescent simulator,
// scaling positions to a region of regionBP base pairs. Only the first
// replicate is returned; use the internal/mssim package (or cmd/msgo)
// for multi-replicate studies.
func Simulate(cfg SimConfig, regionBP float64) (*Dataset, error) {
	reps, err := mssim.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	return reps[0].ToAlignment(regionBP)
}

// LoadMS parses Hudson's-ms-format output (first replicate) and scales
// positions to regionBP base pairs.
func LoadMS(r io.Reader, regionBP float64) (*Dataset, error) {
	return seqio.ParseMSAlignment(r, regionBP)
}

// LoadMSAll parses every replicate of an ms stream. Replicates with
// zero segregating sites yield nil entries (a fully swept sample, for
// example); callers scanning batches should skip them.
func LoadMSAll(r io.Reader, regionBP float64) ([]*Dataset, error) {
	reps, err := seqio.ParseMS(r)
	if err != nil {
		return nil, err
	}
	out := make([]*Dataset, len(reps))
	for i, rep := range reps {
		if rep.SegSites == 0 {
			continue
		}
		a, err := rep.ToAlignment(regionBP)
		if err != nil {
			return nil, fmt.Errorf("omegago: replicate %d: %w", i+1, err)
		}
		out[i] = a
	}
	return out, nil
}

// LoadFASTA converts an aligned FASTA file to a binary SNP dataset
// (biallelic columns only; N/gap characters become missing data).
func LoadFASTA(r io.Reader) (*Dataset, error) {
	recs, err := seqio.ParseFASTA(r)
	if err != nil {
		return nil, err
	}
	a, _, err := seqio.FASTAToAlignment(recs)
	return a, err
}

// LoadVCF parses a single-chromosome VCF into a binary SNP dataset
// (biallelic SNP records; diploid genotypes split into haplotypes).
func LoadVCF(r io.Reader) (*Dataset, error) {
	return seqio.ParseVCF(r)
}

// SFSWindow is one grid position of an SFS-statistics scan.
type SFSWindow = sfs.WindowStat

// ScanSFS computes the site-frequency-spectrum summary statistics
// (Tajima's D, Fay & Wu's H) on the same grid geometry as Scan — the
// SFS-based baseline the paper's background contrasts with LD-based
// detection. A sweep drives both statistics negative near the selected
// site.
func ScanSFS(ds *Dataset, gridSize int, maxWindowBP float64) ([]SFSWindow, error) {
	if ds == nil {
		return nil, fmt.Errorf("omegago: nil dataset")
	}
	return sfs.Scan(ds, gridSize, maxWindowBP)
}

// WriteReport emits scan results in the OmegaPlus-style tab-separated
// report layout. The rows are derived from the wire form (APIReport),
// so the tab report and the JSON report are two renderings of one
// marshalled result, never two marshalled results.
func (r *Report) WriteReport(w io.Writer, label string) error {
	rep := r.APIReport(label, "")
	rows := make([]seqio.ReportRow, len(rep.Results))
	for i, res := range rep.Results {
		rows[i] = seqio.ReportRow{
			Position: res.Position, Omega: res.Omega,
			LeftPos: res.WinLeft, RightPos: res.WinRight, Valid: res.Valid,
		}
	}
	return seqio.WriteReport(w, rep.Label, rows)
}
