// Package exec is the unified execution layer of omegago: one Backend
// interface in front of the three engines the paper's Fig. 3 workflow
// dispatches to (host CPU, simulated GPU, simulated FPGA), a registry
// that resolves engines by name, and one Stats type subsuming the
// counters the engines report individually.
//
// The package exists so that everything above it — the public API, the
// CLI, the batch scanner, and any future serving layer — sees exactly
// one call shape regardless of what runs underneath:
//
//	be, _ := exec.Lookup("gpu-sim")
//	out, err := be.Scan(ctx, alignment, params, exec.Options{})
//
// All backends honour context cancellation at region/grid-position
// granularity and return bit-identical ω results (the golden tests at
// the repository root pin that contract).
package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"omegago/internal/devmodel"
	"omegago/internal/fpga"
	"omegago/internal/gpu"
	"omegago/internal/obs"
	"omegago/internal/omega"
	"omegago/internal/seqio"
)

// Scheduler selects how the CPU backend parallelizes a multithreaded
// scan. Accelerator backends ignore it.
type Scheduler int

const (
	// SchedAuto picks SchedSharded when the grid is large enough to
	// amortize the per-shard boundary recomputation (grid ≥ 4·threads),
	// and SchedSnapshot otherwise.
	SchedAuto Scheduler = iota
	// SchedSnapshot is the OmegaPlus-G style producer/consumer pipeline
	// (omega.ScanParallelCtx).
	SchedSnapshot
	// SchedSharded partitions the grid into contiguous shards with a
	// private DP matrix each (omega.ScanShardedCtx).
	SchedSharded
)

// Options carries every engine tunable through the uniform Scan call.
// Fields irrelevant to a backend are ignored by it (the CLI warns when
// a user sets a CPU-only flag on an accelerator backend).
type Options struct {
	// Threads parallelizes the CPU backend across grid positions and the
	// GPU backend's host-side LD unpacking (default 1).
	Threads int
	// Sched selects the CPU multithreading scheduler (default SchedAuto).
	Sched Scheduler
	// UseGEMMLD batches CPU-backend LD through the cache-blocked
	// triangular bit-matrix GEMM (gemm.PopcountTrapezoid): the DP fill
	// hands whole trapezoids of fresh pairs to one packed popcount
	// kernel instead of walking vectors pair by pair.
	UseGEMMLD bool
	// OmegaKernel selects the CPU ω kernel implementation: scalar (the
	// reference nested loop), blocked (branch-free flat-buffer kernel),
	// or auto (per-region Nthr-style dispatch, the default — the CPU
	// analogue of the paper's Kernel I/II selection). Accelerator
	// backends ignore it: they always run the packed KernelInput path.
	OmegaKernel omega.KernelKind
	// OmegaNthr overrides the auto dispatch threshold in border
	// combinations per region (0 = omega.DefaultNthr).
	OmegaNthr int
	// Stream, when non-nil, switches the CPU backend to the out-of-core
	// chunked scanner (omega.ScanStream): the alignment argument of Scan
	// is ignored (callers may pass nil) and rows are pulled from the
	// source chunk by chunk, double-buffered against compute. The
	// accelerator backends reject it — their simulated transfer models
	// assume a resident alignment.
	Stream seqio.ChunkSource
	// ChunkSNPs bounds the SNP rows per streamed chunk (0 = four times
	// the widest grid region). Ignored without Stream.
	ChunkSNPs int
	// Meter, when non-nil, receives per-grid-position progress ticks and
	// phase spans from every backend. Observers that want timing spans
	// (the old Tracer hook) subscribe through the Meter's Observer; see
	// internal/obs.
	Meter *obs.Meter
	// Calibration selects the devmodel table the accelerator backends
	// price their modeled seconds with (nil = embedded default). It
	// takes precedence over any table set in GPUOpts/FPGAOpts.
	Calibration *devmodel.Calibration
	// GPUDevice / GPUKernel configure the gpu-sim backend (defaults:
	// Tesla K80, dynamic kernel selection).
	GPUDevice *gpu.Device
	GPUKernel gpu.Kind
	// GPUOpts are the remaining gpu launch knobs (order switch ablation,
	// transfer overlap). Workers is overridden by Threads.
	GPUOpts gpu.Options
	// FPGADevice configures the fpga-sim backend (default Alveo U200).
	FPGADevice *fpga.Device
	// FPGAOpts are the remaining fpga launch knobs (unroll factor,
	// software remainder cost).
	FPGAOpts fpga.Options
}

// Stats is the unified work/time accounting of a scan, subsuming
// omega.Stats, gpu.ScanReport and fpga.ScanReport. Counters that an
// engine does not produce stay zero.
type Stats struct {
	// Functional counters (every backend).
	Grid        int   // grid positions evaluated
	OmegaScores int64 // admissible ω border combinations (Table III numerators)
	// OmegaEvaluated counts the ω values actually computed: equal to
	// OmegaScores on the simulators, which score every cell as the
	// paper's hardware does, and lower on the CPU, whose blocked kernel
	// skips cells that cannot beat the running max.
	OmegaEvaluated int64
	R2Computed     int64 // fresh r² values (Equation 1 evaluations)
	R2Reused       int64 // DP cells preserved by relocation (Equation 3 reuse)
	// R2Duplicated counts r² recomputed at region-range boundaries (a
	// subset of R2Computed): at shard boundaries by the CPU sharded
	// scheduler and at chunk boundaries by streamed scans; zero for
	// serial and snapshot scans and on accelerator backends.
	R2Duplicated int64

	// Phase times in seconds. For the CPU backend these are measured;
	// for accelerator backends they are modeled device times.
	LDSeconds    float64
	OmegaSeconds float64
	// SnapshotSeconds is the snapshot-copy overhead of the CPU snapshot
	// scheduler (kept out of LDSeconds; see omega.Stats).
	SnapshotSeconds float64
	// WallSeconds is the measured host wall-clock of the engine run.
	WallSeconds float64

	// GPU-specific counters (gpu-sim backend).
	KernelILaunches  int
	KernelIILaunches int
	OrderSwitches    int
	BytesTransferred int64

	// FPGA-specific counters (fpga-sim backend).
	HardwareOmegas int64 // ω scores produced by the unrolled pipeline
	SoftwareOmegas int64 // remainder iterations scored on the host
	Cycles         int64 // modeled pipeline cycles

	// CPU ω-kernel dispatch split: grid regions evaluated by each kernel
	// implementation (the Kernel I/II launch-count analogue of §IV-A).
	OmegaKernelScalar  int64
	OmegaKernelBlocked int64

	// Streaming counters (CPU backend with Options.Stream; zero
	// otherwise). See omega.StreamStats for their exact meaning.
	StreamChunks         int
	StreamBytesRead      int64
	StreamCompressedSNPs int64
	StreamLoadSeconds    float64
	StreamStallSeconds   float64

	// Cost-model provenance (accelerator backends; zero/empty on cpu).
	// ModelVersion is the devmodel calibration schema version and
	// CalibrationID names the table that priced the modeled seconds, so
	// capacity numbers stay attributable after tables evolve.
	ModelVersion  int
	CalibrationID string
	// ModeledBackend is the simulator that produced the modeled seconds
	// ("gpu-sim" or "fpga-sim"); it routes Publish to the right
	// modeled-seconds gauge.
	ModeledBackend string
}

// StreamOverlapRatio returns the fraction of streamed-chunk load time
// hidden behind compute, in [0, 1] (0 when the scan did not stream).
func (s Stats) StreamOverlapRatio() float64 {
	if s.StreamLoadSeconds <= 0 {
		return 0
	}
	r := (s.StreamLoadSeconds - s.StreamStallSeconds) / s.StreamLoadSeconds
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// Add accumulates other into s (used by the batch scanner's aggregate).
func (s *Stats) Add(other Stats) {
	s.Grid += other.Grid
	s.OmegaScores += other.OmegaScores
	s.OmegaEvaluated += other.OmegaEvaluated
	s.R2Computed += other.R2Computed
	s.R2Reused += other.R2Reused
	s.R2Duplicated += other.R2Duplicated
	s.LDSeconds += other.LDSeconds
	s.OmegaSeconds += other.OmegaSeconds
	s.SnapshotSeconds += other.SnapshotSeconds
	s.WallSeconds += other.WallSeconds
	s.KernelILaunches += other.KernelILaunches
	s.KernelIILaunches += other.KernelIILaunches
	s.OrderSwitches += other.OrderSwitches
	s.BytesTransferred += other.BytesTransferred
	s.HardwareOmegas += other.HardwareOmegas
	s.SoftwareOmegas += other.SoftwareOmegas
	s.Cycles += other.Cycles
	s.OmegaKernelScalar += other.OmegaKernelScalar
	s.OmegaKernelBlocked += other.OmegaKernelBlocked
	s.StreamChunks += other.StreamChunks
	s.StreamBytesRead += other.StreamBytesRead
	s.StreamCompressedSNPs += other.StreamCompressedSNPs
	s.StreamLoadSeconds += other.StreamLoadSeconds
	s.StreamStallSeconds += other.StreamStallSeconds
	// Provenance: a batch aggregates scans of one backend under one
	// table, so adopting the first non-empty stamp is lossless.
	if s.ModelVersion == 0 {
		s.ModelVersion = other.ModelVersion
	}
	if s.CalibrationID == "" {
		s.CalibrationID = other.CalibrationID
	}
	if s.ModeledBackend == "" {
		s.ModeledBackend = other.ModeledBackend
	}
}

// Publish snapshots the per-scan totals into the metrics bundle (no-op
// on a nil bundle). The live counters a Meter feeds per grid position
// (grid positions, ω scores, fresh r²) are deliberately excluded —
// they were already counted while the scan ran; Publish adds only the
// once-per-scan totals the engines report on completion.
func (s Stats) Publish(met *obs.Metrics) {
	if met == nil {
		return
	}
	met.R2Reused.Add(s.R2Reused)
	met.OmegaEvaluated.Add(s.OmegaEvaluated)
	met.LDSeconds.Add(s.LDSeconds)
	met.OmegaSeconds.Add(s.OmegaSeconds)
	met.ScanSeconds.Observe(s.WallSeconds)
	met.KernelLaunches.Add(int64(s.KernelILaunches + s.KernelIILaunches))
	met.BytesTransferred.Add(s.BytesTransferred)
	met.HardwareOmegas.Add(s.HardwareOmegas)
	met.SoftwareOmegas.Add(s.SoftwareOmegas)
	met.KernelDispatchScalar.Add(s.OmegaKernelScalar)
	met.KernelDispatchBlocked.Add(s.OmegaKernelBlocked)
	met.StreamChunks.Add(int64(s.StreamChunks))
	met.StreamBytes.Add(s.StreamBytesRead)
	met.StreamCompressedSNPs.Add(s.StreamCompressedSNPs)
	met.StreamLoadSeconds.Add(s.StreamLoadSeconds)
	met.StreamStallSeconds.Add(s.StreamStallSeconds)
	if s.StreamChunks > 0 {
		met.StreamOverlap.Set(s.StreamOverlapRatio())
	}
	switch s.ModeledBackend {
	case "gpu-sim":
		met.ModeledSecondsGPU.Add(s.LDSeconds + s.OmegaSeconds)
	case "fpga-sim":
		met.ModeledSecondsFPGA.Add(s.LDSeconds + s.OmegaSeconds)
	}
}

// Output is the uniform result of a Backend.Scan.
type Output struct {
	// Results holds one entry per grid position, in genomic order.
	Results []omega.Result
	// Stats is the unified work/time accounting.
	Stats Stats
}

// Backend is one execution engine for the OmegaPlus workflow. Scan must
// honour ctx at region/grid-position granularity, return results
// bit-identical to the serial CPU reference, and leak no goroutines on
// cancellation.
type Backend interface {
	// Name is the registry key (e.g. "cpu", "gpu-sim", "fpga-sim").
	Name() string
	// Scan runs the full workflow over the alignment. p should already
	// carry defaults (callers resolve p.WithDefaults() once); Scan
	// re-applies them defensively, which is idempotent.
	Scan(ctx context.Context, a *seqio.Alignment, p omega.Params, opts Options) (*Output, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Backend)
)

// Register adds a backend under its Name. Registering a duplicate name
// panics: backend names are an API surface (CLI flags, config files)
// and a silent overwrite would reroute scans.
func Register(b Backend) {
	regMu.Lock()
	defer regMu.Unlock()
	name := b.Name()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("exec: backend %q registered twice", name))
	}
	registry[name] = b
}

// Lookup resolves a backend by name.
func Lookup(name string) (Backend, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("exec: unknown backend %q (registered: %s)", name, strings.Join(names(), ", "))
	}
	return b, nil
}

// Backends returns every registered backend, sorted by name, so
// table-driven equivalence tests cover new engines automatically.
func Backends() []Backend {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Backend, 0, len(registry))
	for _, n := range names() {
		out = append(out, registry[n])
	}
	return out
}

// names returns the sorted registry keys; callers hold regMu.
func names() []string {
	ns := make([]string, 0, len(registry))
	for n := range registry {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}
