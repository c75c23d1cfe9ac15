package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is the standard omegago metric bundle over a Registry: the
// counters a Meter feeds per grid position, plus the per-scan totals
// exec.Stats publishes when a scan completes. Create one per registry
// with NewMetrics; creating it again over the same registry returns
// handles to the same underlying series (Registry get-or-create), so a
// long-lived service can hand every scan the same bundle.
type Metrics struct {
	reg *Registry

	// Live, fed per grid position by the Meter.
	GridPositions *Counter // omegago_grid_positions_total
	OmegaScores   *Counter // omegago_omega_scores_total
	R2Computed    *Counter // omegago_r2_computed_total
	ScansInFlight *Gauge   // omegago_scans_in_flight

	// Per-scan lifecycle, fed by Meter.Done.
	Scans        *Counter // omegago_scans_total
	ScanFailures *Counter // omegago_scan_failures_total

	// Per-scan totals, fed by exec.Stats.Publish after completion.
	R2Reused         *Counter   // omegago_r2_reused_total
	OmegaEvaluated   *Counter   // omegago_omega_evaluated_total
	LDSeconds        *Gauge     // omegago_ld_seconds_total
	OmegaSeconds     *Gauge     // omegago_omega_seconds_total
	ScanSeconds      *Histogram // omegago_scan_seconds (wall per scan)
	KernelLaunches   *Counter   // omegago_gpu_kernel_launches_total
	BytesTransferred *Counter   // omegago_gpu_bytes_transferred_total
	HardwareOmegas   *Counter   // omegago_fpga_hardware_omegas_total
	SoftwareOmegas   *Counter   // omegago_fpga_software_omegas_total
	// CPU ω-kernel dispatch split: one labeled series per kernel
	// implementation under the base omegago_kernel_dispatch_total.
	KernelDispatchScalar  *Counter // omegago_kernel_dispatch_total{kernel="scalar"}
	KernelDispatchBlocked *Counter // omegago_kernel_dispatch_total{kernel="blocked"}
	// Modeled accelerator seconds, one labeled series per simulator
	// backend (devmodel cost-model output; measured CPU time is excluded).
	ModeledSecondsGPU  *Gauge // omegago_modeled_seconds_total{backend="gpu-sim"}
	ModeledSecondsFPGA *Gauge // omegago_modeled_seconds_total{backend="fpga-sim"}
	// Scenario-engine counters, fed by the root RunScenario executor.
	ScenarioCells        *Counter   // omegago_scenario_cells_total
	ScenarioCellFailures *Counter   // omegago_scenario_cell_failures_total
	ScenarioReplicates   *Counter   // omegago_scenario_replicates_total
	ScenarioCellSeconds  *Histogram // omegago_scenario_cell_seconds
	// Out-of-core streaming counters (CPU backend with a chunk source).
	StreamChunks         *Counter // omegago_stream_chunks_total
	StreamBytes          *Counter // omegago_stream_bytes_total
	StreamCompressedSNPs *Counter // omegago_stream_compressed_snps_total
	StreamLoadSeconds    *Gauge   // omegago_stream_load_seconds_total
	StreamStallSeconds   *Gauge   // omegago_stream_stall_seconds_total
	StreamOverlap        *Gauge   // omegago_stream_overlap_ratio

	// Per-phase duration histograms, created lazily by phase name:
	// omegago_phase_seconds_<name>.
	phases sync.Map // string → *Histogram
}

// NewMetrics registers (or reattaches to) the omegago metric bundle on
// reg.
func NewMetrics(reg *Registry) *Metrics {
	return &Metrics{
		reg:           reg,
		GridPositions: reg.Counter("omegago_grid_positions_total", "Grid positions scanned."),
		OmegaScores:   reg.Counter("omegago_omega_scores_total", "Omega statistics computed (Equation 2)."),
		R2Computed:    reg.Counter("omegago_r2_computed_total", "Fresh r2 values computed (Equation 1)."),
		ScansInFlight: reg.Gauge("omegago_scans_in_flight", "Scans currently executing."),
		Scans:         reg.Counter("omegago_scans_total", "Scans completed (including failures)."),
		ScanFailures:  reg.Counter("omegago_scan_failures_total", "Scans that returned an error (cancellation included)."),
		R2Reused:      reg.Counter("omegago_r2_reused_total", "DP cells reused by relocation (Equation 3)."),
		OmegaEvaluated: reg.Counter("omegago_omega_evaluated_total",
			"Omega statistics actually evaluated (at most omegago_omega_scores_total; the CPU kernel skips cells that cannot win)."),
		LDSeconds:    reg.Gauge("omegago_ld_seconds_total", "Cumulative LD-phase seconds (measured on cpu, modeled on accelerators)."),
		OmegaSeconds: reg.Gauge("omegago_omega_seconds_total", "Cumulative omega-phase seconds (measured on cpu, modeled on accelerators)."),
		ScanSeconds:  reg.Histogram("omegago_scan_seconds", "Wall-clock seconds per completed scan.", nil),
		KernelLaunches: reg.Counter("omegago_gpu_kernel_launches_total",
			"GPU omega kernel launches (Kernel I + Kernel II)."),
		BytesTransferred: reg.Counter("omegago_gpu_bytes_transferred_total", "Modeled host-device bytes moved."),
		HardwareOmegas:   reg.Counter("omegago_fpga_hardware_omegas_total", "Omega scores produced by the unrolled FPGA pipeline."),
		SoftwareOmegas:   reg.Counter("omegago_fpga_software_omegas_total", "Remainder omega scores computed on the host."),
		KernelDispatchScalar: reg.Counter(`omegago_kernel_dispatch_total{kernel="scalar"}`,
			"Grid regions evaluated per CPU omega kernel implementation."),
		KernelDispatchBlocked: reg.Counter(`omegago_kernel_dispatch_total{kernel="blocked"}`,
			"Grid regions evaluated per CPU omega kernel implementation."),
		ModeledSecondsGPU: reg.Gauge(`omegago_modeled_seconds_total{backend="gpu-sim"}`,
			"Cumulative devmodel-modeled accelerator seconds per simulator backend."),
		ModeledSecondsFPGA: reg.Gauge(`omegago_modeled_seconds_total{backend="fpga-sim"}`,
			"Cumulative devmodel-modeled accelerator seconds per simulator backend."),
		ScenarioCells: reg.Counter("omegago_scenario_cells_total",
			"Scenario grid cells completed (failures included)."),
		ScenarioCellFailures: reg.Counter("omegago_scenario_cell_failures_total",
			"Scenario grid cells that failed outright."),
		ScenarioReplicates: reg.Counter("omegago_scenario_replicates_total",
			"Simulated replicates consumed by scenario cells (both arms)."),
		ScenarioCellSeconds: reg.Histogram("omegago_scenario_cell_seconds",
			"Wall-clock seconds per completed scenario cell.", nil),
		StreamChunks: reg.Counter("omegago_stream_chunks_total",
			"Chunks read by the out-of-core streaming scanner."),
		StreamBytes: reg.Counter("omegago_stream_bytes_total",
			"Input bytes read (or freshly mapped) while streaming chunks."),
		StreamCompressedSNPs: reg.Counter("omegago_stream_compressed_snps_total",
			"SNPs allele-compressed while streaming (zero on the bitmat mmap path)."),
		StreamLoadSeconds: reg.Gauge("omegago_stream_load_seconds_total",
			"Cumulative chunk read/parse seconds of the streaming loader."),
		StreamStallSeconds: reg.Gauge("omegago_stream_stall_seconds_total",
			"Cumulative seconds the streaming scan waited for a chunk."),
		StreamOverlap: reg.Gauge("omegago_stream_overlap_ratio",
			"Fraction of chunk load time hidden behind compute in the last streamed scan."),
	}
}

// Registry returns the backing registry (for exposition handlers).
func (m *Metrics) Registry() *Registry { return m.reg }

// sanitizePhase maps a free-form phase name to a metric-name suffix.
func sanitizePhase(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// PhaseHistogram returns the duration histogram for a phase name,
// creating omegago_phase_seconds_<name> on first use. The lookup is a
// sync.Map read on the hot path.
func (m *Metrics) PhaseHistogram(name string) *Histogram {
	if h, ok := m.phases.Load(name); ok {
		return h.(*Histogram)
	}
	h := m.reg.Histogram("omegago_phase_seconds_"+sanitizePhase(name),
		fmt.Sprintf("Duration of %q phase spans in seconds.", name), nil)
	actual, _ := m.phases.LoadOrStore(name, h)
	return actual.(*Histogram)
}

// meterCore is the state shared by a batch parent and its per-replicate
// child meters: one set of atomic counters, one observer, one metrics
// bundle.
type meterCore struct {
	backend string
	start   time.Time
	obs     Observer // may be nil
	met     *Metrics // may be nil
	total   int64    // planned grid positions over the whole run
	reps    int      // datasets in the batch (0 = single scan)

	done     atomic.Int64
	scores   atomic.Int64
	r2       atomic.Int64
	repsDone atomic.Int64
}

// Meter accumulates scan progress lock-free and fans it out to an
// Observer and a Metrics bundle. A nil *Meter is a valid no-op
// receiver — engine loops call its methods unconditionally and pay one
// nil check when observability is off.
type Meter struct {
	c *meterCore
	// replicate is this meter's dataset index (-1 outside a batch).
	replicate int
	// scanUnit marks meters that represent one scan for the lifecycle
	// metrics (a batch parent is not itself a scan).
	scanUnit bool
}

// NewMeter starts metering a single scan of gridTotal positions on a
// backend. Either observer or metrics may be nil; if both are nil,
// callers should pass a nil *Meter instead and skip all bookkeeping.
func NewMeter(backend string, gridTotal int, o Observer, met *Metrics) *Meter {
	m := &Meter{
		c: &meterCore{
			backend: backend, start: time.Now(),
			obs: o, met: met, total: int64(gridTotal),
		},
		replicate: -1,
		scanUnit:  true,
	}
	if met != nil {
		met.ScansInFlight.Add(1)
	}
	return m
}

// NewBatchMeter starts metering a batch run: gridTotal positions over
// replicates datasets. The parent is not a scan unit itself; obtain a
// child per dataset with Replicate.
func NewBatchMeter(backend string, gridTotal, replicates int, o Observer, met *Metrics) *Meter {
	m := NewMeter(backend, gridTotal, o, met)
	m.scanUnit = false
	m.c.reps = replicates
	if met != nil {
		met.ScansInFlight.Add(-1) // undo the single-scan accounting
	}
	return m
}

// Replicate returns a child meter for one dataset of a batch. The
// child shares the parent's counters, observer, and metrics; its Done
// marks one replicate finished.
func (m *Meter) Replicate(index int) *Meter {
	if m == nil {
		return nil
	}
	child := &Meter{c: m.c, replicate: index, scanUnit: true}
	if m.c.met != nil {
		m.c.met.ScansInFlight.Add(1)
	}
	return child
}

// Snapshot assembles a Progress view of the current counters.
func (m *Meter) Snapshot() Progress {
	if m == nil {
		return Progress{}
	}
	c := m.c
	done := c.done.Load()
	elapsed := time.Since(c.start)
	p := Progress{
		Backend:         c.backend,
		Replicate:       m.replicate,
		GridDone:        done,
		GridTotal:       c.total,
		OmegaScores:     c.scores.Load(),
		R2Computed:      c.r2.Load(),
		ReplicatesDone:  int(c.repsDone.Load()),
		ReplicatesTotal: c.reps,
		Elapsed:         elapsed,
	}
	if s := elapsed.Seconds(); s > 0 {
		p.OmegaPerSec = float64(p.OmegaScores) / s
	}
	if done > 0 && c.total > done {
		p.ETA = time.Duration(float64(elapsed) / float64(done) * float64(c.total-done))
	}
	return p
}

// emit publishes the current snapshot to the observer.
func (m *Meter) emit() {
	if m.c.obs != nil {
		m.c.obs.OnProgress(m.Snapshot())
	}
}

// Tick records one completed grid position with its fresh work deltas
// and emits a Progress event.
func (m *Meter) Tick(scores, r2 int64) {
	if m == nil {
		return
	}
	c := m.c
	c.done.Add(1)
	if scores > 0 {
		c.scores.Add(scores)
	}
	if r2 > 0 {
		c.r2.Add(r2)
	}
	if c.met != nil {
		c.met.GridPositions.Inc()
		c.met.OmegaScores.Add(scores)
		c.met.R2Computed.Add(r2)
	}
	m.emit()
}

// AddR2 records r² progress that is not tied to a finished grid
// position (the snapshot scheduler's producer advances LD ahead of the
// ω workers) and emits a Progress event.
func (m *Meter) AddR2(n int64) {
	if m == nil || n <= 0 {
		return
	}
	m.c.r2.Add(n)
	if m.c.met != nil {
		m.c.met.R2Computed.Add(n)
	}
	m.emit()
}

// Span records one completed phase of work: it feeds the per-phase
// duration histogram and forwards a Phase event to the observer. args
// may be nil (and should be, on per-region hot paths).
func (m *Meter) Span(name string, track int, start time.Time, d time.Duration, modeled bool, args map[string]any) {
	if m == nil {
		return
	}
	c := m.c
	if c.met != nil {
		c.met.PhaseHistogram(name).ObserveDuration(d)
	}
	if c.obs != nil {
		c.obs.OnPhase(Phase{
			Backend: c.backend, Name: name, Track: track,
			Start: start, Duration: d, Modeled: modeled, Args: args,
		})
	}
}

// Done marks this meter's scan unit finished (err non-nil = failed,
// cancellation included), updates the lifecycle metrics, and emits a
// final Progress event.
func (m *Meter) Done(err error) {
	if m == nil {
		return
	}
	c := m.c
	if m.scanUnit {
		c.repsDone.Add(1)
		if c.met != nil {
			c.met.Scans.Inc()
			c.met.ScansInFlight.Add(-1)
			if err != nil {
				c.met.ScanFailures.Inc()
			}
		}
	}
	m.emit()
}
