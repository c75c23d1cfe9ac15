// Package harness regenerates every table and figure of the paper's
// evaluation (Section VI). Each experiment returns a Table — a titled
// grid of formatted cells plus notes — that cmd/benchtables prints and
// the root-level benchmarks drive.
//
// Scaling: the paper's workloads (grid 1000, up to 20,000 SNPs, up to
// 60,000 sequences) run for hours on one core. The harness reproduces
// every experiment at a documented scale factor; all reported metrics
// are size-normalized throughputs (scores/second) or time *fractions*,
// so the shapes — who wins, by what factor, where crossovers fall —
// carry over. Quick mode shrinks further for use inside `go test`.
package harness

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"omegago/internal/devmodel"
	"omegago/internal/ld"
	"omegago/internal/mssim"
	"omegago/internal/omega"
	"omegago/internal/seqio"
	"omegago/internal/viz"
)

// Table is one rendered experiment.
type Table struct {
	ID     string // e.g. "table3", "fig12"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Charts optionally carries the figure's series for terminal
	// plotting (figures only; tables leave it empty).
	Charts []viz.Series
}

// RenderCharts plots the figure series, if any.
func (t *Table) RenderCharts() string {
	if len(t.Charts) == 0 {
		return ""
	}
	return viz.Plot(t.Title, t.Charts, 64, 14)
}

// Render formats the table as aligned plain text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", strings.ToUpper(t.ID), t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for i := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", widths[i]))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Workload is a dataset specification for the §VI.D experiments.
type Workload struct {
	Name      string
	SNPs      int
	Samples   int
	GridSize  int
	MaxWindow float64 // bp per side over a 1 Mbp region
	Seed      int64
	// PaperSNPs/PaperSamples document the unscaled dataset.
	PaperSNPs, PaperSamples int
}

// Workloads returns the three §VI.D workload distributions. Like the
// paper's runs, windows are unbounded (MaxWindow = 0 → every grid
// position scores every border combination of the whole region), which
// is what makes the FPGA/GPU inner loops long. The datasets are scaled
// so a full run takes seconds instead of hours; the LD/ω execution-time
// split classes (≈50/50, LD-light ≈10%, LD-heavy ≈90%) are preserved
// and asserted by tests.
func Workloads(quick bool) []Workload {
	scale := 1
	if quick {
		scale = 2
	}
	return []Workload{
		{
			Name: "balanced (50/50)", Seed: 101,
			SNPs: 3600 / scale, Samples: 400 / scale,
			GridSize: 8, MaxWindow: 0,
			PaperSNPs: 13000, PaperSamples: 7000,
		},
		{
			Name: "high-omega (90/10)", Seed: 102,
			SNPs: 4000 / scale, Samples: 50,
			GridSize: 24 / scale, MaxWindow: 0,
			PaperSNPs: 15000, PaperSamples: 500,
		},
		{
			Name: "high-LD (10/90)", Seed: 103,
			SNPs: 1000 / scale, Samples: 20000 / scale,
			GridSize: 10 / scale, MaxWindow: 0,
			PaperSNPs: 5000, PaperSamples: 60000,
		},
	}
}

// RegionBP is the simulated region length for all harness datasets.
const RegionBP = 1e6

var (
	dsCacheMu sync.Mutex
	dsCache   = map[string]*seqio.Alignment{}
)

// Dataset simulates (and caches) a neutral dataset.
func Dataset(snps, samples int, seed int64) (*seqio.Alignment, error) {
	key := fmt.Sprintf("%d/%d/%d", snps, samples, seed)
	dsCacheMu.Lock()
	defer dsCacheMu.Unlock()
	if a, ok := dsCache[key]; ok {
		return a, nil
	}
	reps, err := mssim.Simulate(mssim.Config{
		SampleSize: samples, Replicates: 1, SegSites: snps, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	a, err := reps[0].ToAlignment(RegionBP)
	if err != nil {
		return nil, err
	}
	dsCache[key] = a
	return a, nil
}

// Params returns the scan parameters of a workload. The harness pins
// the scalar reference kernel: its CPU column reproduces the paper's
// serial OmegaPlus loop, and letting the auto kernel swap in the faster
// blocked implementation would skew every speedup ratio against the
// modeled accelerators.
func (w Workload) Params() omega.Params {
	return omega.Params{GridSize: w.GridSize, MaxWindow: w.MaxWindow, Kernel: omega.KernelScalar}
}

// Alignment simulates the workload's dataset.
func (w Workload) Alignment() (*seqio.Alignment, error) {
	return Dataset(w.SNPs, w.Samples, w.Seed)
}

var (
	calOnce  sync.Once
	calOmega float64
	calLDns  float64
)

// CalibrateCPUOmega measures the single-core ω scoring cost (seconds per
// score) of this host, used as the software-remainder cost in the FPGA
// model and as the CPU column of the throughput tables.
func CalibrateCPUOmega() float64 {
	calibrate()
	return calOmega
}

// CalibrateCPULDNsPerWord measures the single-core popcount-LD cost in
// nanoseconds per 64-bit word pair.
func CalibrateCPULDNsPerWord() float64 {
	calibrate()
	return calLDns
}

func calibrate() {
	calOnce.Do(func() {
		a, err := Dataset(400, 256, 999)
		if err != nil {
			panic(fmt.Sprintf("harness: calibration dataset: %v", err))
		}
		// Scalar reference kernel: the calibration models the paper's
		// serial CPU cost per ω score (see Workload.Params).
		p := omega.Params{GridSize: 10, MaxWindow: 200000, Kernel: omega.KernelScalar}.WithDefaults()
		_, st, err := omega.ScanCtx(context.Background(), a, p, ld.Direct)
		if err != nil {
			panic(fmt.Sprintf("harness: calibration scan: %v", err))
		}
		if st.OmegaScores > 0 {
			calOmega = st.OmegaTime.Seconds() / float64(st.OmegaScores)
		}
		words := float64((a.Samples() + 63) / 64)
		if st.R2Computed > 0 {
			calLDns = st.LDTime.Seconds() / float64(st.R2Computed) / words * 1e9
		}
		if calOmega <= 0 {
			calOmega = 1.0 / 70e6
		}
		if calLDns <= 0 {
			calLDns = 1.0
		}
	})
}

// MeasuredCalibration builds a devmodel calibration table whose CPU
// factors are this host's measured kernel rates (pinned-seed dataset,
// scalar reference kernel — the same harness run the throughput tables
// calibrate from). The GPU factors stay at the embedded defaults: they
// parameterize an analytic device model, not a host measurement, and a
// deliberate recalibration edits the written table instead. The caller
// stamps ID/Host/Created; Source documents the split.
func MeasuredCalibration() devmodel.Calibration {
	c := devmodel.Default()
	c.Source = "cpu factors measured by the harness pinned-seed scan; gpu factors carried from the embedded defaults"
	c.CPU.SecondsPerOmega = CalibrateCPUOmega()
	c.CPU.LDNsPerWord = CalibrateCPULDNsPerWord()
	return c
}

// measureCPU runs a serial CPU scan and returns throughputs.
type cpuMeasurement struct {
	Stats        omega.Stats
	OmegaPerSec  float64 // ω scores per second of ω-phase time
	LDPerSec     float64 // r² scores per second of LD-phase time
	TotalSeconds float64
}

func measureCPU(a *seqio.Alignment, p omega.Params, threads int) (cpuMeasurement, []omega.Result, error) {
	t0 := time.Now()
	results, st, err := omega.ScanParallelCtx(context.Background(), a, p, ld.Direct, threads, nil)
	if err != nil {
		return cpuMeasurement{}, nil, err
	}
	wall := time.Since(t0).Seconds()
	m := cpuMeasurement{Stats: st, TotalSeconds: wall}
	if st.OmegaTime > 0 {
		m.OmegaPerSec = float64(st.OmegaScores) / st.OmegaTime.Seconds()
	}
	if st.LDTime > 0 {
		m.LDPerSec = float64(st.R2Computed) / st.LDTime.Seconds()
	}
	return m, results, nil
}
