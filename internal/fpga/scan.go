package fpga

import (
	"context"
	"time"

	"omegago/internal/ld"
	"omegago/internal/obs"
	"omegago/internal/omega"
	"omegago/internal/seqio"
)

// ScanReport is the outcome of a complete FPGA-accelerated sweep scan:
// LD on the companion LD accelerator (modeled after Bozikas et al., as
// the paper does), the DP update of M on the host, and the ω pipeline on
// the FPGA with software remainder iterations.
type ScanReport struct {
	Results []omega.Result

	OmegaScores    int64
	HardwareOmegas int64
	SoftwareOmegas int64
	R2Computed     int64
	R2Reused       int64
	Cycles         int64

	// Modeled seconds.
	LDSeconds       float64
	HardwareSeconds float64
	SoftwareSeconds float64

	// WallSeconds is the measured host time of the functional simulation.
	WallSeconds float64
}

// OmegaSeconds is the modeled ω-phase time.
func (r *ScanReport) OmegaSeconds() float64 { return r.HardwareSeconds + r.SoftwareSeconds }

// TotalSeconds is the modeled end-to-end accelerator time.
func (r *ScanReport) TotalSeconds() float64 { return r.LDSeconds + r.OmegaSeconds() }

// ScanCtx runs the complete FPGA-accelerated OmegaPlus workflow on the
// simulated device: one serial region-range driver (omega.ScanRange)
// over the whole grid, whose evaluation hook models the companion LD
// accelerator from each advance's fresh r², packs the region's kernel
// input, runs it through the ω pipeline and adds the modeled seconds
// and pipeline counters to the report. It stays serial so the modeled
// time is one device's. The driver checks ctx before each grid
// position, so a cancelled or expired context aborts the scan within
// one grid position of work and returns ctx.Err().
func ScanCtx(ctx context.Context, d Device, a *seqio.Alignment, p omega.Params, opts Options) (*ScanReport, error) {
	p = p.WithDefaults()
	regions, err := omega.BuildRegions(a, p)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	comp := ld.NewComputer(a, ld.Direct, 1)
	// One scratch per scan: packed buffers and DP rows are reused across
	// grid positions (the pipeline consumes each input before the next
	// position is packed).
	sc := omega.NewScratch(a, p)
	mt := opts.Meter
	rep := &ScanReport{Results: make([]omega.Result, len(regions))}
	eval := func(reg omega.Region, m *omega.DPMatrix, pairs int64, _ int) (omega.Result, bool) {
		ldStart := time.Now()
		ldSec := ModelLDSeconds(d, pairs, a.Samples())
		rep.LDSeconds += ldSec
		mt.Span(obs.PhaseLD, 0, ldStart, time.Duration(ldSec*float64(time.Second)), true, nil)

		in := sc.BuildKernelInput(m, reg, p)
		if in == nil {
			return omega.Result{GridIndex: reg.Index, Center: reg.Center}, true
		}
		omegaStart := time.Now()
		res, lr := LaunchOmega(d, in, a, opts)
		mt.Span(obs.PhaseOmega, 0, omegaStart, time.Duration(lr.TotalSeconds()*float64(time.Second)), true, map[string]any{
			"unroll_factor": lr.UnrollFactor,
		})
		rep.HardwareOmegas += lr.HardwareOmegas
		rep.SoftwareOmegas += lr.SoftwareOmegas
		rep.Cycles += lr.Cycles
		rep.HardwareSeconds += lr.HardwareSeconds
		rep.SoftwareSeconds += lr.SoftwareSeconds
		return res, true
	}
	st, err := omega.ScanRange(ctx, omega.NewDPMatrixScratch(comp, sc),
		omega.Range{Regions: regions, Hi: len(regions), Out: rep.Results, Meter: mt, Modeled: true}, eval)
	if err != nil {
		return nil, err
	}
	rep.OmegaScores = st.OmegaScores
	rep.R2Computed = st.R2Computed
	rep.R2Reused = st.R2Reused
	rep.WallSeconds = time.Since(t0).Seconds()
	return rep, nil
}
