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
// simulated device. The grid loop checks ctx before dispatching each
// position's LD batch and ω pipeline run, so a cancelled or expired
// context aborts the scan within one grid position of work and returns
// ctx.Err().
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
	m := omega.NewDPMatrixScratch(comp, sc)
	mt := opts.Meter
	rep := &ScanReport{Results: make([]omega.Result, 0, len(regions))}
	for _, reg := range regions {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if reg.Skipped() {
			rep.Results = append(rep.Results, omega.Result{GridIndex: reg.Index, Center: reg.Center})
			mt.Tick(0, 0)
			continue
		}
		regStart := time.Now()
		before := m.R2Computed()
		m.Advance(reg.Lo, reg.Hi)
		pairs := m.R2Computed() - before
		ldSec := ModelLDSeconds(d, pairs, a.Samples())
		rep.LDSeconds += ldSec
		mt.Span(obs.PhaseLD, 0, regStart, time.Duration(ldSec*float64(time.Second)), true, nil)

		in := sc.BuildKernelInput(m, reg, p)
		if in == nil {
			rep.Results = append(rep.Results, omega.Result{GridIndex: reg.Index, Center: reg.Center})
			mt.Tick(0, pairs)
			continue
		}
		omegaStart := time.Now()
		res, lr := LaunchOmega(d, in, a, opts)
		mt.Span(obs.PhaseOmega, 0, omegaStart, time.Duration(lr.TotalSeconds()*float64(time.Second)), true, map[string]any{
			"unroll_factor": lr.UnrollFactor,
		})
		mt.Tick(res.Scores, pairs)
		rep.Results = append(rep.Results, res)
		rep.OmegaScores += res.Scores
		rep.HardwareOmegas += lr.HardwareOmegas
		rep.SoftwareOmegas += lr.SoftwareOmegas
		rep.Cycles += lr.Cycles
		rep.HardwareSeconds += lr.HardwareSeconds
		rep.SoftwareSeconds += lr.SoftwareSeconds
	}
	rep.R2Computed = m.R2Computed()
	rep.R2Reused = m.R2Reused()
	rep.WallSeconds = time.Since(t0).Seconds()
	return rep, nil
}
