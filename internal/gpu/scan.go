package gpu

import (
	"context"
	"time"

	"omegago/internal/devmodel"
	"omegago/internal/ld"
	"omegago/internal/obs"
	"omegago/internal/omega"
	"omegago/internal/seqio"
)

// ModelLDSeconds estimates the device + transfer time of computing
// `pairs` LD values over `samples` sequences with the GEMM kernel
// (BLIS kernel on the device, Binder et al.): 2·samples FLOPs per pair
// at a saturating efficiency, the packed SNP rows and the count matrix
// crossing PCIe, plus one launch latency. Efficiency factors come from
// the embedded default calibration; calibrated scans price the phase
// through their scan-level model instead.
func ModelLDSeconds(d Device, pairs int64, newRows, windowRows, samples int) float64 {
	m := devmodel.NewGPUModel(d.Spec(), nil)
	return m.EstimatePhase(devmodel.PhaseLD, devmodel.Work{
		Pairs:      pairs,
		Samples:    samples,
		NewRows:    newRows,
		WindowRows: windowRows,
	}, 0)
}

// ScanReport is the outcome of a full GPU-accelerated sweep scan
// (Fig. 3 workflow: GEMM LD on the device, DP update of M on the host,
// ω kernels on the device).
type ScanReport struct {
	Results []omega.Result

	// Functional counters.
	OmegaScores      int64
	R2Computed       int64
	R2Reused         int64
	KernelILaunches  int
	KernelIILaunches int
	OrderSwitches    int
	BytesTransferred int64

	// Modeled accelerator cost (seconds).
	LDSeconds            float64 // GEMM kernel + transfers
	OmegaKernelSeconds   float64
	OmegaPrepSeconds     float64
	OmegaTransferSeconds float64

	// WallSeconds is the measured host wall-clock of the simulation run
	// (functional work; not a performance claim about a real GPU).
	WallSeconds float64
}

// OmegaSeconds is the total modeled cost of the ω phase. When the scan
// ran with OverlapTransfers, the PCIe time hidden behind kernel
// execution is already excluded from OmegaTransferSeconds.
func (r *ScanReport) OmegaSeconds() float64 {
	return r.OmegaKernelSeconds + r.OmegaPrepSeconds + r.OmegaTransferSeconds
}

// TotalSeconds is the total modeled accelerator time (LD + ω).
func (r *ScanReport) TotalSeconds() float64 { return r.LDSeconds + r.OmegaSeconds() }

// ScanCtx runs the complete GPU-accelerated OmegaPlus workflow on the
// simulated device. The grid loop checks ctx before dispatching each
// position's LD GEMM and ω kernel, so a cancelled or expired context
// aborts the scan within one grid position of work and returns
// ctx.Err().
func ScanCtx(ctx context.Context, d Device, kind Kind, a *seqio.Alignment, p omega.Params, opts Options) (*ScanReport, error) {
	p = p.WithDefaults()
	regions, err := omega.BuildRegions(a, p)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	model := devmodel.NewGPUModel(d.Spec(), opts.Calibration)
	comp := ld.NewComputer(a, ld.GEMM, maxInt(1, opts.Workers))
	// One scratch per scan: the packed kernel-input buffers and the DP
	// row arena are reused across grid positions instead of rebuilding
	// KernelInput from fresh allocations per position (each launch
	// consumes its input fully before the next position is packed).
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
		// LD phase: the DP extension computes r² for entering SNPs via
		// the GEMM engine; its device time is modeled from the fresh
		// pair count.
		before := m.R2Computed()
		newRows := reg.Hi - m.Hi()
		if m.Lo() > reg.Lo {
			newRows = reg.Hi - reg.Lo + 1
		}
		m.Advance(reg.Lo, reg.Hi)
		pairs := m.R2Computed() - before
		ldSec := model.EstimatePhase(devmodel.PhaseLD, devmodel.Work{
			Pairs:      pairs,
			Samples:    a.Samples(),
			NewRows:    newRows,
			WindowRows: reg.Hi - reg.Lo + 1,
		}, 0)
		rep.LDSeconds += ldSec
		mt.Span(obs.PhaseLD, 0, regStart, time.Duration(ldSec*float64(time.Second)), true, nil)

		// ω phase: pack buffers (host, scratch-backed), transfer, launch.
		in := sc.BuildKernelInput(m, reg, p)
		if in == nil {
			rep.Results = append(rep.Results, omega.Result{GridIndex: reg.Index, Center: reg.Center})
			mt.Tick(0, pairs)
			continue
		}
		o := opts
		windowSNPs := int64(reg.Hi - reg.Lo + 1)
		o.PrepWorkingSetBytes = in.Bytes() + windowSNPs*windowSNPs*4 // buffers + triangular M
		omegaStart := time.Now()
		res, lr := LaunchOmega(d, kind, in, a, o)
		mt.Span(obs.PhaseOmega, 0, omegaStart, time.Duration(lr.TotalSeconds()*float64(time.Second)), true, map[string]any{
			"kernel": lr.Kind.String(),
		})
		mt.Tick(lr.Omegas, pairs)
		rep.Results = append(rep.Results, res)
		rep.OmegaScores += lr.Omegas
		rep.BytesTransferred += lr.Bytes
		rep.OmegaKernelSeconds += lr.KernelSeconds
		rep.OmegaPrepSeconds += lr.PrepSeconds
		if opts.OverlapTransfers {
			// Double buffering hides PCIe time behind the kernel; only
			// the excess is exposed on the critical path.
			if exposed := lr.TransferSeconds - lr.KernelSeconds; exposed > 0 {
				rep.OmegaTransferSeconds += exposed
			}
		} else {
			rep.OmegaTransferSeconds += lr.TransferSeconds
		}
		switch lr.Kind {
		case KernelI:
			rep.KernelILaunches++
		case KernelII:
			rep.KernelIILaunches++
		}
		if lr.OrderSwitched {
			rep.OrderSwitches++
		}
	}
	rep.R2Computed = m.R2Computed()
	rep.R2Reused = m.R2Reused()
	rep.WallSeconds = time.Since(t0).Seconds()
	return rep, nil
}
