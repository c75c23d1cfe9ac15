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
// simulated device: one serial region-range driver (omega.ScanRange)
// over the whole grid, whose evaluation hook models the LD GEMM from
// each advance's fresh r² and entering rows, packs the region's kernel
// input, launches the ω kernel and adds the modeled seconds and launch
// counters to the report. It stays serial so the modeled time is one
// device's. The driver checks ctx before each grid position, so a
// cancelled or expired context aborts the scan within one grid
// position of work and returns ctx.Err().
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
	mt := opts.Meter
	rep := &ScanReport{Results: make([]omega.Result, len(regions))}
	eval := func(reg omega.Region, m *omega.DPMatrix, pairs int64, newRows int) (omega.Result, bool) {
		// LD phase: the DP extension computed r² for entering SNPs via
		// the GEMM engine; its device time is modeled from the fresh
		// pair count and the rows that cross PCIe.
		ldStart := time.Now()
		ldSec := model.EstimatePhase(devmodel.PhaseLD, devmodel.Work{
			Pairs:      pairs,
			Samples:    a.Samples(),
			NewRows:    newRows,
			WindowRows: reg.Hi - reg.Lo + 1,
		}, 0)
		rep.LDSeconds += ldSec
		mt.Span(obs.PhaseLD, 0, ldStart, time.Duration(ldSec*float64(time.Second)), true, nil)

		// ω phase: pack buffers (host, scratch-backed), transfer, launch.
		in := sc.BuildKernelInput(m, reg, p)
		if in == nil {
			return omega.Result{GridIndex: reg.Index, Center: reg.Center}, true
		}
		o := opts
		windowSNPs := int64(reg.Hi - reg.Lo + 1)
		o.PrepWorkingSetBytes = in.Bytes() + windowSNPs*windowSNPs*4 // buffers + triangular M
		omegaStart := time.Now()
		res, lr := LaunchOmega(d, kind, in, a, o)
		mt.Span(obs.PhaseOmega, 0, omegaStart, time.Duration(lr.TotalSeconds()*float64(time.Second)), true, map[string]any{
			"kernel": lr.Kind.String(),
		})
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
