package exec

import (
	"context"
	"fmt"

	"omegago/internal/devmodel"
	"omegago/internal/gpu"
	"omegago/internal/omega"
	"omegago/internal/seqio"
)

func init() { Register(gpuBackend{}) }

// gpuBackend runs LD as GEMM and ω as the two-kernel OpenCL design on a
// simulated GPU device (§IV of the paper).
type gpuBackend struct{}

func (gpuBackend) Name() string { return "gpu-sim" }

func (gpuBackend) Scan(ctx context.Context, a *seqio.Alignment, p omega.Params, opts Options) (*Output, error) {
	if opts.Stream != nil {
		return nil, fmt.Errorf("exec: backend %q does not support streamed input; scan a resident alignment or use the cpu backend", "gpu-sim")
	}
	dev := gpu.TeslaK80
	if opts.GPUDevice != nil {
		dev = *opts.GPUDevice
	}
	gopts := opts.GPUOpts
	gopts.Workers = opts.Threads
	gopts.Meter = opts.Meter
	if opts.Calibration != nil {
		gopts.Calibration = opts.Calibration
	}
	cal := devmodel.Resolve(gopts.Calibration)
	rep, err := gpu.ScanCtx(ctx, dev, opts.GPUKernel, a, p, gopts)
	if err != nil {
		return nil, err
	}
	return &Output{
		Results: rep.Results,
		Stats: Stats{
			Grid:             len(rep.Results),
			OmegaScores:      rep.OmegaScores,
			OmegaEvaluated:   rep.OmegaScores,
			R2Computed:       rep.R2Computed,
			R2Reused:         rep.R2Reused,
			LDSeconds:        rep.LDSeconds,
			OmegaSeconds:     rep.OmegaSeconds(),
			WallSeconds:      rep.WallSeconds,
			KernelILaunches:  rep.KernelILaunches,
			KernelIILaunches: rep.KernelIILaunches,
			OrderSwitches:    rep.OrderSwitches,
			BytesTransferred: rep.BytesTransferred,
			ModelVersion:     cal.Schema,
			CalibrationID:    cal.ID,
			ModeledBackend:   "gpu-sim",
		},
	}, nil
}
