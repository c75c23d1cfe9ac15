package exec

import (
	"context"
	"fmt"

	"omegago/internal/devmodel"
	"omegago/internal/fpga"
	"omegago/internal/omega"
	"omegago/internal/seqio"
)

func init() { Register(fpgaBackend{}) }

// fpgaBackend runs ω through the simulated HLS pipeline and models the
// companion LD accelerator (§V of the paper).
type fpgaBackend struct{}

func (fpgaBackend) Name() string { return "fpga-sim" }

func (fpgaBackend) Scan(ctx context.Context, a *seqio.Alignment, p omega.Params, opts Options) (*Output, error) {
	if opts.Stream != nil {
		return nil, fmt.Errorf("exec: backend %q does not support streamed input; scan a resident alignment or use the cpu backend", "fpga-sim")
	}
	dev := fpga.AlveoU200
	if opts.FPGADevice != nil {
		dev = *opts.FPGADevice
	}
	fopts := opts.FPGAOpts
	fopts.Meter = opts.Meter
	if opts.Calibration != nil {
		fopts.Calibration = opts.Calibration
	}
	cal := devmodel.Resolve(fopts.Calibration)
	rep, err := fpga.ScanCtx(ctx, dev, a, p, fopts)
	if err != nil {
		return nil, err
	}
	return &Output{
		Results: rep.Results,
		Stats: Stats{
			Grid:           len(rep.Results),
			OmegaScores:    rep.OmegaScores,
			OmegaEvaluated: rep.OmegaScores,
			R2Computed:     rep.R2Computed,
			R2Reused:       rep.R2Reused,
			LDSeconds:      rep.LDSeconds,
			OmegaSeconds:   rep.OmegaSeconds(),
			WallSeconds:    rep.WallSeconds,
			HardwareOmegas: rep.HardwareOmegas,
			SoftwareOmegas: rep.SoftwareOmegas,
			Cycles:         rep.Cycles,
			ModelVersion:   cal.Schema,
			CalibrationID:  cal.ID,
			ModeledBackend: "fpga-sim",
		},
	}, nil
}
