package fpga

import (
	"fmt"
	"time"

	"omegago/internal/ld"
	"omegago/internal/omega"
	"omegago/internal/seqio"
)

// ScheduledReport is the outcome of a scan dispatched across several
// accelerator cards by an iterative host scheduler, the execution style
// of Alachiotis & Weisz (§III of the paper): the host walks the grid
// and hands each position to the least-loaded card.
type ScheduledReport struct {
	Results []omega.Result
	// PerCardSeconds is the modeled busy time of each card.
	PerCardSeconds []float64
	// PerCardPositions counts the grid positions each card executed.
	PerCardPositions []int
	// MakespanSeconds is the modeled ω-phase wall time: the busiest
	// card's total (host LD/DP time is serial and excluded here).
	MakespanSeconds float64
	// SoftwareSeconds aggregates the host remainder iterations.
	SoftwareSeconds float64
	LDSeconds       float64
	OmegaScores     int64
	WallSeconds     float64
}

// ScanScheduled runs the full sweep scan with the ω workload load-
// balanced across `cards` (all the same device profile). Results are
// identical to the single-card scan; only the cost model changes — the
// makespan approaches HardwareSeconds/len(cards) when per-position
// workloads are even.
func ScanScheduled(cards []Device, a *seqio.Alignment, p omega.Params, opts Options) (*ScheduledReport, error) {
	if len(cards) == 0 {
		return nil, fmt.Errorf("fpga: no cards to schedule on")
	}
	p = p.WithDefaults()
	regions, err := omega.BuildRegions(a, p)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	comp := ld.NewComputer(a, ld.Direct, 1)
	sc := omega.NewScratch(a, p)
	m := omega.NewDPMatrixScratch(comp, sc)
	rep := &ScheduledReport{
		Results:          make([]omega.Result, 0, len(regions)),
		PerCardSeconds:   make([]float64, len(cards)),
		PerCardPositions: make([]int, len(cards)),
	}
	for _, reg := range regions {
		if reg.Skipped() {
			rep.Results = append(rep.Results, omega.Result{GridIndex: reg.Index, Center: reg.Center})
			continue
		}
		before := m.R2Computed()
		m.Advance(reg.Lo, reg.Hi)
		rep.LDSeconds += ModelLDSeconds(cards[0], m.R2Computed()-before, a.Samples())

		in := sc.BuildKernelInput(m, reg, p)
		if in == nil {
			rep.Results = append(rep.Results, omega.Result{GridIndex: reg.Index, Center: reg.Center})
			continue
		}
		// Least-loaded-first dispatch.
		card := 0
		for c := 1; c < len(cards); c++ {
			if rep.PerCardSeconds[c] < rep.PerCardSeconds[card] {
				card = c
			}
		}
		res, lr := LaunchOmega(cards[card], in, a, opts)
		rep.Results = append(rep.Results, res)
		rep.PerCardSeconds[card] += lr.HardwareSeconds
		rep.PerCardPositions[card]++
		rep.SoftwareSeconds += lr.SoftwareSeconds
		rep.OmegaScores += res.Scores
	}
	for _, s := range rep.PerCardSeconds {
		if s > rep.MakespanSeconds {
			rep.MakespanSeconds = s
		}
	}
	rep.WallSeconds = time.Since(t0).Seconds()
	return rep, nil
}
