// Package power measures the statistical power of sweep detectors — the
// methodology of Crisci et al. that motivates the paper's choice of the
// LD-based ω statistic ("OmegaPlus performs best in terms of power to
// reject the neutral model"). A study simulates matched neutral and
// sweep replicates, summarizes each replicate with a detector statistic
// (max ω, or −min Tajima's D), fixes the detection threshold at a false
// positive rate on the neutral distribution, and reports the fraction
// of sweep replicates detected.
package power

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"omegago/internal/ihs"
	"omegago/internal/ld"
	"omegago/internal/mssim"
	"omegago/internal/omega"
	"omegago/internal/seqio"
	"omegago/internal/sfs"
)

// ErrNoScores reports a threshold or power computation over an empty
// score slice — there is no quantile of nothing, and a power of 0/0 is
// not a power of zero. Callers that can tolerate an empty arm must
// check errors.Is(err, ErrNoScores) rather than rely on a silent
// default.
var ErrNoScores = errors.New("power: no scores")

// Statistic selects the per-replicate detector summary.
type Statistic int

const (
	// MaxOmega is the LD-based detector: the maximum ω over the grid.
	MaxOmega Statistic = iota
	// MinTajimaD is the SFS-based detector, sign-flipped (−min D) so
	// that larger always means more sweep-like.
	MinTajimaD
	// MaxAbsIHS is the haplotype-based detector: the largest |iHS|
	// (Voight et al.), the other LD-family method of the paper's
	// background.
	MaxAbsIHS
)

// String implements fmt.Stringer.
func (s Statistic) String() string {
	switch s {
	case MaxOmega:
		return "max-omega"
	case MinTajimaD:
		return "min-tajima-d"
	case MaxAbsIHS:
		return "max-abs-ihs"
	default:
		return fmt.Sprintf("Statistic(%d)", int(s))
	}
}

// Study configures a power analysis.
type Study struct {
	// Base is the neutral simulation model (Sweep must be nil); the
	// sweep arm adds SweepModel on top of the same parameters.
	Base       mssim.Config
	SweepModel mssim.SweepConfig
	// Replicates per arm.
	Replicates int
	// RegionBP scales ms positions to base pairs.
	RegionBP float64
	// Params configures the scan grid shared by both detectors
	// (MaxWindow doubles as the SFS window).
	Params omega.Params
}

// Validate checks the study setup.
func (s Study) Validate() error {
	if s.Base.Sweep != nil {
		return fmt.Errorf("power: Base must be neutral (set SweepModel instead)")
	}
	if s.Replicates < 2 {
		return fmt.Errorf("power: need ≥ 2 replicates per arm, got %d", s.Replicates)
	}
	if s.RegionBP <= 0 {
		return fmt.Errorf("power: non-positive region length %g", s.RegionBP)
	}
	base := s.Base
	base.Replicates = 1
	return base.Validate()
}

// Statistics simulates `Replicates` datasets from cfg and returns the
// chosen summary statistic per replicate. Replicates whose scan yields
// no valid window score −Inf (never detected).
func (s Study) Statistics(cfg mssim.Config, stat Statistic) ([]float64, error) {
	cfg.Replicates = s.Replicates
	reps, err := mssim.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(reps))
	for _, rep := range reps {
		if rep.SegSites == 0 {
			out = append(out, math.Inf(-1))
			continue
		}
		a, err := rep.ToAlignment(s.RegionBP)
		if err != nil {
			return nil, err
		}
		switch stat {
		case MaxOmega:
			results, _, err := omega.ScanCtx(context.Background(), a, s.Params, ld.Direct)
			if err != nil {
				return nil, err
			}
			if best, ok := omega.MaxResult(results); ok {
				out = append(out, best.MaxOmega)
			} else {
				out = append(out, math.Inf(-1))
			}
		case MinTajimaD:
			p := s.Params.WithDefaults()
			maxw := p.MaxWindow
			if math.IsInf(maxw, 1) {
				maxw = 0
			}
			ws, err := sfs.Scan(a, p.GridSize, maxw)
			if err != nil {
				return nil, err
			}
			minD := math.Inf(1)
			seen := false
			for _, w := range ws {
				if w.SegSites > 0 && w.TajimaD < minD {
					minD = w.TajimaD
					seen = true
				}
			}
			if seen {
				out = append(out, -minD)
			} else {
				out = append(out, math.Inf(-1))
			}
		case MaxAbsIHS:
			scores, err := ihs.Compute(a, ihs.Params{})
			if err != nil {
				return nil, err
			}
			if best, ok := ihs.MaxAbs(scores); ok {
				out = append(out, math.Abs(best.IHS))
			} else {
				out = append(out, math.Inf(-1))
			}
		default:
			return nil, fmt.Errorf("power: unknown statistic %v", stat)
		}
	}
	return out, nil
}

// Result holds one detector's power analysis.
type Result struct {
	Statistic Statistic
	Threshold float64 // detection threshold at the requested FPR
	FPR       float64 // requested false positive rate
	Power     float64 // fraction of sweep replicates above threshold
	AUC       float64 // area under the ROC curve
	Neutral   []float64
	Sweep     []float64
}

// Run executes the study for one detector at the given false positive
// rate. Seeds are offset between arms so neutral and sweep replicates
// are independent.
func (s Study) Run(stat Statistic, fpr float64) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if fpr <= 0 || fpr >= 1 {
		return nil, fmt.Errorf("power: FPR %g outside (0,1)", fpr)
	}
	neutralCfg := s.Base
	sweepCfg := s.Base
	sweepCfg.Seed += 1_000_003 // decorrelate the arms
	sw := s.SweepModel
	sweepCfg.Sweep = &sw

	neutral, err := s.Statistics(neutralCfg, stat)
	if err != nil {
		return nil, err
	}
	sweep, err := s.Statistics(sweepCfg, stat)
	if err != nil {
		return nil, err
	}
	thr, err := Threshold(neutral, fpr)
	if err != nil {
		return nil, err
	}
	pw, err := Power(sweep, thr)
	if err != nil {
		return nil, err
	}
	return &Result{
		Statistic: stat,
		Threshold: thr,
		FPR:       fpr,
		Power:     pw,
		AUC:       AUC(neutral, sweep),
		Neutral:   neutral,
		Sweep:     sweep,
	}, nil
}

// Localization simulates the sweep arm and returns the mean and median
// absolute distance (bp) between each replicate's detector argmax and
// the true sweep site. Sweeps that leave no scorable window are skipped.
// This is where the ω statistic's practical advantage shows: under a
// strong sweep both detectors fire, but ω pinpoints the selected site
// far more precisely (Kim & Nielsen's original motivation).
func (s Study) Localization(stat Statistic) (meanBP, medianBP float64, err error) {
	if err := s.Validate(); err != nil {
		return 0, 0, err
	}
	cfg := s.Base
	cfg.Seed += 2_000_029
	sw := s.SweepModel
	cfg.Sweep = &sw
	cfg.Replicates = s.Replicates
	reps, err := mssim.Simulate(cfg)
	if err != nil {
		return 0, 0, err
	}
	trueSite := s.SweepModel.Position * s.RegionBP
	var errs []float64
	for _, rep := range reps {
		if rep.SegSites == 0 {
			continue
		}
		a, aerr := rep.ToAlignment(s.RegionBP)
		if aerr != nil {
			return 0, 0, aerr
		}
		center, ok, serr := s.argmax(a, stat)
		if serr != nil {
			return 0, 0, serr
		}
		if !ok {
			continue
		}
		errs = append(errs, math.Abs(center-trueSite))
	}
	if len(errs) == 0 {
		return 0, 0, fmt.Errorf("power: no replicate produced a detector argmax")
	}
	sum := 0.0
	for _, e := range errs {
		sum += e
	}
	sort.Float64s(errs)
	return sum / float64(len(errs)), errs[len(errs)/2], nil
}

// argmax returns the grid position where the detector is most
// sweep-like.
func (s Study) argmax(a *seqio.Alignment, stat Statistic) (float64, bool, error) {
	switch stat {
	case MaxOmega:
		results, _, err := omega.ScanCtx(context.Background(), a, s.Params, ld.Direct)
		if err != nil {
			return 0, false, err
		}
		best, ok := omega.MaxResult(results)
		return best.Center, ok, nil
	case MinTajimaD:
		p := s.Params.WithDefaults()
		maxw := p.MaxWindow
		if math.IsInf(maxw, 1) {
			maxw = 0
		}
		ws, err := sfs.Scan(a, p.GridSize, maxw)
		if err != nil {
			return 0, false, err
		}
		best, ok := sfs.MinD(ws)
		return best.Center, ok, nil
	case MaxAbsIHS:
		scores, err := ihs.Compute(a, ihs.Params{})
		if err != nil {
			return 0, false, err
		}
		best, ok := ihs.MaxAbs(scores)
		return best.Position, ok, nil
	default:
		return 0, false, fmt.Errorf("power: unknown statistic %v", stat)
	}
}

// Threshold returns the (1−fpr) quantile of the neutral statistic — the
// smallest cutoff whose neutral exceedance rate is at most fpr. An
// empty neutral arm has no quantile: it returns ErrNoScores (the old
// behavior was an index panic).
func Threshold(neutral []float64, fpr float64) (float64, error) {
	if len(neutral) == 0 {
		return 0, fmt.Errorf("%w: empty neutral arm, cannot fix a threshold", ErrNoScores)
	}
	if fpr <= 0 || fpr >= 1 {
		return 0, fmt.Errorf("power: FPR %g outside (0,1)", fpr)
	}
	sorted := append([]float64(nil), neutral...)
	sort.Float64s(sorted)
	k := int(math.Ceil(float64(len(sorted)) * (1 - fpr)))
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	if k < 0 {
		k = 0
	}
	return sorted[k], nil
}

// Power returns the fraction of sweep statistics strictly above the
// threshold. An empty sweep arm is an ErrNoScores error, not a power of
// zero (the old behavior silently returned 0, indistinguishable from a
// genuinely powerless detector).
func Power(sweep []float64, threshold float64) (float64, error) {
	if len(sweep) == 0 {
		return 0, fmt.Errorf("%w: empty sweep arm, power undefined", ErrNoScores)
	}
	hits := 0
	for _, v := range sweep {
		if v > threshold {
			hits++
		}
	}
	return float64(hits) / float64(len(sweep)), nil
}

// AUC computes the area under the ROC curve via the Mann–Whitney
// statistic: P(sweep > neutral) + ½·P(tie).
func AUC(neutral, sweep []float64) float64 {
	if len(neutral) == 0 || len(sweep) == 0 {
		return 0
	}
	wins, ties := 0.0, 0.0
	for _, sv := range sweep {
		for _, nv := range neutral {
			switch {
			case sv > nv:
				wins++
			case sv == nv:
				ties++
			}
		}
	}
	return (wins + ties/2) / float64(len(neutral)*len(sweep))
}
