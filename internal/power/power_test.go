package power

import (
	"errors"
	"math"
	"strings"
	"testing"

	"omegago/internal/mssim"
	"omegago/internal/omega"
)

func studyForTest() Study {
	return Study{
		Base: mssim.Config{
			SampleSize: 25, SegSites: 200, Rho: 80, Seed: 77,
		},
		SweepModel: mssim.SweepConfig{Position: 0.5, Alpha: 1500},
		Replicates: 20,
		RegionBP:   200000,
		Params:     omega.Params{GridSize: 12, MinWindow: 5000, MaxWindow: 40000},
	}
}

func TestValidate(t *testing.T) {
	s := studyForTest()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := s
	bad.Base.Sweep = &mssim.SweepConfig{Position: 0.5, Alpha: 100}
	if err := bad.Validate(); err == nil {
		t.Error("non-neutral base should fail")
	}
	bad = s
	bad.Replicates = 1
	if err := bad.Validate(); err == nil {
		t.Error("single replicate should fail")
	}
	bad = s
	bad.RegionBP = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero region should fail")
	}
}

func TestThresholdAndPower(t *testing.T) {
	neutral := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	thresholdCases := []struct {
		name    string
		neutral []float64
		fpr     float64
		want    float64
		wantErr error
	}{
		{name: "fpr 0.1", neutral: neutral, fpr: 0.1, want: 10},
		{name: "fpr 0.3", neutral: neutral, fpr: 0.3, want: 8},
		{name: "single score", neutral: []float64{5}, fpr: 0.2, want: 5},
		{name: "empty arm", neutral: nil, fpr: 0.1, wantErr: ErrNoScores},
		{name: "empty non-nil arm", neutral: []float64{}, fpr: 0.1, wantErr: ErrNoScores},
		{name: "fpr zero", neutral: neutral, fpr: 0, wantErr: errAny},
		{name: "fpr one", neutral: neutral, fpr: 1, wantErr: errAny},
	}
	for _, tc := range thresholdCases {
		thr, err := Threshold(tc.neutral, tc.fpr)
		if tc.wantErr != nil {
			if err == nil {
				t.Errorf("Threshold(%s): want error, got %g", tc.name, thr)
			} else if tc.wantErr != errAny && !errors.Is(err, tc.wantErr) {
				t.Errorf("Threshold(%s): error %v does not wrap %v", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("Threshold(%s): %v", tc.name, err)
		} else if thr != tc.want {
			t.Errorf("Threshold(%s) = %g, want %g", tc.name, thr, tc.want)
		}
	}

	powerCases := []struct {
		name      string
		sweep     []float64
		threshold float64
		want      float64
		wantErr   error
	}{
		{name: "two of three", sweep: []float64{9, 11, 12}, threshold: 10, want: 2.0 / 3},
		{name: "none detected", sweep: []float64{1, 2}, threshold: 10, want: 0},
		{name: "all detected", sweep: []float64{11, 12}, threshold: 10, want: 1},
		{name: "empty arm", sweep: nil, threshold: 1, wantErr: ErrNoScores},
		{name: "empty non-nil arm", sweep: []float64{}, threshold: 1, wantErr: ErrNoScores},
	}
	for _, tc := range powerCases {
		p, err := Power(tc.sweep, tc.threshold)
		if tc.wantErr != nil {
			if err == nil {
				t.Errorf("Power(%s): want error, got %g", tc.name, p)
			} else if !errors.Is(err, tc.wantErr) {
				t.Errorf("Power(%s): error %v does not wrap %v", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("Power(%s): %v", tc.name, err)
		} else if math.Abs(p-tc.want) > 1e-12 {
			t.Errorf("Power(%s) = %g, want %g", tc.name, p, tc.want)
		}
	}
}

// errAny marks table rows that want any error, sentinel unspecified.
var errAny = errors.New("any error")

func TestAUC(t *testing.T) {
	// Perfect separation.
	if auc := AUC([]float64{1, 2}, []float64{3, 4}); auc != 1 {
		t.Errorf("perfect AUC = %g", auc)
	}
	// Identical distributions → 0.5.
	if auc := AUC([]float64{1, 2, 3}, []float64{1, 2, 3}); math.Abs(auc-0.5) > 1e-12 {
		t.Errorf("identical AUC = %g, want 0.5", auc)
	}
	// Inverted.
	if auc := AUC([]float64{3, 4}, []float64{1, 2}); auc != 0 {
		t.Errorf("inverted AUC = %g", auc)
	}
	if AUC(nil, []float64{1}) != 0 {
		t.Error("empty neutral arm should give 0")
	}
}

func TestStatisticString(t *testing.T) {
	if MaxOmega.String() != "max-omega" || MinTajimaD.String() != "min-tajima-d" {
		t.Error("names wrong")
	}
	if !strings.Contains(Statistic(9).String(), "9") {
		t.Error("unknown statistic should include value")
	}
}

func TestRunErrors(t *testing.T) {
	s := studyForTest()
	if _, err := s.Run(MaxOmega, 0); err == nil {
		t.Error("FPR 0 should fail")
	}
	if _, err := s.Run(Statistic(9), 0.1); err == nil {
		t.Error("unknown statistic should fail")
	}
}

func TestOmegaDetectsStrongSweep(t *testing.T) {
	// A strong sweep must be detected with high power at 10% FPR, and
	// the ROC must clearly beat chance.
	s := studyForTest()
	res, err := s.Run(MaxOmega, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neutral) != s.Replicates || len(res.Sweep) != s.Replicates {
		t.Fatalf("arm sizes %d/%d", len(res.Neutral), len(res.Sweep))
	}
	if res.Power < 0.6 {
		t.Errorf("ω power = %.2f at FPR %.2f, expected ≥ 0.6", res.Power, res.FPR)
	}
	if res.AUC < 0.75 {
		t.Errorf("ω AUC = %.2f, expected ≥ 0.75", res.AUC)
	}
}

func TestTajimaDetectsStrongSweep(t *testing.T) {
	s := studyForTest()
	res, err := s.Run(MinTajimaD, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.AUC < 0.6 {
		t.Errorf("Tajima's D AUC = %.2f, expected better than chance", res.AUC)
	}
}

func TestIHSDetectorRuns(t *testing.T) {
	s := studyForTest()
	res, err := s.Run(MaxAbsIHS, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweep) != s.Replicates {
		t.Fatalf("iHS arm size %d", len(res.Sweep))
	}
	if res.AUC < 0.4 {
		t.Errorf("iHS AUC = %.2f, suspiciously below chance", res.AUC)
	}
	if MaxAbsIHS.String() != "max-abs-ihs" {
		t.Error("name wrong")
	}
}
