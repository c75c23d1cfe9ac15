package main

import (
	"time"

	"omegago"
)

// kernelTotals sums the work counters of the traced units of a run.
type kernelTotals struct {
	r2Computed, r2Reused, r2Duplicated int64
	scores, blocked, scalar            int64
	// reference is the pinned reference ω count of the same units.
	reference int64
}

func (t *kernelTotals) add(rep *omegago.Report) {
	t.r2Computed += rep.R2Computed
	t.r2Reused += rep.R2Reused
	t.r2Duplicated += rep.R2Duplicated
	t.scores += rep.OmegaScores
	t.blocked += rep.OmegaKernelBlocked
	t.scalar += rep.OmegaKernelScalar
}

// kernelLayers fills the ld and omega metrics from the busy times the
// Phase spans gave and the counters the reports gave. The shares split
// kernel busy time between LD and ω (the paper's Fig. 14 profile);
// busy time sums over threads, so it is not compared with wall time.
// samples is the haplotype count, which sets the computed bytes and
// ops per r².
func kernelLayers(m map[string]float64, ldBusy, omegaBusy float64, t kernelTotals, samples int, pk peaks) {
	m["ld.busy_s"] = ldBusy
	m["ld.share"] = ratio(ldBusy, ldBusy+omegaBusy)
	m["ld.r2_computed"] = float64(t.r2Computed)
	m["ld.r2_reused"] = float64(t.r2Reused)
	m["ld.reuse_ratio"] = ratio(float64(t.r2Reused), float64(t.r2Computed+t.r2Reused))
	m["ld.mpairs_per_s"] = ratio(float64(t.r2Computed), ldBusy) / 1e6
	ldOps := float64(t.r2Computed) * ldOpsPerPair(samples)
	ldBytes := float64(t.r2Computed) * ldBytesPerPair(samples)
	m["ld.ops_computed"] = ldOps
	m["ld.bytes_computed"] = ldBytes
	m["ld.ops_per_byte"] = ratio(ldOps, ldBytes)
	m["ld.roofline_frac"] = rooflineFrac(ratio(ldOps, ldBusy), pk.PopcountOps, pk.BytesPerSec, ratio(ldOps, ldBytes))

	m["omega.busy_s"] = omegaBusy
	m["omega.share"] = ratio(omegaBusy, ldBusy+omegaBusy)
	m["omega.mscores_per_s"] = ratio(float64(t.scores), omegaBusy) / 1e6
	m["omega.scores_ratio"] = ratio(float64(t.scores), float64(t.reference))
	m["omega.blocked_regions"] = float64(t.blocked)
	m["omega.scalar_regions"] = float64(t.scalar)
	m["omega.r2_duplicated"] = float64(t.r2Duplicated)
	m["omega.dup_ratio"] = ratio(float64(t.r2Duplicated), float64(t.r2Computed))
	omOps := float64(t.scores) * omegaOpsPerScore
	omBytes := float64(t.scores) * omegaBytesPerScore
	m["omega.ops_computed"] = omOps
	m["omega.bytes_computed"] = omBytes
	m["omega.ops_per_byte"] = ratio(omOps, omBytes)
	m["omega.roofline_frac"] = rooflineFrac(ratio(omOps, omegaBusy), pk.Flops, pk.BytesPerSec, ratio(omOps, omBytes))

	m["roofline.popcount_gops"] = pk.PopcountOps / 1e9
	m["roofline.flops_g"] = pk.Flops / 1e9
	m["roofline.bw_gbs"] = pk.BytesPerSec / 1e9
}

// unitTimes collects the per-unit wall times of a run, split by whether
// the unit was traced, for the tracing-overhead ratio.
type unitTimes struct{ all, traced, untraced []float64 }

func (u *unitTimes) add(d time.Duration, traced bool) {
	s := d.Seconds()
	u.all = append(u.all, s)
	if traced {
		u.traced = append(u.traced, s)
	} else {
		u.untraced = append(u.untraced, s)
	}
}

// overhead is traced wall ÷ untraced wall − 1, over unit medians.
func (u *unitTimes) overhead() float64 {
	if len(u.traced) == 0 || len(u.untraced) == 0 {
		return 0
	}
	return quantile(u.traced, 0.5)/quantile(u.untraced, 0.5) - 1
}

// busyByName sums span durations per layer.name over the spans.
func busyByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer+"."+s.Name] += s.dur().Seconds()
	}
	return out
}

// setTimings fills the end-to-end timing metrics shared by the
// in-process workloads: per-scan and per-job percentiles and the job
// rate. The runner sets momega_per_s, whose unit of work differs.
func setTimings(o *outcome, scans, jobs []float64, wall time.Duration) {
	p50 := quantile(scans, 0.5)
	p90, pScan := tail(scans, 90)
	j90, pJob := tail(jobs, 90)
	o.metrics["scan_p50_s"] = p50
	o.metrics["scan_p90_s"] = p90
	o.metrics["jobs_per_s"] = ratio(float64(len(jobs)), wall.Seconds())
	o.metrics["job_p50_ms"] = quantile(jobs, 0.5) * 1e3
	o.metrics["job_p90_ms"] = j90 * 1e3
	o.notef("%d scans, scan_p90_s is the p%.0f; %d jobs, job_p90_ms is the p%.0f (tail rule: ≥10 samples beyond)",
		len(scans), pScan, len(jobs), pJob)
}
