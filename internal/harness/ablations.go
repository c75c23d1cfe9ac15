package harness

import (
	"context"
	"fmt"
	"time"

	"omegago/internal/fpga"
	"omegago/internal/gpu"
	"omegago/internal/ld"
	"omegago/internal/omega"
)

// Ablations measures the design choices DESIGN.md §6 calls out, each as
// an on/off (or swept) comparison on a fixed dataset. CPU rows are
// measured; accelerator rows come from the cost models around
// functional runs.
func Ablations(quick bool) (*Table, error) {
	t := &Table{
		ID:     "ablations",
		Title:  "Design-choice ablations",
		Header: []string{"design choice", "variant", "metric", "value"},
	}
	snps, grid := 1200, 24
	if quick {
		snps, grid = 600, 12
	}
	a, err := Dataset(snps, 100, 4321)
	if err != nil {
		return nil, err
	}
	p := omega.Params{GridSize: grid, MaxWindow: 100000}.WithDefaults()
	regions, err := omega.BuildRegions(a, p)
	if err != nil {
		return nil, err
	}

	// --- data reuse (M relocation) ---
	scanOnce := func(reuse bool) (float64, int64) {
		t0 := time.Now()
		var computed int64
		if reuse {
			// The error is the context's, and a background one never ends.
			st, _ := omega.ScanRange(context.Background(), omega.NewDPMatrix(ld.NewComputer(a, ld.Direct, 1)),
				omega.Range{Regions: regions, Hi: len(regions), Out: make([]omega.Result, len(regions))},
				func(reg omega.Region, m *omega.DPMatrix, _ int64, _ int) (omega.Result, bool) {
					return omega.ComputeOmega(m, a, reg, p), true
				})
			computed = st.R2Computed
		} else {
			for _, reg := range regions {
				if reg.Skipped() {
					continue
				}
				m := omega.NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
				m.Advance(reg.Lo, reg.Hi)
				omega.ComputeOmega(m, a, reg, p)
				computed += m.R2Computed()
			}
		}
		return time.Since(t0).Seconds(), computed
	}
	withSec, withR2 := scanOnce(true)
	withoutSec, withoutR2 := scanOnce(false)
	t.Rows = append(t.Rows,
		[]string{"data reuse (relocation)", "on", "scan seconds / fresh r²",
			fmt.Sprintf("%.4f / %d", withSec, withR2)},
		[]string{"data reuse (relocation)", "off", "scan seconds / fresh r²",
			fmt.Sprintf("%.4f / %d", withoutSec, withoutR2)},
		[]string{"data reuse (relocation)", "saving", "r² avoided",
			fmt.Sprintf("%.1f%%", 100*(1-float64(withR2)/float64(withoutR2)))},
	)

	// --- GEMM-batched LD vs direct pairwise ---
	for _, engine := range []ld.Engine{ld.Direct, ld.GEMM} {
		t0 := time.Now()
		m := omega.NewDPMatrix(ld.NewComputer(a, engine, 1))
		m.Advance(0, a.NumSNPs()-1)
		t.Rows = append(t.Rows, []string{"LD engine", engine.String(), "full-M fill seconds",
			fmt.Sprintf("%.4f", time.Since(t0).Seconds())})
	}

	// --- GPU order switch (needs an asymmetric, occupancy-saturating
	// region, so it uses its own 3000-SNP dataset regardless of scale) ---
	aEdge, err := Dataset(3000, 50, 4343)
	if err != nil {
		return nil, err
	}
	pEdge := omega.Params{GridSize: 1}.WithDefaults()
	edge := omega.Region{Index: 0, Center: aEdge.Positions[aEdge.NumSNPs()-9],
		Lo: 0, Hi: aEdge.NumSNPs() - 1, K: aEdge.NumSNPs() - 9}
	mEdge := omega.NewDPMatrix(ld.NewComputer(aEdge, ld.Direct, 1))
	mEdge.Advance(edge.Lo, edge.Hi)
	if in := omega.BuildKernelInput(mEdge, aEdge, edge, pEdge); in != nil {
		_, repOn := gpu.LaunchOmega(gpu.TeslaK80, gpu.KernelI, in, aEdge, gpu.Options{})
		_, repOff := gpu.LaunchOmega(gpu.TeslaK80, gpu.KernelI, in, aEdge,
			gpu.Options{DisableOrderSwitch: true})
		t.Rows = append(t.Rows,
			[]string{"GPU order switch", "on", "modeled kernel µs",
				fmt.Sprintf("%.2f", repOn.KernelSeconds*1e6)},
			[]string{"GPU order switch", "off", "modeled kernel µs",
				fmt.Sprintf("%.2f", repOff.KernelSeconds*1e6)},
		)
	}

	// --- FPGA unroll factor sweep ---
	mid := regions[len(regions)/2]
	mMid := omega.NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
	mMid.Advance(mid.Lo, mid.Hi)
	if in := omega.BuildKernelInput(mMid, a, mid, p); in != nil {
		for _, uf := range []int{1, 4, 8, 32} {
			_, rep := fpga.LaunchOmega(fpga.AlveoU200, in, a, fpga.Options{UnrollFactor: uf})
			thr := float64(rep.HardwareOmegas) / rep.HardwareSeconds / 1e9
			t.Rows = append(t.Rows, []string{"FPGA unroll factor", fmt.Sprintf("UF=%d", uf),
				"pipeline Gω/s (sw remainder excl.)", fmt.Sprintf("%.3f", thr)})
		}
	}

	// --- transfer/kernel overlap (double buffering, Fig. 14 caption) ---
	for _, overlap := range []bool{false, true} {
		rep, err := gpu.ScanCtx(context.Background(), gpu.TeslaK80, gpu.Dynamic, a, p, gpu.Options{OverlapTransfers: overlap})
		if err != nil {
			return nil, err
		}
		variant := "off"
		if overlap {
			variant = "on"
		}
		t.Rows = append(t.Rows, []string{"GPU transfer overlap", variant,
			"modeled ω-phase ms", fmt.Sprintf("%.3f", rep.OmegaSeconds()*1e3)})
	}

	// --- multi-FPGA LD system scaling (Bozikas et al.) ---
	for _, n := range []int{1, 2, 4} {
		sys := fpga.ConveyHC2ex(n)
		t.Rows = append(t.Rows, []string{"multi-FPGA LD", fmt.Sprintf("%d FPGA(s)", n),
			"Mpairs/s @ 7000 samples", fmt.Sprintf("%.1f", sys.PairsPerSec(7000)/1e6)})
	}

	t.Notes = append(t.Notes,
		"dataset: "+fmt.Sprintf("%d SNPs x 100 samples, grid %d, maxwin 100 kb", snps, grid),
		"CPU rows measured on this host; GPU/FPGA rows are cost-model values",
		"short inner loops penalize large unroll factors (fill latency + software remainder) — the UF sizing rule of §V presumes the long right-side loops of Figs. 10–11")
	return t, nil
}
