// Acceldesign: design-space exploration of the simulated accelerators —
// the engineering questions Sections IV–V of the paper answer.
//
// For the FPGA: how do resources and throughput scale with the unroll
// factor, and where does memory bandwidth cap it (UF=4 on the ZCU102,
// UF=32 on the Alveo U200)? For the GPU: where does the Kernel I →
// Kernel II crossover sit relative to the Equation-4 threshold?
package main

import (
	"context"
	"fmt"
	"log"

	"omegago/internal/fpga"
	"omegago/internal/gpu"
	"omegago/internal/harness"
	"omegago/internal/ld"
	"omegago/internal/omega"
)

func main() {
	log.SetFlags(0)

	fmt.Println("== FPGA ω-pipeline design space ==")
	fmt.Printf("pipeline: %d stages, %d-cycle fill latency, II=1 (one ω per cycle per instance)\n\n",
		len(fpga.PipelineStages()), fpga.Depth())
	for _, d := range fpga.Catalog() {
		fmt.Printf("%s — memory bandwidth %.1f GB/s caps UF at %d\n",
			d, d.MemBandwidthGBs, d.MaxUnrollFactor())
		fmt.Println("  UF   DSP     FF      LUT     peak Gω/s  @1k-iter Gω/s")
		for uf := 1; uf <= d.MaxUnrollFactor(); uf *= 2 {
			r := d.Model.Estimate(uf)
			peak := float64(uf) * d.ClockMHz * 1e6
			thr := fpga.ModelThroughput(d, uf, 1000)
			fmt.Printf("  %-4d %-7d %-7d %-7d %-10.2f %.3f\n",
				uf, r.DSP, r.FF, r.LUT, peak/1e9, thr/1e9)
		}
		fmt.Println()
	}

	fmt.Println("== GPU kernel crossover (Equation-4 threshold) ==")
	a, err := harness.Dataset(3000, 50, 777)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device: %s, threshold Nthr = %d ω/position\n\n", gpu.TeslaK80, gpu.TeslaK80.Threshold())
	fmt.Println("  window/side   position   ω slots   deployed    kernel-I µs  kernel-II µs")
	for _, maxwin := range []float64{25000, 70000} {
		p := omega.Params{GridSize: 4, MaxWindow: maxwin}.WithDefaults()
		regions, err := omega.BuildRegions(a, p)
		if err != nil {
			log.Fatal(err)
		}
		_, err = omega.ScanRange(context.Background(), omega.NewDPMatrix(ld.NewComputer(a, ld.Direct, 1)),
			omega.Range{Regions: regions, Hi: len(regions), Out: make([]omega.Result, len(regions))},
			func(reg omega.Region, m *omega.DPMatrix, _ int64, _ int) (omega.Result, bool) {
				in := omega.BuildKernelInput(m, a, reg, p)
				if in == nil {
					return omega.Result{GridIndex: reg.Index, Center: reg.Center}, true
				}
				_, repI := gpu.LaunchOmega(gpu.TeslaK80, gpu.KernelI, in, a, gpu.Options{})
				_, repII := gpu.LaunchOmega(gpu.TeslaK80, gpu.KernelII, in, a, gpu.Options{})
				resD, repD := gpu.LaunchOmega(gpu.TeslaK80, gpu.Dynamic, in, a, gpu.Options{})
				fmt.Printf("  %8.0f bp  %9.0f  %8d  %-10v  %11.1f  %12.1f\n",
					maxwin, reg.Center, in.Total(), repD.Kind,
					repI.KernelSeconds*1e6, repII.KernelSeconds*1e6)
				return resD, true
			})
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nbelow the threshold the dynamic deployment picks Kernel I; above it, Kernel II —")
	fmt.Println("compare the modeled kernel times to see why (the paper's §IV.A).")
}
