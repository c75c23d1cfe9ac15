// Root-level benchmarks: one per table and figure of the paper's
// evaluation (§VI), plus ablations of the design choices DESIGN.md §6
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics: Momega/s is millions of ω scores per second (the
// paper's throughput unit); modelMs is the accelerator cost model's
// estimate for the benched operation.
package omegago_test

import (
	"context"
	"strings"
	"testing"

	"omegago"
	"omegago/internal/fpga"
	"omegago/internal/gpu"
	"omegago/internal/harness"
	"omegago/internal/ihs"
	"omegago/internal/ld"
	"omegago/internal/mssim"
	"omegago/internal/omega"
	"omegago/internal/seqio"
	"omegago/internal/sfs"
)

func benchDataset(b *testing.B, snps, samples int, seed int64) *seqio.Alignment {
	b.Helper()
	a, err := harness.Dataset(snps, samples, seed)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func benchInputs(b *testing.B, a *seqio.Alignment, p omega.Params) []*omega.KernelInput {
	b.Helper()
	p = p.WithDefaults()
	regions, err := omega.BuildRegions(a, p)
	if err != nil {
		b.Fatal(err)
	}
	m := omega.NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
	var ins []*omega.KernelInput
	for _, reg := range regions {
		if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
			continue
		}
		m.Advance(reg.Lo, reg.Hi)
		if in := omega.BuildKernelInput(m, a, reg, p); in != nil {
			ins = append(ins, in)
		}
	}
	if len(ins) == 0 {
		b.Fatal("no kernel inputs")
	}
	return ins
}

// BenchmarkTable1FPGAResources regenerates the Table I resource
// estimates (the synthesis model, not a heavy computation).
func BenchmarkTable1FPGAResources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range fpga.Catalog() {
			r := d.Utilization()
			if r.DSP == 0 {
				b.Fatal("empty estimate")
			}
		}
	}
}

// BenchmarkFig10ZCU102 and BenchmarkFig11AlveoU200 run one grid
// position through the simulated pipeline at the figure's operating
// points and report the modeled throughput.
func benchFPGAFigure(b *testing.B, d fpga.Device, snps int) {
	a := benchDataset(b, snps, 50, 1000+int64(snps))
	ins := benchInputs(b, a, omega.Params{GridSize: 4, MaxWindow: 0})
	in := ins[len(ins)/2]
	var omegas, cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, rep := fpga.LaunchOmega(d, in, a, fpga.Options{})
		if !res.Valid {
			b.Fatal("invalid result")
		}
		omegas = res.Scores
		cycles = rep.Cycles
	}
	b.ReportMetric(float64(omegas)/(float64(cycles)/(d.ClockMHz*1e6))/1e9, "modelGomega/s")
	b.ReportMetric(float64(in.Inner()), "rightIters")
}

func BenchmarkFig10ZCU102(b *testing.B)    { benchFPGAFigure(b, fpga.ZCU102, 2500) }
func BenchmarkFig11AlveoU200(b *testing.B) { benchFPGAFigure(b, fpga.AlveoU200, 2500) }

// BenchmarkFig12GPUKernels exercises Kernel I, Kernel II and the
// dynamic deployment at a small and a large per-position workload on
// the K80 profile, reporting the modeled kernel throughput.
func BenchmarkFig12GPUKernels(b *testing.B) {
	small := benchDataset(b, 1000, 50, 1201)
	large := benchDataset(b, 6000, 50, 1206)
	cases := []struct {
		name string
		a    *seqio.Alignment
		kind gpu.Kind
	}{
		{"small/kernelI", small, gpu.KernelI},
		{"small/kernelII", small, gpu.KernelII},
		{"small/dynamic", small, gpu.Dynamic},
		{"large/kernelI", large, gpu.KernelI},
		{"large/kernelII", large, gpu.KernelII},
		{"large/dynamic", large, gpu.Dynamic},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			ins := benchInputs(b, c.a, omega.Params{GridSize: 4, MaxWindow: 20000})
			in := ins[len(ins)/2]
			var kernelSec float64
			var omegas int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, rep := gpu.LaunchOmega(gpu.TeslaK80, c.kind, in, c.a, gpu.Options{})
				kernelSec = rep.KernelSeconds
				omegas = rep.Omegas
			}
			b.ReportMetric(float64(omegas)/kernelSec/1e9, "modelGomega/s")
		})
	}
}

// BenchmarkFig13GPUEndToEnd includes the modeled host prep and PCIe
// transfer (the end-to-end metric of Fig. 13).
func BenchmarkFig13GPUEndToEnd(b *testing.B) {
	a := benchDataset(b, 6000, 50, 1301)
	ins := benchInputs(b, a, omega.Params{GridSize: 4, MaxWindow: 20000})
	in := ins[len(ins)/2]
	opts := gpu.Options{PrepWorkingSetBytes: in.Bytes()}
	var total float64
	var omegas int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep := gpu.LaunchOmega(gpu.TeslaK80, gpu.Dynamic, in, a, opts)
		total = rep.TotalSeconds()
		omegas = rep.Omegas
	}
	b.ReportMetric(float64(omegas)/total/1e6, "modelMomega/s")
}

// BenchmarkFig14WorkloadSplit measures the CPU LD/ω split on the three
// workload classes (quick scale).
func BenchmarkFig14WorkloadSplit(b *testing.B) {
	for _, w := range harness.Workloads(true) {
		b.Run(w.Name, func(b *testing.B) {
			a, err := w.Alignment()
			if err != nil {
				b.Fatal(err)
			}
			var st omega.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, s, err := omega.ScanCtx(context.Background(), a, w.Params(), ld.Direct)
				if err != nil {
					b.Fatal(err)
				}
				st = s
			}
			total := st.LDTime.Seconds() + st.OmegaTime.Seconds()
			b.ReportMetric(100*st.LDTime.Seconds()/total, "LDshare%")
		})
	}
}

// BenchmarkTable3Throughput reports ω throughput per workload on the
// CPU (measured) — the CPU column of Table III.
func BenchmarkTable3Throughput(b *testing.B) {
	for _, w := range harness.Workloads(true) {
		b.Run(w.Name, func(b *testing.B) {
			a, err := w.Alignment()
			if err != nil {
				b.Fatal(err)
			}
			var st omega.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, s, err := omega.ScanCtx(context.Background(), a, w.Params(), ld.Direct)
				if err != nil {
					b.Fatal(err)
				}
				st = s
			}
			b.ReportMetric(float64(st.OmegaScores)/st.OmegaTime.Seconds()/1e6, "Momega/s")
		})
	}
}

// BenchmarkTable4Multithreaded sweeps the thread counts of Table IV.
func BenchmarkTable4Multithreaded(b *testing.B) {
	w := harness.Workloads(true)[1]
	a, err := w.Alignment()
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, 2, 3, 4, 8} {
		b.Run(benchName(threads), func(b *testing.B) {
			var st omega.Stats
			for i := 0; i < b.N; i++ {
				_, s, err := omega.ScanParallelCtx(context.Background(), a, w.Params(), ld.Direct, threads, nil)
				if err != nil {
					b.Fatal(err)
				}
				st = s
			}
			perOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(st.OmegaScores)/perOp/1e6, "Momega/s")
		})
	}
}

func benchName(threads int) string {
	return map[int]string{1: "1thread", 2: "2threads", 3: "3threads", 4: "4threads", 8: "8threads"}[threads]
}

// BenchmarkScanSharded compares the snapshot scheduler (ScanParallelCtx,
// whose single producer computes all LD serially) against the sharded
// scheduler (per-shard DP matrices, fully parallel LD) on a grid where
// LD dominates: 1024 samples make each r² a 16-word popcount while
// MaxSNPsPerSide caps the ω nested loop, the regime of the paper's
// Fig. 14 LD-heavy workloads. The snapshot scheduler cannot beat its
// serial LD floor however many workers it has; sharding can.
func BenchmarkScanSharded(b *testing.B) {
	a := benchDataset(b, 1500, 1024, 1601)
	p := omega.Params{GridSize: 32, MaxWindow: 40000, MaxSNPsPerSide: 50}
	for _, threads := range []int{1, 4, 8} {
		b.Run("snapshot/"+benchName(threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := omega.ScanParallelCtx(context.Background(), a, p, ld.Direct, threads, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("sharded/"+benchName(threads), func(b *testing.B) {
			var st omega.Stats
			for i := 0; i < b.N; i++ {
				s, stats, err := omega.ScanShardedCtx(context.Background(), a, p, ld.Direct, threads, nil)
				if err != nil {
					b.Fatal(err)
				}
				_ = s
				st = stats
			}
			if st.R2Computed > 0 {
				b.ReportMetric(100*float64(st.R2Duplicated)/float64(st.R2Computed), "dup%")
			}
		})
	}
}

// BenchmarkScanBatch sweeps the batch scanner across replicate counts
// and worker-pool sizes: the multi-dataset throughput path that serving
// many concurrent studies rides on. On multicore hosts the worker pool
// overlaps whole replicate scans; on one core it measures pool overhead.
func BenchmarkScanBatch(b *testing.B) {
	for _, replicates := range []int{4, 16} {
		reps, err := mssim.Simulate(mssim.Config{
			SampleSize: 32, Replicates: replicates, SegSites: 300, Rho: 60, Seed: 1700 + int64(replicates),
		})
		if err != nil {
			b.Fatal(err)
		}
		batch := make([]*omegago.Dataset, len(reps))
		for i, rep := range reps {
			if batch[i], err = rep.ToAlignment(500000); err != nil {
				b.Fatal(err)
			}
		}
		for _, workers := range []int{1, 4, 8} {
			b.Run(benchBatchName(replicates, workers), func(b *testing.B) {
				cfg := omegago.Config{GridSize: 25, MaxWindow: 40000, BatchWorkers: workers}
				var scores int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err := omegago.ScanBatch(context.Background(), batch, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if rep.Failed > 0 {
						b.Fatalf("%d replicates failed", rep.Failed)
					}
					scores = rep.OmegaScores
				}
				perOp := b.Elapsed().Seconds() / float64(b.N)
				b.ReportMetric(float64(replicates)/perOp, "replicates/s")
				b.ReportMetric(float64(scores)/perOp/1e6, "Momega/s")
			})
		}
	}
}

// BenchmarkObsObserverOverhead measures the observability tax on the
// batch scanner: a nil observer (the Meter short-circuits to nothing),
// a no-op Observer (atomics plus callback dispatch), and a full metrics
// registry. The nil case must stay within ~2% of the instrumented ones
// — the hot path only touches per-region atomics, never locks.
func BenchmarkObsObserverOverhead(b *testing.B) {
	const replicates = 8
	reps, err := mssim.Simulate(mssim.Config{
		SampleSize: 32, Replicates: replicates, SegSites: 300, Rho: 60, Seed: 1800,
	})
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]*omegago.Dataset, len(reps))
	for i, rep := range reps {
		if batch[i], err = rep.ToAlignment(500000); err != nil {
			b.Fatal(err)
		}
	}
	run := func(b *testing.B, cfg omegago.Config) {
		cfg.GridSize, cfg.MaxWindow, cfg.BatchWorkers = 25, 40000, 4
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := omegago.ScanBatch(context.Background(), batch, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Failed > 0 {
				b.Fatalf("%d replicates failed", rep.Failed)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, omegago.Config{}) })
	b.Run("observer", func(b *testing.B) { run(b, omegago.Config{Observer: noopObserver{}}) })
	b.Run("metrics", func(b *testing.B) {
		run(b, omegago.Config{Metrics: omegago.NewMetrics(omegago.NewRegistry())})
	})
}

// noopObserver exercises observer dispatch without doing any work.
type noopObserver struct{}

func (noopObserver) OnProgress(omegago.Progress) {}
func (noopObserver) OnPhase(omegago.Phase)       {}

func benchBatchName(replicates, workers int) string {
	return map[int]string{4: "4reps", 16: "16reps"}[replicates] + "/" +
		map[int]string{1: "1worker", 4: "4workers", 8: "8workers"}[workers]
}

// ---- Ablations (DESIGN.md §6) ----

// BenchmarkAblationDataReuse compares the scan with OmegaPlus's
// relocation optimization against recomputing M from scratch at every
// grid position.
func BenchmarkAblationDataReuse(b *testing.B) {
	a := benchDataset(b, 800, 100, 1401)
	p := omega.Params{GridSize: 20, MaxWindow: 100000}.WithDefaults()
	regions, err := omega.BuildRegions(a, p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("with-reuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := omega.NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
			for _, reg := range regions {
				if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
					continue
				}
				m.Advance(reg.Lo, reg.Hi)
				omega.ComputeOmega(m, a, reg, p)
			}
		}
	})
	b.Run("without-reuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, reg := range regions {
				if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
					continue
				}
				m := omega.NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
				m.Advance(reg.Lo, reg.Hi)
				omega.ComputeOmega(m, a, reg, p)
			}
		}
	})
}

// BenchmarkAblationGEMMLD compares direct pairwise LD against the
// BLIS-style batched bit-matrix GEMM for the DP-matrix fill.
func BenchmarkAblationGEMMLD(b *testing.B) {
	a := benchDataset(b, 600, 2000, 1402)
	for _, engine := range []ld.Engine{ld.Direct, ld.GEMM} {
		b.Run(engine.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := omega.NewDPMatrix(ld.NewComputer(a, engine, 1))
				m.Advance(0, a.NumSNPs()-1)
			}
		})
	}
}

// BenchmarkAblationOrderSwitch measures the modeled memory-system
// effect of the dynamic sub-region order switch (Kernel I, §IV.B): a
// grid position whose right sub-region holds fewer SNPs than a warp is
// uncoalesced unless the larger left side is moved to the inner axis.
func BenchmarkAblationOrderSwitch(b *testing.B) {
	a := benchDataset(b, 3000, 50, 1403)
	p := omega.Params{GridSize: 1, MaxWindow: 0}.WithDefaults()
	// A region whose junction sits 8 SNPs from the right edge: outer
	// (left borders) in the thousands, inner (right borders) below the
	// warp size.
	reg := omega.Region{Index: 0, Center: a.Positions[a.NumSNPs()-9],
		Lo: 0, Hi: a.NumSNPs() - 1, K: a.NumSNPs() - 9}
	m := omega.NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
	m.Advance(reg.Lo, reg.Hi)
	in := omega.BuildKernelInput(m, a, reg, p)
	if in == nil || in.Inner() >= gpu.TeslaK80.WarpSize || in.Outer() < 1000 {
		b.Fatalf("ablation region not asymmetric enough: %dx%d", in.Outer(), in.Inner())
	}
	for _, disable := range []bool{false, true} {
		name := "switch-on"
		if disable {
			name = "switch-off"
		}
		b.Run(name, func(b *testing.B) {
			var kernelSec float64
			for i := 0; i < b.N; i++ {
				_, rep := gpu.LaunchOmega(gpu.TeslaK80, gpu.KernelI, in, a,
					gpu.Options{DisableOrderSwitch: disable})
				kernelSec = rep.KernelSeconds
			}
			b.ReportMetric(kernelSec*1e6, "modelMicros")
		})
	}
}

// BenchmarkAblationUnrollFactor sweeps the FPGA unroll factor on the
// Alveo U200 profile (the design-space axis of Section V).
func BenchmarkAblationUnrollFactor(b *testing.B) {
	a := benchDataset(b, 2500, 50, 1404)
	ins := benchInputs(b, a, omega.Params{GridSize: 4, MaxWindow: 0})
	in := ins[len(ins)/2]
	for _, uf := range []int{1, 4, 8, 32} {
		b.Run(benchUFName(uf), func(b *testing.B) {
			var hwSec float64
			var omegas int64
			for i := 0; i < b.N; i++ {
				res, rep := fpga.LaunchOmega(fpga.AlveoU200, in, a, fpga.Options{UnrollFactor: uf})
				hwSec = rep.TotalSeconds()
				omegas = res.Scores
			}
			b.ReportMetric(float64(omegas)/hwSec/1e9, "modelGomega/s")
		})
	}
}

func benchUFName(uf int) string {
	return map[int]string{1: "UF1", 4: "UF4", 8: "UF8", 32: "UF32"}[uf]
}

// BenchmarkScanPublicAPI benches the end-to-end public Scan call, the
// operation a downstream user pays for.
func BenchmarkScanPublicAPI(b *testing.B) {
	ds, err := omegago.Simulate(omegago.SimConfig{
		SampleSize: 50, Replicates: 1, SegSites: 1000, Seed: 1405,
	}, 1e6)
	if err != nil {
		b.Fatal(err)
	}
	cfg := omegago.Config{GridSize: 50, MaxWindow: 20000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := omegago.Scan(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- substrate micro-benchmarks ----

// BenchmarkSimulatorTree benches the fast single-genealogy engine.
func BenchmarkSimulatorTree(b *testing.B) {
	cfg := omegago.SimConfig{SampleSize: 100, Replicates: 1, SegSites: 2000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := omegago.Simulate(cfg, 1e6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorARG benches the recombination engine.
func BenchmarkSimulatorARG(b *testing.B) {
	cfg := omegago.SimConfig{SampleSize: 20, Replicates: 1, SegSites: 500, Rho: 50}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := omegago.Simulate(cfg, 1e6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIHSScan benches the haplotype detector.
func BenchmarkIHSScan(b *testing.B) {
	a := benchDataset(b, 500, 50, 1501)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ihs.Compute(a, ihs.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSFSScan benches the SFS statistics scan.
func BenchmarkSFSScan(b *testing.B) {
	a := benchDataset(b, 2000, 50, 1502)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sfs.Scan(a, 100, 20000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLDSweepWindow benches the quickLD-style pair sweep.
func BenchmarkLDSweepWindow(b *testing.B) {
	a := benchDataset(b, 1000, 50, 1503)
	c := ld.NewComputer(a, ld.Direct, 1)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		c.SweepWindow(20000, func(p ld.PairResult) { sink += p.R2 })
	}
	_ = sink
}

// BenchmarkParseMS benches the ms parser on a ~1 MB stream.
func BenchmarkParseMS(b *testing.B) {
	msReps, err := mssim.Simulate(mssim.Config{SampleSize: 100, Replicates: 1, SegSites: 2000, Seed: 1504})
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	if err := seqio.WriteMS(&sb, "bench", msReps); err != nil {
		b.Fatal(err)
	}
	text := sb.String()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seqio.ParseMS(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
