package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"omegago"
	"omegago/internal/gemm"
)

// benchSeed pins every generator in the harness: two runs of the same
// binary on the same preset measure exactly the same work, so BENCH
// files differ only by machine and code, never by input.
const benchSeed = 42

// Record is one benchmark line of a BENCH_<rev>.json file. Throughput
// is the primary comparison metric (higher is better); ns/op and allocs
// ride along for human reading and allocation regressions.
type Record struct {
	Name        string  `json:"name"`
	Metric      string  `json:"metric"`
	Throughput  float64 `json:"throughput"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// File is the machine-readable benchmark report. Schema is bumped on
// any incompatible layout change; diff refuses mismatched schemas.
type File struct {
	Schema     int      `json:"schema"`
	Rev        string   `json:"rev"`
	Preset     string   `json:"preset"`
	GoVersion  string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPUs       int      `json:"cpus"`
	Benchmarks []Record `json:"benchmarks"`
}

const schemaVersion = 1

// benchCase is one entry of the fixed benchmark table: setup runs once
// outside the timed loop, op is the measured body, and unitsPerOp is the
// throughput numerator (pairs or ω scores) of a single op.
type benchCase struct {
	name       string
	metric     string
	fullOnly   bool
	unitsPerOp float64
	op         func()
	cleanup    func()
}

// randomBitMatrix mirrors the gemm test generator at the pinned seed.
func randomBitMatrix(rng *rand.Rand, rows, cols int) *gemm.BitMatrix {
	m := gemm.NewBitMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Intn(2) == 1 {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

// ldCases benches the two LD kernels producing the same useful output —
// the window triangle of pair counts. The flat kernel must compute the
// full rectangle to deliver it; the blocked triangular kernel computes
// the triangle alone. Mpairs/s counts useful (triangle) pairs per
// second for both, so the records are directly comparable.
func ldCases(rows, cols int, fullOnly bool) []benchCase {
	rng := rand.New(rand.NewSource(benchSeed))
	x := randomBitMatrix(rng, rows, cols)
	pairs := float64(gemm.TrapezoidPairs(rows, rows, 0))
	size := fmt.Sprintf("%dx%dx%d", rows, rows, cols)
	return []benchCase{
		{
			name: "ld/flat/" + size, metric: "Mpairs/s", fullOnly: fullOnly,
			unitsPerOp: pairs,
			op:         func() { gemm.PopcountGemm(x, x, 1) },
		},
		{
			name: "ld/tri/" + size, metric: "Mpairs/s", fullOnly: fullOnly,
			unitsPerOp: pairs,
			op:         func() { gemm.PopcountTrapezoid(x, x, 0, 1) },
		},
	}
}

// scanCase benches a full sweep scan on a pinned-seed simulated dataset
// and reports Momega/s (the paper's throughput unit).
func scanCase(name string, cfg omegago.Config, segsites int, fullOnly bool) benchCase {
	ds, err := omegago.Simulate(omegago.SimConfig{
		SampleSize: 64, Replicates: 1, SegSites: segsites, Seed: benchSeed,
	}, 1e6)
	if err != nil {
		fatalf("simulating %s dataset: %v", name, err)
	}
	rep, err := omegago.Scan(ds, cfg)
	if err != nil {
		fatalf("priming %s scan: %v", name, err)
	}
	return benchCase{
		name: name, metric: "Momega/s", fullOnly: fullOnly,
		unitsPerOp: float64(rep.OmegaScores),
		op: func() {
			if _, err := omegago.Scan(ds, cfg); err != nil {
				fatalf("%s scan: %v", name, err)
			}
		},
	}
}

// streamCase benches the out-of-core path end to end: each op reopens a
// pinned-seed bitmat file (header parse + mmap) and runs ScanStream over
// it, so the record covers chunk planning, the loader goroutine, and the
// zero-copy row adoption that a resident Scan never pays. chunkSNPs 0
// uses the default chunk sizing.
func streamCase(name string, cfg omegago.Config, segsites, chunkSNPs int, fullOnly bool) benchCase {
	ds, err := omegago.Simulate(omegago.SimConfig{
		SampleSize: 64, Replicates: 1, SegSites: segsites, Seed: benchSeed,
	}, 1e6)
	if err != nil {
		fatalf("simulating %s dataset: %v", name, err)
	}
	f, err := os.CreateTemp("", "omegabench-*.bitmat")
	if err != nil {
		fatalf("creating %s bitmat: %v", name, err)
	}
	path := f.Name()
	f.Close()
	if err := omegago.SaveBitmat(path, ds); err != nil {
		fatalf("writing %s bitmat: %v", name, err)
	}
	cfg.ChunkSNPs = chunkSNPs
	run := func() float64 {
		src, err := omegago.OpenBitmatSource(path)
		if err != nil {
			fatalf("%s open: %v", name, err)
		}
		defer src.Close()
		rep, err := omegago.ScanStream(src, cfg)
		if err != nil {
			fatalf("%s scan: %v", name, err)
		}
		return float64(rep.OmegaScores)
	}
	units := run() // prime, and pin the per-op ω count
	return benchCase{
		name: name, metric: "Momega/s", fullOnly: fullOnly,
		unitsPerOp: units,
		op:         func() { run() },
		cleanup:    func() { os.Remove(path) },
	}
}

// benchTable assembles the preset's fixed benchmark list.
func benchTable(preset string) []benchCase {
	full := preset == "full"
	cases := ldCases(256, 1024, false)
	cases = append(cases, ldCases(512, 1000, false)...) // the historical gemm_test size
	if full {
		cases = append(cases, ldCases(1024, 2048, true)...)
	}
	scanCfg := omegago.Config{GridSize: 32, MaxWindow: 40000}
	gemmCfg := scanCfg
	gemmCfg.UseGEMMLD = true
	// Threads feeds a streamed scan's LD workers, so this case times the
	// row-parallel direct trapezoid on the out-of-core path.
	threadedCfg := scanCfg
	threadedCfg.Threads = 2
	cases = append(cases,
		scanCase("scan/direct/g32", scanCfg, 800, false),
		scanCase("scan/gemm-ld/g32", gemmCfg, 800, false),
		streamCase("scan/stream-bitmat/g32", scanCfg, 800, 0, false),
		streamCase("scan/stream-bitmat/g32t2", threadedCfg, 800, 0, false),
	)
	if full {
		cases = append(cases,
			streamCase("scan/stream-bitmat/g32c128", scanCfg, 800, 128, true))
	}
	// ω-kernel comparison on an ω-bound workload: a dense grid with an
	// effectively unbounded window keeps the borders long, so the region
	// loop dominates and the scalar/blocked gap is what gets measured.
	for _, k := range []omegago.OmegaKernel{
		omegago.OmegaKernelScalar, omegago.OmegaKernelBlocked, omegago.OmegaKernelAuto,
	} {
		kernCfg := omegago.Config{GridSize: 24, MaxWindow: 1e6, OmegaKernel: k}
		cases = append(cases, scanCase("omega/"+k.String()+"/g24", kernCfg, 500, false))
	}
	if full {
		bigCfg := omegago.Config{GridSize: 64, MaxWindow: 60000}
		bigGemm := bigCfg
		bigGemm.UseGEMMLD = true
		cases = append(cases,
			scanCase("scan/direct/g64", bigCfg, 2000, true),
			scanCase("scan/gemm-ld/g64", bigGemm, 2000, true),
		)
	}
	out := cases[:0]
	for _, c := range cases {
		if c.fullOnly && !full {
			continue
		}
		out = append(out, c)
	}
	return out
}

// runPreset executes the preset's table through testing.Benchmark and
// assembles the report file.
func runPreset(preset, rev string, progress func(string)) *File {
	f := &File{
		Schema: schemaVersion, Rev: rev, Preset: preset,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUs: runtime.NumCPU(),
	}
	for _, c := range benchTable(preset) {
		op := c.op
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
		ns := float64(res.NsPerOp())
		rec := Record{
			Name:        c.name,
			Metric:      c.metric,
			Throughput:  c.unitsPerOp / ns * 1e9 / 1e6, // mega-units per second
			NsPerOp:     ns,
			AllocsPerOp: res.AllocsPerOp(),
			Iterations:  res.N,
		}
		f.Benchmarks = append(f.Benchmarks, rec)
		progress(fmt.Sprintf("%-24s %12.0f ns/op %10.2f %s", rec.Name, rec.NsPerOp, rec.Throughput, rec.Metric))
		if c.cleanup != nil {
			c.cleanup()
		}
	}
	return f
}
