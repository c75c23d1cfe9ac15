package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func report(rev string, tputs map[string]float64) *File {
	f := &File{Schema: schemaVersion, Rev: rev, Preset: "short", GoVersion: "go-test"}
	for name, tp := range tputs {
		f.Benchmarks = append(f.Benchmarks, Record{
			Name: name, Metric: "Mpairs/s", Throughput: tp, NsPerOp: 1e9 / tp,
		})
	}
	return f
}

// TestDiffInjectedSlowdown is the perf-gate proof: a 2× slowdown on one
// benchmark must register as a regression at the CI threshold (15%).
func TestDiffInjectedSlowdown(t *testing.T) {
	base := report("base", map[string]float64{"ld/tri/512x512x1000": 70, "scan/gemm-ld/g32": 4})
	slow := report("slow", map[string]float64{"ld/tri/512x512x1000": 35, "scan/gemm-ld/g32": 4})
	lines, regressions := diffFiles(base, slow, 0.15)
	if regressions != 1 {
		t.Fatalf("2x slowdown produced %d regressions, want 1\n%v", regressions, lines)
	}
	found := false
	for _, l := range lines {
		if l.regression && strings.Contains(l.text, "ld/tri") {
			found = true
		}
	}
	if !found {
		t.Fatalf("regression not attributed to the slowed benchmark: %v", lines)
	}
}

func TestDiffWithinThresholdPasses(t *testing.T) {
	base := report("base", map[string]float64{"a": 100, "b": 50})
	cur := report("cur", map[string]float64{"a": 90, "b": 55}) // −10%, +10%
	if _, regressions := diffFiles(base, cur, 0.15); regressions != 0 {
		t.Fatal("within-threshold drift must not regress")
	}
}

// TestDiffAllocsRegression is the allocation-gate proof: allocs/op
// growing past the threshold must fail the diff even when throughput
// holds steady.
func TestDiffAllocsRegression(t *testing.T) {
	base := report("base", map[string]float64{"scan/direct/g32": 24})
	cur := report("cur", map[string]float64{"scan/direct/g32": 24})
	base.Benchmarks[0].AllocsPerOp = 100
	cur.Benchmarks[0].AllocsPerOp = 921
	lines, regressions := diffFiles(base, cur, 0.15)
	if regressions != 1 {
		t.Fatalf("9x alloc growth produced %d regressions, want 1\n%v", regressions, lines)
	}
	if !strings.Contains(lines[0].text, "allocs 100 → 921") {
		t.Fatalf("regression line does not name the alloc growth: %v", lines)
	}
}

// TestDiffAllocsFloorExempt: near-alloc-free benchmarks jitter by a few
// allocs between runs; the gate must ignore baselines under the floor.
func TestDiffAllocsFloorExempt(t *testing.T) {
	base := report("base", map[string]float64{"ld/tri/512x512x1000": 70})
	cur := report("cur", map[string]float64{"ld/tri/512x512x1000": 70})
	base.Benchmarks[0].AllocsPerOp = 4
	cur.Benchmarks[0].AllocsPerOp = 7 // +75%, but under the 8-alloc floor
	if _, regressions := diffFiles(base, cur, 0.15); regressions != 0 {
		t.Fatal("alloc jitter under the floor must not regress")
	}
}

func TestDiffMissingBenchmarkRegresses(t *testing.T) {
	base := report("base", map[string]float64{"a": 100, "b": 50})
	cur := report("cur", map[string]float64{"a": 100})
	if _, regressions := diffFiles(base, cur, 0.15); regressions != 1 {
		t.Fatal("vanished baseline benchmark must regress")
	}
}

func TestDiffNewBenchmarkIsInformational(t *testing.T) {
	base := report("base", map[string]float64{"a": 100})
	cur := report("cur", map[string]float64{"a": 100, "c": 7})
	lines, regressions := diffFiles(base, cur, 0.15)
	if regressions != 0 {
		t.Fatal("new benchmark without baseline must not regress")
	}
	found := false
	for _, l := range lines {
		if strings.Contains(l.text, "no baseline") {
			found = true
		}
	}
	if !found {
		t.Fatalf("new benchmark not reported: %v", lines)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_t.json")
	f := report("t", map[string]float64{"a": 123.5})
	f.GOOS, f.GOARCH, f.CPUs = "linux", "amd64", 4
	if err := writeFile(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rev != "t" || len(got.Benchmarks) != 1 || got.Benchmarks[0].Throughput != 123.5 {
		t.Fatalf("round trip mangled the report: %+v", got)
	}
}

func TestReadFileRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_bad.json")
	f := report("bad", map[string]float64{"a": 1})
	f.Schema = schemaVersion + 1
	if err := writeFile(path, f); err != nil {
		t.Fatal(err)
	}
	if _, err := readFile(path); err == nil {
		t.Fatal("schema mismatch must be rejected")
	}
}

// TestBenchTablePresets pins the preset composition: the CI preset must
// contain both LD kernels at the historical 512×512×1000 size (the
// flat-vs-tri comparison the acceptance record is built on), both scan
// engines, and the streamed scan at one and two LD threads; full must
// be a superset.
func TestBenchTablePresets(t *testing.T) {
	short := benchTable("short")
	names := make(map[string]bool)
	for _, c := range short {
		names[c.name] = true
	}
	for _, want := range []string{
		"ld/flat/512x512x1000", "ld/tri/512x512x1000",
		"ld/flat/256x256x1024", "ld/tri/256x256x1024",
		"scan/direct/g32", "scan/gemm-ld/g32",
		"scan/stream-bitmat/g32", "scan/stream-bitmat/g32t2",
		"omega/scalar/g24", "omega/blocked/g24", "omega/auto/g24",
	} {
		if !names[want] {
			t.Errorf("short preset missing %s", want)
		}
	}
	if full := benchTable("full"); len(full) <= len(short) {
		t.Errorf("full preset (%d) not larger than short (%d)", len(full), len(short))
	}
}
