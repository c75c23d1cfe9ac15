// Command perfbench is the repository benchmark: three pinned-seed
// workloads (chrom-stream, replicate-batch, service-mix) that drive the
// public omegago entry points and an in-process omegad, check every
// output, and print end-to-end metrics (untraced runs) or per-layer
// metrics (traced runs). Layers are timed from outside: wrapped
// ChunkSource and store.Store values, the Config.Observer Phase seam,
// and HTTP round trips. Run it through run.sh, which builds it from the
// checkout:
//
//	bash perfbench/run.sh --workload chrom-stream --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the full record, with its
// provenance stamp, is written under .bench_build/results.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// spec is one workload's pinned definition (workloads.json).
type spec struct {
	Why   string `json:"why"`
	Shape shape  `json:"shape"`
	Grid  int    `json:"grid"`
	// MaxWindow is the per-side window bound in bp (0 = unbounded).
	MaxWindow float64 `json:"max_window,omitempty"`
	// Replicates is the batch size of replicate-batch.
	Replicates int `json:"replicates,omitempty"`
	// ReferenceOmega is the pinned ω count of one unit of work — one
	// chromosome scan, one whole batch, or (service-mix, per entry of
	// MaxWindows) one dataset scan. It depends only on the pinned SNP
	// layout and parameters, never on the program's counters.
	ReferenceOmega []int64 `json:"reference_omega"`
	// Service-mix traffic: parameter variants, open-loop rate, the seed
	// of the request schedule, cache-hit share, Zipf exponent, kind
	// shares and batch size. The schedule is pinned like the SNP layouts
	// (which request repeats which triple, and when, is part of the
	// workload); the benchmark seed draws the datasets' genotypes.
	MaxWindows      []float64 `json:"max_windows,omitempty"`
	RatePerS        float64   `json:"rate_per_s,omitempty"`
	ScheduleSeed    uint64    `json:"schedule_seed,omitempty"`
	HitShare        float64   `json:"hit_share,omitempty"`
	ZipfS           float64   `json:"zipf_s,omitempty"`
	StreamShare     float64   `json:"stream_share,omitempty"`
	BatchShare      float64   `json:"batch_share,omitempty"`
	BatchReplicates int       `json:"batch_replicates,omitempty"`
	// GoldenSeed / GoldenDigest pin the output digest at one seed.
	GoldenSeed   uint64 `json:"golden_seed"`
	GoldenDigest string `json:"golden_digest"`
}

func loadSpecs() (map[string]spec, error) {
	var m map[string]spec
	if err := json.Unmarshal(workloadsJSON, &m); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return m, nil
}

// metricDef names a metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists the metrics every untraced run prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"momega_per_s", "Momega/s"},
	{"scan_p50_s", "s"},
	{"scan_p90_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// perLayer lists the metrics every traced run prints; a layer a
// workload does not use reads 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"ld.busy_s", "s"}, {"ld.share", "ratio"}, {"ld.r2_computed", "count"},
		{"ld.r2_reused", "count"}, {"ld.reuse_ratio", "ratio"}, {"ld.mpairs_per_s", "Mpairs/s"},
		{"ld.ops_computed", "ops"}, {"ld.bytes_computed", "B"}, {"ld.ops_per_byte", "ops/B"},
		{"ld.roofline_frac", "ratio"},
		{"omega.busy_s", "s"}, {"omega.share", "ratio"}, {"omega.mscores_per_s", "Mscores/s"},
		{"omega.scores_ratio", "ratio"}, {"omega.blocked_regions", "count"},
		{"omega.scalar_regions", "count"}, {"omega.r2_duplicated", "count"}, {"omega.dup_ratio", "ratio"},
		{"omega.ops_computed", "ops"}, {"omega.bytes_computed", "B"}, {"omega.ops_per_byte", "ops/B"},
		{"omega.roofline_frac", "ratio"},
		{"seqio.open_s", "s"}, {"seqio.read_chunk_calls", "count"}, {"seqio.read_chunk_s", "s"},
		{"seqio.bytes_read", "B"}, {"seqio.stall_s", "s"}, {"seqio.overlap_ratio", "ratio"},
		{"omegago.scan.calls", "count"}, {"omegago.scan.busy_s", "s"},
		{"omegago.scan_batch.calls", "count"}, {"omegago.scan_batch.busy_s", "s"},
		{"omegago.scan_stream.calls", "count"}, {"omegago.scan_stream.busy_s", "s"},
		{"omegago.replicate_p50_s", "s"}, {"omegago.replicate_p90_s", "s"},
		{"omegago.replicate_spread", "ratio"},
		{"service.submit_ms_p50", "ms"}, {"service.queue_wait_ms_p50", "ms"},
		{"service.queue_wait_ms_p90", "ms"}, {"service.run_ms_p50", "ms"}, {"service.run_ms_p90", "ms"},
		{"service.fetch_ms_p50", "ms"}, {"service.cache_hit_ratio", "ratio"},
		{"service.rejected", "count"}, {"service.polls_per_job", "count"},
	}
	for _, op := range storeOpNames {
		d = append(d, metricDef{"store." + op + ".calls", "count"}, metricDef{"store." + op + ".busy_s", "s"})
	}
	return append(d,
		metricDef{"store.get_result.hit_ratio", "ratio"},
		metricDef{"api.request_bytes", "B"}, metricDef{"api.response_bytes", "B"}, metricDef{"api.decode_s", "s"},
		metricDef{"loadgen.lag_p90_ms", "ms"}, metricDef{"loadgen.max_outstanding", "count"},
		metricDef{"roofline.popcount_gops", "Gops/s"}, metricDef{"roofline.flops_g", "Gflop/s"},
		metricDef{"roofline.bw_gbs", "GB/s"},
		metricDef{"trace.coverage", "ratio"}, metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"failed_ratio", "ratio"},
	)
}()

// runCtx is what a workload runner gets: its pinned spec and the
// command-line settings.
type runCtx struct {
	spec    spec
	seed    uint64
	seconds time.Duration
	nproc   int
	workDir string
	rec     *recorder // nil on untraced runs
}

// recFor returns the recorder for the i-th unit of work. Traced runs
// alternate traced and untraced units, so the same run measures the
// tracing overhead.
func (rc *runCtx) recFor(i int) *recorder {
	if i%2 == 1 {
		return rc.rec
	}
	return nil
}

// outcome is what a workload runner reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var runners = map[string]func(*runCtx) (*outcome, error){
	"chrom-stream":    runChrom,
	"replicate-batch": runBatch,
	"service-mix":     runService,
}

// measureSetup runs fn at least minSetups times, and more (up to
// maxSetups) until the repeats add up to setupBudget, and returns the
// median wall time. The last repetition's state is the one the run uses.
func measureSetup(fn func() error) (float64, error) {
	var secs []float64
	total := 0.0
	for len(secs) < minSetups || (total < setupBudget.Seconds() && len(secs) < maxSetups) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(t0).Seconds()
		secs = append(secs, d)
		total += d
	}
	return quantile(secs, 0.5), nil
}

const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload name (chrom-stream, replicate-batch, service-mix)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "seconds to measure")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	gitRev := flag.String("git-rev", "none", "revision stamped into the result record")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traceFlag == 1, *gitRev); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds int, traced bool, gitRev string) error {
	specs, err := loadSpecs()
	if err != nil {
		return err
	}
	sp, ok := specs[workload]
	runner := runners[workload]
	if !ok || runner == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d < 1", seconds)
	}
	workDir, err := os.MkdirTemp(mkdirAll(benchDir), "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	rc := &runCtx{
		spec: sp, seed: seed, seconds: time.Duration(seconds) * time.Second,
		nproc: runtime.NumCPU(), workDir: workDir,
	}
	if traced {
		rc.rec = newRecorder()
	}
	res, err := runner(rc)
	if err != nil {
		return err
	}
	if res.attempted < 1 {
		return errors.New("no operation attempted")
	}

	defs := endToEnd
	if traced {
		defs = perLayer
		res.metrics["failed_ratio"] = float64(res.failed) / float64(res.attempted)
	}
	metrics := map[string]metricOut{}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok && !traced {
			return fmt.Errorf("workload %s did not measure %s", workload, d.Name)
		}
		metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}

	for _, n := range res.notes {
		fmt.Println("# " + n)
	}
	if traced {
		writeLayerTable(os.Stdout, summarize(rc.rec.all()))
	}
	for _, d := range defs {
		fmt.Printf("# %-34s %16.6g %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}

	rec := record{
		Provenance: stamp(workload, seed, seconds, traced, gitRev, sp),
		Correct:    res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: metrics,
		Notes: res.notes,
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", workload, seed, traceFlag(traced))
	if err := writeRecord(filepath.Join(mkdirAll(filepath.Join(benchDir, "results")), base+".json"), rec); err != nil {
		return err
	}
	if traced {
		tp := filepath.Join(mkdirAll(filepath.Join(benchDir, "traces")), base+".json")
		if err := rc.rec.exportChrome(tp); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Println("# trace written to " + tp)
	}

	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return fmt.Errorf("%d of %d operations failed or returned a wrong result", res.failed, res.attempted)
	}
	return nil
}

// benchDir holds everything a run leaves behind, relative to the
// checkout root run.sh starts the benchmark from.
const benchDir = ".bench_build"

func traceFlag(traced bool) int {
	if traced {
		return 1
	}
	return 0
}

// mkdirAll creates dir (best effort; a later create reports the error)
// and returns it.
func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
