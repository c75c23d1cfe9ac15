package omegago_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"omegago"
)

// recObs records every Progress/Phase event under a mutex (observers
// must be concurrency-safe; parallel schedulers and batch workers
// deliver from many goroutines).
type recObs struct {
	mu       sync.Mutex
	progress []omegago.Progress
	phases   []omegago.Phase
	hook     func(omegago.Progress)
}

func (r *recObs) OnProgress(p omegago.Progress) {
	r.mu.Lock()
	r.progress = append(r.progress, p)
	hook := r.hook
	r.mu.Unlock()
	if hook != nil {
		hook(p)
	}
}

func (r *recObs) OnPhase(p omegago.Phase) {
	r.mu.Lock()
	r.phases = append(r.phases, p)
	r.mu.Unlock()
}

func (r *recObs) events() []omegago.Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]omegago.Progress(nil), r.progress...)
}

func (r *recObs) spans() []omegago.Phase {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]omegago.Phase(nil), r.phases...)
}

// TestObsProgressAllBackends pins the Progress contract on every
// backend: GridDone is monotone for serial engines, the final event
// reports GridDone == GridTotal == GridSize, and all backends agree on
// the totals (they scan the same grid and score the same ω values).
func TestObsProgressAllBackends(t *testing.T) {
	ds := batchDatasets(t, 1, 901)[0]
	const grid = 12
	cases := []struct {
		name    string
		backend omegago.Backend
	}{
		{"cpu", omegago.BackendCPU},
		{"gpu-sim", omegago.BackendGPU},
		{"fpga-sim", omegago.BackendFPGA},
	}
	var scores []int64
	for _, c := range cases {
		rec := &recObs{}
		rep, err := omegago.Scan(ds, omegago.Config{
			GridSize: grid, MaxWindow: 40000, Backend: c.backend, Observer: rec,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		events := rec.events()
		if len(events) == 0 {
			t.Fatalf("%s: no progress events", c.name)
		}
		for i, p := range events {
			if p.Backend != c.name {
				t.Fatalf("%s: event backend %q", c.name, p.Backend)
			}
			if p.GridTotal != grid {
				t.Fatalf("%s: GridTotal %d, want %d", c.name, p.GridTotal, grid)
			}
			if i > 0 && p.GridDone < events[i-1].GridDone {
				t.Fatalf("%s: GridDone regressed %d → %d",
					c.name, events[i-1].GridDone, p.GridDone)
			}
		}
		last := events[len(events)-1]
		if last.GridDone != grid {
			t.Errorf("%s: final GridDone %d, want %d", c.name, last.GridDone, grid)
		}
		if last.OmegaScores != rep.OmegaScores || last.R2Computed != rep.R2Computed {
			t.Errorf("%s: final counters scores=%d r2=%d, report says %d/%d",
				c.name, last.OmegaScores, last.R2Computed, rep.OmegaScores, rep.R2Computed)
		}
		scores = append(scores, last.OmegaScores)
	}
	if scores[0] != scores[1] || scores[0] != scores[2] {
		t.Errorf("backends disagree on total ω scores: %v", scores)
	}

	// Concurrent CPU schedulers: callback order is not monotone, but no
	// event may overshoot and the counters must converge to the same
	// totals.
	for _, sched := range []omegago.Scheduler{omegago.SchedSnapshot, omegago.SchedSharded} {
		rec := &recObs{}
		rep, err := omegago.Scan(ds, omegago.Config{
			GridSize: grid, MaxWindow: 40000, Threads: 3, Sched: sched, Observer: rec,
		})
		if err != nil {
			t.Fatalf("%v: %v", sched, err)
		}
		var maxDone, maxScores int64
		for _, p := range rec.events() {
			if p.GridDone > grid {
				t.Fatalf("%v: GridDone %d exceeds the grid", sched, p.GridDone)
			}
			if p.GridDone > maxDone {
				maxDone = p.GridDone
			}
			if p.OmegaScores > maxScores {
				maxScores = p.OmegaScores
			}
		}
		if maxDone != grid {
			t.Errorf("%v: max GridDone %d, want %d", sched, maxDone, grid)
		}
		if maxScores != rep.OmegaScores {
			t.Errorf("%v: observed %d ω scores, report says %d", sched, maxScores, rep.OmegaScores)
		}
	}
}

// TestObsTracerReceivesPhases pins the Tracer absorption: a Tracer set
// as Config.Observer records the per-region LD/ω phases, and the
// sharded scheduler renders each shard on its own lane (track ≥ 2)
// exactly as the old Tracer hook did.
func TestObsTracerReceivesPhases(t *testing.T) {
	ds := batchDatasets(t, 1, 902)[0]
	tr := omegago.NewTracer()
	_, err := omegago.Scan(ds, omegago.Config{
		GridSize: 16, MaxWindow: 40000, Threads: 3, Sched: omegago.SchedSharded, Observer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	tracks := map[int]bool{}
	for _, s := range tr.Spans() {
		names[s.Name]++
		if s.Track >= 2 {
			tracks[s.Track] = true
		}
	}
	if names[omegago.PhaseLD] == 0 || names[omegago.PhaseOmega] == 0 {
		t.Errorf("missing ld/ω spans: %v", names)
	}
	if names["shard 0"] == 0 {
		t.Errorf("missing shard summary spans: %v", names)
	}
	if len(tracks) < 2 {
		t.Errorf("shard spans on %d lanes, want ≥ 2", len(tracks))
	}
}

// TestObsAcceleratorPhasesModeled pins that gpu-sim and fpga-sim mark
// their per-region phase durations as modeled device time.
func TestObsAcceleratorPhasesModeled(t *testing.T) {
	ds := batchDatasets(t, 1, 903)[0]
	for _, be := range []omegago.Backend{omegago.BackendGPU, omegago.BackendFPGA} {
		rec := &recObs{}
		if _, err := omegago.Scan(ds, omegago.Config{
			GridSize: 8, MaxWindow: 40000, Backend: be, Observer: rec,
		}); err != nil {
			t.Fatal(err)
		}
		modeled := 0
		for _, p := range rec.spans() {
			if (p.Name == omegago.PhaseLD || p.Name == omegago.PhaseOmega) && p.Modeled {
				modeled++
			}
		}
		if modeled == 0 {
			t.Errorf("%v emitted no modeled phases", be)
		}
	}
}

// TestObsScanBatchAggregation drives the acceptance scenario: a
// running ScanBatch feeds one merged Progress stream and a live
// Prometheus registry that is scraped over HTTP mid-run.
func TestObsScanBatchAggregation(t *testing.T) {
	const replicates, grid = 3, 10
	batch := batchDatasets(t, replicates, 904)
	reg := omegago.NewRegistry()
	met := omegago.NewMetrics(reg)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	var once sync.Once
	var liveMu sync.Mutex
	var liveBody string
	rec := &recObs{}
	rec.hook = func(p omegago.Progress) {
		if p.GridDone < p.GridTotal/2 {
			return
		}
		once.Do(func() {
			resp, err := http.Get(srv.URL)
			if err != nil {
				t.Errorf("live scrape failed: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			liveMu.Lock()
			liveBody = string(body)
			liveMu.Unlock()
		})
	}

	brep, err := omegago.ScanBatch(context.Background(), batch, omegago.Config{
		GridSize: grid, MaxWindow: 40000, BatchWorkers: 2,
		Observer: rec, Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The mid-run scrape saw live counters.
	liveMu.Lock()
	body := liveBody
	liveMu.Unlock()
	if body == "" {
		t.Fatal("no live scrape happened")
	}
	m := regexp.MustCompile(`(?m)^omegago_grid_positions_total (\d+)$`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("live scrape missing grid counter:\n%s", body)
	}
	if n, _ := strconv.Atoi(m[1]); n <= 0 || n > replicates*grid {
		t.Errorf("live grid counter %d outside (0, %d]", n, replicates*grid)
	}

	// Final aggregation: the batch stream covers every replicate.
	events := rec.events()
	last := events[len(events)-1]
	if last.GridTotal != replicates*grid {
		t.Errorf("GridTotal %d, want %d", last.GridTotal, replicates*grid)
	}
	if last.ReplicatesDone != replicates || last.ReplicatesTotal != replicates {
		t.Errorf("replicates %d/%d, want %d/%d",
			last.ReplicatesDone, last.ReplicatesTotal, replicates, replicates)
	}
	if met.GridPositions.Value() != int64(replicates*grid) {
		t.Errorf("grid counter = %d, want %d", met.GridPositions.Value(), replicates*grid)
	}
	if met.OmegaScores.Value() != brep.OmegaScores {
		t.Errorf("ω counter = %d, report says %d", met.OmegaScores.Value(), brep.OmegaScores)
	}
	if ev := met.OmegaEvaluated.Value(); ev != brep.OmegaEvaluated || ev <= 0 || ev > brep.OmegaScores {
		t.Errorf("evaluated counter = %d, report says %d of %d admissible", ev, brep.OmegaEvaluated, brep.OmegaScores)
	}
	// The process-wide throughput gauge is gone: concurrent scans
	// overwrote each other's value. Progress.OmegaPerSec carries it.
	if strings.Contains(body, "omegago_omega_per_second") {
		t.Error("/metrics still exposes omegago_omega_per_second")
	}
	if met.Scans.Value() != int64(replicates) || met.ScansInFlight.Value() != 0 {
		t.Errorf("lifecycle: scans=%d in-flight=%g", met.Scans.Value(), met.ScansInFlight.Value())
	}

	// Per-replicate wall-clock and the p50/p95 aggregate.
	for _, item := range brep.Replicates {
		if item.Report != nil && item.Seconds <= 0 {
			t.Errorf("replicate %d has no measured seconds", item.Index)
		}
	}
	p50, p95, ok := brep.ReplicateSeconds()
	if !ok || p50 <= 0 || p95 < p50 {
		t.Errorf("quantiles p50=%g p95=%g ok=%v", p50, p95, ok)
	}
	var sb strings.Builder
	if err := brep.WriteReport(&sb, "obs test"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "replicate seconds p50=") {
		t.Errorf("batch report missing quantile footer:\n%s", sb.String())
	}
}

// TestObsNilObserverBitIdentical pins that observability never touches
// the numbers: a fully instrumented scan returns the same results as a
// bare one.
func TestObsNilObserverBitIdentical(t *testing.T) {
	ds := batchDatasets(t, 1, 905)[0]
	bare, err := omegago.Scan(ds, omegago.Config{GridSize: 14, MaxWindow: 40000})
	if err != nil {
		t.Fatal(err)
	}
	reg := omegago.NewRegistry()
	watched, err := omegago.Scan(ds, omegago.Config{
		GridSize: 14, MaxWindow: 40000,
		Observer: &recObs{}, Metrics: omegago.NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare.Results, watched.Results) {
		t.Error("observed scan diverged from bare scan")
	}
}

// TestObsProgressWriterOnScan smokes the -progress implementation over
// a real scan: the final line is newline-terminated and complete.
func TestObsProgressWriterOnScan(t *testing.T) {
	ds := batchDatasets(t, 1, 906)[0]
	var sb syncBuilder
	if _, err := omegago.Scan(ds, omegago.Config{
		GridSize: 8, MaxWindow: 40000,
		Observer: omegago.NewProgressWriter(&sb, time.Microsecond),
	}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "8/8 positions (100.0%)") || !strings.HasSuffix(out, "\n") {
		t.Errorf("progress output malformed: %q", out)
	}
}

// syncBuilder is a strings.Builder safe for concurrent writers.
type syncBuilder struct {
	mu sync.Mutex
	sb strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sb.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sb.String()
}
