package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"omegago"
	"omegago/api"
	"omegago/internal/service/store"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {1, 50}, {10, 50}, {20, 50}, {40, 75}, {50, 80}, {99, 100 * (1 - 10.0/99)}, {100, 90}, {1000, 90},
	} {
		got := tailPercentile(c.n, 90)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d, 90) = %g, want %g", c.n, got, c.want)
		}
		// The rule's defining property: at least ten samples lie beyond
		// the percentile, unless it fell back to the median.
		if got > 50 && float64(c.n)*(1-got/100) < 10-1e-9 {
			t.Errorf("n=%d: p%g leaves fewer than 10 samples beyond it", c.n, got)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %g, want 3", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("q1 = %g, want 2", q)
	}
	if q := quantile(xs, 1); q != 5 {
		t.Errorf("max = %g, want 5", q)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func serviceSpec(t *testing.T) spec {
	t.Helper()
	specs, err := loadSpecs()
	if err != nil {
		t.Fatal(err)
	}
	return specs["service-mix"]
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	sp := serviceSpec(t)
	a, b := buildSchedule(sp, 7, 500), buildSchedule(sp, 7, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a.Requests, buildSchedule(sp, 8, 500).Requests) {
		t.Fatal("different seeds gave the same schedule")
	}
	gap := time.Duration(float64(time.Second) / sp.RatePerS)
	repeats := 0
	firstUse := map[int]bool{}
	for i, r := range a.Requests {
		if r.Due != time.Duration(i)*gap {
			t.Fatalf("request %d due at %v, want %v (open loop at a fixed rate)", i, r.Due, time.Duration(i)*gap)
		}
		if firstUse[r.Triple] {
			repeats++
		}
		firstUse[r.Triple] = true
	}
	if share := float64(repeats) / float64(len(a.Requests)); math.Abs(share-sp.HitShare) > 0.08 {
		t.Errorf("repeat share %.2f, want about %.2f", share, sp.HitShare)
	}
	for _, tr := range a.Triples {
		want := 1
		if tr.Kind == kindBatch {
			want = sp.BatchReplicates
		}
		if len(tr.Datasets) != want {
			t.Errorf("%s triple has %d datasets, want %d", tr.Kind, len(tr.Datasets), want)
		}
	}
}

func TestZipfDeterministicAndSkewed(t *testing.T) {
	z := newZipfTable(100, 1.1)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		u := float64(i) / 10000
		k := z.draw(u, 10)
		if k != z.draw(u, 10) {
			t.Fatal("draw is not a function of u")
		}
		counts[k]++
	}
	for k := 1; k < len(counts); k++ {
		if counts[k] > counts[k-1] {
			t.Errorf("rank %d drawn %d times, more than rank %d (%d)", k, counts[k], k-1, counts[k-1])
		}
	}
	if counts[0] < 2*counts[9] {
		t.Errorf("rank 0 (%d) not clearly more popular than rank 9 (%d)", counts[0], counts[9])
	}
}

func TestDigestIgnoresCountersButCatchesOmegaBit(t *testing.T) {
	rows := []omegago.Result{
		{Center: 100, Valid: true, MaxOmega: 3.25, LeftPos: 10, RightPos: 190, Scores: 40},
		{Center: 200},
	}
	base := digest(rows)
	counters := append([]omegago.Result(nil), rows...)
	counters[0].Scores = 7
	counters[0].LeftBorder, counters[0].RightBorder = 3, 9
	if digest(counters) != base {
		t.Error("digest changed with the work counters")
	}
	flipped := append([]omegago.Result(nil), rows...)
	flipped[0].MaxOmega = math.Float64frombits(math.Float64bits(rows[0].MaxOmega) ^ 1)
	if digest(flipped) == base {
		t.Error("digest missed a flipped ω bit")
	}
	wire := []api.ResultRow{
		{Position: 100, Valid: true, Omega: 3.25, WinLeft: 10, WinRight: 190, Scores: 40},
		{Position: 200},
	}
	if rowsDigest(wire) != base {
		t.Error("wire rows and library rows digest differently")
	}
}

func smallDataset(t *testing.T, seed uint64) *omegago.Dataset {
	t.Helper()
	return generate(shape{Samples: 20, SNPs: 300, LengthBP: 1e5, LayoutSeed: 3}, seed, 0)
}

func TestGenerateDeterministic(t *testing.T) {
	h1, _ := omegago.DatasetContentHash(smallDataset(t, 1))
	h2, _ := omegago.DatasetContentHash(smallDataset(t, 1))
	h3, _ := omegago.DatasetContentHash(smallDataset(t, 2))
	if h1 != h2 {
		t.Error("same seed gave different datasets")
	}
	if h1 == h3 {
		t.Error("different seeds gave the same dataset")
	}
	a, b := smallDataset(t, 1), smallDataset(t, 2)
	if !reflect.DeepEqual(a.Positions, b.Positions) {
		t.Error("the SNP layout depends on the seed; it must be pinned")
	}
}

func TestChunkSourceWrapperPassesThrough(t *testing.T) {
	ds := smallDataset(t, 1)
	plain, err := omegago.NewDatasetSource(ds)
	if err != nil {
		t.Fatal(err)
	}
	inner, _ := omegago.NewDatasetSource(ds)
	w := &countingSource{ChunkSource: inner, rec: newRecorder(), parent: 1}
	if !reflect.DeepEqual(w.Meta(), plain.Meta()) {
		t.Fatal("Meta differs through the wrapper")
	}
	var bytes int64
	for _, c := range [][2]int{{0, 100}, {50, 200}, {200, 300}} {
		a1, s1, e1 := plain.ReadChunk(c[0], c[1])
		a2, s2, e2 := w.ReadChunk(c[0], c[1])
		if !reflect.DeepEqual(a1, a2) || s1 != s2 || (e1 == nil) != (e2 == nil) {
			t.Fatalf("chunk %v differs through the wrapper", c)
		}
		bytes += s1.Bytes
	}
	_, _, e1 := plain.ReadChunk(0, 10)
	_, _, e2 := w.ReadChunk(0, 10)
	if e1 == nil || e2 == nil || e1.Error() != e2.Error() {
		t.Fatalf("backwards read: errors %v vs %v", e1, e2)
	}
	if got := w.reads.calls.Load(); got != 4 {
		t.Errorf("counted %d reads, want 4", got)
	}
	if w.bytes.Load() != bytes {
		t.Errorf("counted %d bytes, want %d", w.bytes.Load(), bytes)
	}
	if n := len(w.rec.all()); n != 4 {
		t.Errorf("recorded %d spans, want 4", n)
	}
}

func TestStoreWrapperPassesThrough(t *testing.T) {
	plain := store.NewMem(store.Options{ResultEntries: 8})
	w := &countingStore{Store: store.NewMem(store.Options{ResultEntries: 8})}
	ds := smallDataset(t, 1)

	h1, e1 := plain.PutBlob(ds)
	h2, e2 := w.PutBlob(ds)
	if h1 != h2 || e1 != nil || e2 != nil {
		t.Fatalf("PutBlob: %x/%v vs %x/%v", h1, e1, h2, e2)
	}
	hh := hexKey(h1)
	a1, ok1, _ := plain.GetBlob(hh)
	a2, ok2, _ := w.GetBlob(hh)
	if !ok1 || !ok2 || !reflect.DeepEqual(a1, a2) {
		t.Fatal("GetBlob differs through the wrapper")
	}
	_, ok1, e1 = plain.GetBlob(hexKey([32]byte{1}))
	_, ok2, e2 = w.GetBlob(hexKey([32]byte{1}))
	if ok1 || ok2 || (e1 == nil) != (e2 == nil) {
		t.Fatal("GetBlob miss differs through the wrapper")
	}
	_, ok1, _ = plain.OpenBlob(hh)
	_, ok2, _ = w.OpenBlob(hh)
	if ok1 != ok2 {
		t.Fatal("OpenBlob differs through the wrapper")
	}

	rep, err := omegago.Scan(ds, omegago.Config{GridSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	sr := rep.APIReport("", hh)
	res := api.JobResult{Schema: api.SchemaVersion, Kind: api.KindScan, Scan: &sr}
	key := hexKey([32]byte{2})
	if e1, e2 := plain.PutResult(key, res), w.PutResult(key, res); e1 != nil || e2 != nil {
		t.Fatalf("PutResult: %v vs %v", e1, e2)
	}
	r1, ok1, _ := plain.GetResult(key)
	r2, ok2, _ := w.GetResult(key)
	if !ok1 || !ok2 || !reflect.DeepEqual(r1, r2) {
		t.Fatal("GetResult differs through the wrapper")
	}
	if _, ok, _ := w.GetResult(hexKey([32]byte{3})); ok {
		t.Fatal("GetResult hit on an absent key")
	}
	bad := store.JobRecord{Schema: -1}
	if e1, e2 := plain.PutJob(bad), w.PutJob(bad); e1 == nil || e2 == nil || e1.Error() != e2.Error() {
		t.Fatalf("PutJob error: %v vs %v", e1, e2)
	}

	for op, want := range map[int]int64{opPutBlob: 1, opGetBlob: 2, opOpenBlob: 1, opPutResult: 1, opGetResult: 2, opPutJob: 1} {
		if got := w.ops[op].calls.Load(); got != want {
			t.Errorf("%s: %d calls, want %d", storeOpNames[op], got, want)
		}
	}
	if w.resultHit.Load() != 1 {
		t.Errorf("result hits = %d, want 1", w.resultHit.Load())
	}
}

func hexKey(h [32]byte) string { return hex.EncodeToString(h[:]) }

func TestSelfTimeAndCoverage(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	rec := newRecorder()
	parent := rec.reserve()
	rec.finish(span{ID: parent, Layer: "omegago", Name: "scan", Start: at(0), End: at(100)})
	rec.add(span{Parent: parent, Layer: "ld", Name: "ld", Start: at(10), End: at(50)})
	rec.add(span{Parent: parent, Layer: "ld", Name: "ld", Start: at(40), End: at(60)}) // overlaps
	rec.add(span{Parent: parent, Layer: "seqio", Name: "stall", Start: at(60), End: at(70), Wait: true})
	st := summarize(rec.all())
	if got := st["omegago"].Self; got != 40*time.Millisecond {
		t.Errorf("self time %v, want 40ms (100 minus the 60ms its children cover)", got)
	}
	if got := st["ld"].Busy; got != 60*time.Millisecond {
		t.Errorf("ld busy %v, want 60ms", got)
	}
	if got := st["seqio"].WaitDur; got != 10*time.Millisecond {
		t.Errorf("seqio wait %v, want 10ms", got)
	}
	rec.add(span{Layer: "bench", Name: "job", Start: at(0), End: at(200)})
	if c := coverage(rec.all(), []interval{{at(0), at(200)}}); math.Abs(c-0.5) > 1e-12 {
		t.Errorf("coverage %g, want 0.5", c)
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	sp := serviceSpec(t)
	a := record{Provenance: stamp("service-mix", 1, 10, false, "a", sp)}
	b := record{Provenance: stamp("service-mix", 2, 10, false, "b", sp)}
	if err := checkComparable(a, b); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	b.Provenance.Host.CPUs++
	if checkComparable(a, b) == nil {
		t.Fatal("records from different hosts compared")
	}
}

// TestBenchmarkJSONMatchesMetrics checks the repository's
// BENCHMARK.json against the metric and workload lists this program
// prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	specs, _ := loadSpecs()
	for _, w := range b.Workloads {
		if runners[w.Name] == nil || specs[w.Name].Grid == 0 {
			t.Errorf("workload %s has no runner or spec", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		// The pinned reference ω counts and the service rate are
		// recorded beside the workload, so they must match the spec.
		sp := specs[w.Name]
		for _, ref := range sp.ReferenceOmega {
			if !strings.Contains(w.Why, strconv.FormatInt(ref, 10)) {
				t.Errorf("workload %s: why does not record reference_omega %d", w.Name, ref)
			}
		}
		if sp.RatePerS > 0 && !strings.Contains(w.Why, fmt.Sprintf("%g req/s", sp.RatePerS)) {
			t.Errorf("workload %s: why does not record the rate %g req/s", w.Name, sp.RatePerS)
		}
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, program prints %s/%s",
					what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestOracleAgreesWithLibraryAndCatchesDrift(t *testing.T) {
	ds := smallDataset(t, 4)
	for _, mw := range []float64{0, 20000} {
		rep, err := omegago.Scan(ds, omegago.Config{GridSize: 9, MaxWindow: mw})
		if err != nil {
			t.Fatal(err)
		}
		if err := oracleCheck(ds, 9, mw, rep.Results, 9); err != nil {
			t.Fatalf("max window %v: %v", mw, err)
		}
		bad := append([]omegago.Result(nil), rep.Results...)
		for i := range bad {
			if bad[i].Valid {
				bad[i].MaxOmega *= 1 + 1e-6
				break
			}
		}
		if oracleCheck(ds, 9, mw, bad, 9) == nil {
			t.Fatalf("max window %v: oracle missed a 1e-6 relative ω error", mw)
		}
	}
}
