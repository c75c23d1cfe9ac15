package gpu

import (
	"context"
	"math/bits"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"omegago/internal/gemm"
	"omegago/internal/ld"
	"omegago/internal/omega"
	"omegago/internal/seqio"
)

func TestQueueBufferEvents(t *testing.T) {
	q := NewQueue(TeslaK80)
	if q.Device().Name != TeslaK80.Name {
		t.Error("device accessor wrong")
	}
	b := q.CreateFloatBuffer("ts", []float64{1, 2, 3})
	if b.Bytes() != 24 {
		t.Errorf("buffer bytes %d, want 24", b.Bytes())
	}
	w := q.CreateWordBuffer("rows", []uint64{7})
	if w.Bytes() != 8 {
		t.Errorf("word buffer bytes %d", w.Bytes())
	}
	c := q.CreateIntBuffer("out", 10)
	_ = q.ReadInts(c)
	evs := q.Events()
	if len(evs) != 3 { // two writes + one read (int buffer alloc is free)
		t.Fatalf("%d events, want 3", len(evs))
	}
	if evs[0].Op != "write" || evs[2].Op != "read" {
		t.Errorf("event ops wrong: %v", evs)
	}
	if q.ModeledSeconds() <= 0 {
		t.Error("transfers must cost time")
	}
	if !strings.Contains(evs[0].String(), "write") {
		t.Error("event String wrong")
	}
}

func TestEnqueueNDRangeCoversAllItems(t *testing.T) {
	q := NewQueue(RadeonHD8750M)
	const n = 1000 // not a multiple of the work-group size
	var sum atomic.Int64
	seen := make([]int32, n)
	q.EnqueueNDRange("touch", n, 256, 10, func(wi WorkItem) {
		atomic.AddInt32(&seen[wi.Global], 1)
		sum.Add(int64(wi.Global))
		if wi.Group*256+wi.Local != wi.Global {
			t.Errorf("work-item geometry wrong: %+v", wi)
		}
	})
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("item %d executed %d times", i, s)
		}
	}
	if sum.Load() != int64(n*(n-1)/2) {
		t.Errorf("sum = %d", sum.Load())
	}
	evs := q.Events()
	if len(evs) != 1 || evs[0].Op != "kernel" || evs[0].Seconds <= 0 {
		t.Errorf("kernel event wrong: %v", evs)
	}
}

func TestEnqueueNDRangeDefaultLocalSize(t *testing.T) {
	q := NewQueue(TeslaK80)
	ran := atomic.Int64{}
	q.EnqueueNDRange("d", 10, 0, 1, func(WorkItem) { ran.Add(1) })
	if ran.Load() != 10 {
		t.Errorf("%d items ran", ran.Load())
	}
}

func TestGemmOnDeviceMatchesCPU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []struct{ ra, rb, cols int }{
		{1, 1, 10}, {5, 7, 64}, {33, 17, 200}, {64, 64, 130},
	} {
		a := gemm.NewBitMatrix(shape.ra, shape.cols)
		b := gemm.NewBitMatrix(shape.rb, shape.cols)
		for i := 0; i < shape.ra; i++ {
			for j := 0; j < shape.cols; j++ {
				a.Set(i, j, rng.Intn(2) == 1)
			}
		}
		for i := 0; i < shape.rb; i++ {
			for j := 0; j < shape.cols; j++ {
				b.Set(i, j, rng.Intn(2) == 1)
			}
		}
		q := NewQueue(TeslaK80)
		got, rep := GemmOnDevice(q, a, b)
		want := gemm.PopcountGemmNaive(a, b)
		for k := range got.Data {
			if got.Data[k] != want.Data[k] {
				t.Fatalf("shape %+v: element %d = %d, want %d", shape, k, got.Data[k], want.Data[k])
			}
		}
		if rep.Pairs != int64(shape.ra*shape.rb) || rep.ModeledSecond <= 0 {
			t.Errorf("report wrong: %+v", rep)
		}
		// Queue log: A write, B write, kernel, read.
		if evs := q.Events(); len(evs) != 4 {
			t.Errorf("%d events, want 4", len(evs))
		}
	}
}

func TestGemmOnDeviceEmpty(t *testing.T) {
	q := NewQueue(TeslaK80)
	got, rep := GemmOnDevice(q, gemm.NewBitMatrix(0, 10), gemm.NewBitMatrix(0, 10))
	if len(got.Data) != 0 || rep.Pairs != 0 {
		t.Error("empty GEMM should be empty")
	}
}

func TestPopcount64MatchesStdlib(t *testing.T) {
	f := func(x uint64) bool {
		return popcount64(x) == bits.OnesCount64(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDeviceGemmLargerThanOmegaKernelCost(t *testing.T) {
	// Sanity: modeled kernel time must scale with the word count.
	rng := rand.New(rand.NewSource(9))
	mk := func(cols int) *gemm.BitMatrix {
		m := gemm.NewBitMatrix(32, cols)
		for i := 0; i < 32; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, rng.Intn(2) == 1)
			}
		}
		return m
	}
	qSmall := NewQueue(TeslaK80)
	small := mk(64)
	GemmOnDevice(qSmall, small, small)
	qBig := NewQueue(TeslaK80)
	big := mk(6400)
	GemmOnDevice(qBig, big, big)
	if qBig.ModeledSeconds() <= qSmall.ModeledSeconds() {
		t.Errorf("100x more words should cost more: %g vs %g",
			qBig.ModeledSeconds(), qSmall.ModeledSeconds())
	}
}

func TestLaunchOmegaQueuedMatchesLaunchOmega(t *testing.T) {
	a := testAlignment(t, 300, 35, 101)
	p := omegaParams(12, 60000)
	regions, err := buildRegions(a, p)
	if err != nil {
		t.Fatal(err)
	}
	m := newDPMatrix(a)
	for _, reg := range regions {
		if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
			continue
		}
		m.Advance(reg.Lo, reg.Hi)
		in := buildKernelInput(m, a, reg, p)
		if in == nil {
			continue
		}
		for _, kind := range []Kind{KernelI, KernelII, Dynamic} {
			want, _ := LaunchOmega(TeslaK80, kind, in, a, Options{})
			q := NewQueue(TeslaK80)
			got, events := LaunchOmegaQueued(q, kind, in, a)
			if got.Valid != want.Valid {
				t.Fatalf("region %d kind %v: validity mismatch", reg.Index, kind)
			}
			if !want.Valid {
				continue
			}
			if got.MaxOmega != want.MaxOmega || got.LeftBorder != want.LeftBorder ||
				got.RightBorder != want.RightBorder || got.Scores != want.Scores {
				t.Fatalf("region %d kind %v: queued result differs", reg.Index, kind)
			}
			// Event log: 7 buffer writes + 1 kernel.
			if len(events) != 8 {
				t.Fatalf("region %d: %d events, want 8", reg.Index, len(events))
			}
			if events[7].Op != "kernel" {
				t.Fatalf("last event %v, want kernel", events[7])
			}
			if q.ModeledSeconds() <= 0 {
				t.Fatal("queued launch must cost modeled time")
			}
		}
	}
}

func TestLaunchOmegaQueuedNil(t *testing.T) {
	q := NewQueue(TeslaK80)
	res, events := LaunchOmegaQueued(q, Dynamic, nil, nil)
	if res.Valid || events != nil {
		t.Error("nil input should be empty")
	}
}

// helpers bridging to the omega package for the queued-launch tests.
func omegaParams(grid int, maxwin float64) omega.Params {
	return omega.Params{GridSize: grid, MaxWindow: maxwin}.WithDefaults()
}

func buildRegions(a *seqio.Alignment, p omega.Params) ([]omega.Region, error) {
	return omega.BuildRegions(a, p)
}

func newDPMatrix(a *seqio.Alignment) *omega.DPMatrix {
	return omega.NewDPMatrix(ld.NewComputer(a, ld.Direct, 1))
}

func buildKernelInput(m *omega.DPMatrix, a *seqio.Alignment, reg omega.Region, p omega.Params) *omega.KernelInput {
	return omega.BuildKernelInput(m, a, reg, p)
}

func TestDeviceJSONRoundTrip(t *testing.T) {
	var sb strings.Builder
	if err := MarshalProfileJSON(TeslaK80, &sb); err != nil {
		t.Fatal(err)
	}
	got, err := DeviceFromJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got != TeslaK80 {
		t.Errorf("round trip changed device:\n%+v\n%+v", got, TeslaK80)
	}
}

func TestDeviceFromJSONDefaultsAndErrors(t *testing.T) {
	minimal := `{"name":"TestGPU","compute_units":8,"warp_size":32,"sps_per_cu":64,
		"clock_mhz":1000,"mem_bandwidth_gbs":100,"pcie_bandwidth_gbs":8}`
	d, err := DeviceFromJSON(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	if d.LaunchLatency != TeslaK80.LaunchLatency || d.HostCacheBytes != TeslaK80.HostCacheBytes {
		t.Error("host defaults not inherited")
	}
	if d.Threshold() != 8*32*32 {
		t.Errorf("threshold %d", d.Threshold())
	}
	bad := []string{
		`{"name":"x"}`,
		`{"compute_units":8,"warp_size":32,"sps_per_cu":64,"clock_mhz":1000,"mem_bandwidth_gbs":100,"pcie_bandwidth_gbs":8}`,
		`{"name":"x","compute_units":8,"warp_size":32,"sps_per_cu":64,"clock_mhz":-1,"mem_bandwidth_gbs":100,"pcie_bandwidth_gbs":8}`,
		`{"name":"x","unknown_field":1}`,
		`not json`,
	}
	for i, in := range bad {
		if _, err := DeviceFromJSON(strings.NewReader(in)); err == nil {
			t.Errorf("profile %d should fail", i)
		}
	}
}

func TestCustomDeviceRunsScan(t *testing.T) {
	// A custom profile must work through the whole simulated stack and
	// produce the same results as the built-ins.
	minimal := `{"name":"BigGPU","compute_units":40,"warp_size":32,"sps_per_cu":128,
		"clock_mhz":1500,"mem_bandwidth_gbs":900,"pcie_bandwidth_gbs":25}`
	d, err := DeviceFromJSON(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	a := testAlignment(t, 150, 25, 111)
	p := omegaParams(8, 60000)
	ref, err := ScanCtx(context.Background(), TeslaK80, Dynamic, a, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ScanCtx(context.Background(), d, Dynamic, a, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Results {
		if ref.Results[i].Valid && got.Results[i].MaxOmega != ref.Results[i].MaxOmega {
			t.Fatal("custom device changed results")
		}
	}
	if got.OmegaKernelSeconds >= ref.OmegaKernelSeconds {
		t.Errorf("a much bigger GPU should model faster kernels: %g vs %g",
			got.OmegaKernelSeconds, ref.OmegaKernelSeconds)
	}
}
