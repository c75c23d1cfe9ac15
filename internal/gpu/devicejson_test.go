package gpu

import (
	"context"
	"strings"
	"testing"

	"omegago/internal/omega"
)

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
	// withHost is the minimal profile plus one host-constant field.
	withHost := func(field string) string {
		return strings.TrimSuffix(minimal, "}") + `,` + field + `}`
	}
	bad := []string{
		`{"name":"x"}`,
		`{"compute_units":8,"warp_size":32,"sps_per_cu":64,"clock_mhz":1000,"mem_bandwidth_gbs":100,"pcie_bandwidth_gbs":8}`,
		`{"name":"x","compute_units":8,"warp_size":32,"sps_per_cu":64,"clock_mhz":-1,"mem_bandwidth_gbs":100,"pcie_bandwidth_gbs":8}`,
		`{"name":"x","unknown_field":1}`,
		`not json`,
		minimal + ` trailing`,
		minimal + minimal,
		withHost(`"launch_latency_us":-50`),
		withHost(`"launch_latency_us":1e300`),
		withHost(`"host_ns_per_byte":-1`),
		withHost(`"host_ns_per_byte_cold":-1`),
		withHost(`"host_cache_kb":-4`),
		withHost(`"host_cache_kb":9223372036854775807`),
	}
	for i, in := range bad {
		if _, err := DeviceFromJSON(strings.NewReader(in)); err == nil {
			t.Errorf("profile %d should fail: %s", i, in)
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
	p := omega.Params{GridSize: 8, MaxWindow: 60000}.WithDefaults()
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
