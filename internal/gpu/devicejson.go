package gpu

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// deviceJSON is the on-disk device profile schema. Durations are
// expressed in microseconds for readability.
type deviceJSON struct {
	Name              string  `json:"name"`
	ComputeUnits      int     `json:"compute_units"`
	WarpSize          int     `json:"warp_size"`
	SPsPerCU          int     `json:"sps_per_cu"`
	ClockMHz          float64 `json:"clock_mhz"`
	MemBandwidthGBs   float64 `json:"mem_bandwidth_gbs"`
	PCIeBandwidthGBs  float64 `json:"pcie_bandwidth_gbs"`
	LaunchLatencyUS   float64 `json:"launch_latency_us"`
	HostNsPerByte     float64 `json:"host_ns_per_byte"`
	HostNsPerByteCold float64 `json:"host_ns_per_byte_cold"`
	HostCacheKB       int64   `json:"host_cache_kb"`
}

// DeviceFromJSON reads a custom device profile, so the cost models can
// be pointed at hardware beyond the paper's two systems. Decoding is
// strict: unknown fields, trailing data, negative host constants and
// durations or sizes that overflow are rejected. Unset (zero) host
// constants inherit the Tesla K80 host defaults.
func DeviceFromJSON(r io.Reader) (Device, error) {
	var dj deviceJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&dj); err != nil {
		return Device{}, fmt.Errorf("gpu: decoding device profile: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Device{}, fmt.Errorf("gpu: trailing data after device profile")
	}
	if dj.Name == "" || dj.ComputeUnits <= 0 || dj.WarpSize <= 0 || dj.SPsPerCU <= 0 {
		return Device{}, fmt.Errorf("gpu: device profile needs name, compute_units, warp_size, sps_per_cu")
	}
	if dj.ClockMHz <= 0 || dj.MemBandwidthGBs <= 0 || dj.PCIeBandwidthGBs <= 0 {
		return Device{}, fmt.Errorf("gpu: device profile needs positive clock and bandwidths")
	}
	if dj.LaunchLatencyUS < 0 || dj.HostNsPerByte < 0 || dj.HostNsPerByteCold < 0 || dj.HostCacheKB < 0 {
		return Device{}, fmt.Errorf("gpu: device profile host constants must not be negative")
	}
	if dj.LaunchLatencyUS > float64(math.MaxInt64/int64(time.Microsecond)) || dj.HostCacheKB > math.MaxInt64>>10 {
		return Device{}, fmt.Errorf("gpu: device profile launch_latency_us or host_cache_kb overflows")
	}
	d := Device{
		Name:              dj.Name,
		ComputeUnits:      dj.ComputeUnits,
		WarpSize:          dj.WarpSize,
		SPsPerCU:          dj.SPsPerCU,
		ClockMHz:          dj.ClockMHz,
		MemBandwidthGBs:   dj.MemBandwidthGBs,
		PCIeBandwidthGBs:  dj.PCIeBandwidthGBs,
		LaunchLatency:     time.Duration(dj.LaunchLatencyUS * float64(time.Microsecond)),
		HostNsPerByte:     dj.HostNsPerByte,
		HostNsPerByteCold: dj.HostNsPerByteCold,
		HostCacheBytes:    dj.HostCacheKB << 10,
	}
	if d.LaunchLatency == 0 {
		d.LaunchLatency = TeslaK80.LaunchLatency
	}
	if d.HostNsPerByte == 0 {
		d.HostNsPerByte = TeslaK80.HostNsPerByte
	}
	if d.HostNsPerByteCold == 0 {
		d.HostNsPerByteCold = TeslaK80.HostNsPerByteCold
	}
	if d.HostCacheBytes == 0 {
		d.HostCacheBytes = TeslaK80.HostCacheBytes
	}
	return d, nil
}

// MarshalProfileJSON renders a device as the profile schema (the
// inverse of DeviceFromJSON), for exporting the built-in catalog as
// templates.
func MarshalProfileJSON(d Device, w io.Writer) error {
	dj := deviceJSON{
		Name:              d.Name,
		ComputeUnits:      d.ComputeUnits,
		WarpSize:          d.WarpSize,
		SPsPerCU:          d.SPsPerCU,
		ClockMHz:          d.ClockMHz,
		MemBandwidthGBs:   d.MemBandwidthGBs,
		PCIeBandwidthGBs:  d.PCIeBandwidthGBs,
		LaunchLatencyUS:   float64(d.LaunchLatency) / float64(time.Microsecond),
		HostNsPerByte:     d.HostNsPerByte,
		HostNsPerByteCold: d.HostNsPerByteCold,
		HostCacheKB:       d.HostCacheBytes >> 10,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dj)
}
