package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// hostStamp identifies the machine and toolchain a result was measured
// with. Results are only comparable when their host stamps are equal.
type hostStamp struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// provenance is stamped on every result record.
type provenance struct {
	Host     hostStamp `json:"host"`
	GitRev   string    `json:"git_rev"`
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Seconds  int       `json:"seconds"`
	Traced   bool      `json:"traced"`
	Params   spec      `json:"params"`
}

func stamp(workload string, seed uint64, seconds int, traced bool, gitRev string, sp spec) provenance {
	return provenance{
		Host: hostStamp{
			CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		},
		GitRev: gitRev, Workload: workload, Seed: seed, Seconds: seconds, Traced: traced, Params: sp,
	}
}

// record is the full result of one run, as written to
// .bench_build/results.
type record struct {
	Provenance provenance           `json:"provenance"`
	Correct    bool                 `json:"correct"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Metrics    map[string]metricOut `json:"metrics"`
	Notes      []string             `json:"notes,omitempty"`
}

func writeRecord(path string, r record) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// checkComparable refuses a pair of records measured on different
// hosts or toolchains, or of different workloads.
func checkComparable(a, b record) error {
	if a.Provenance.Host != b.Provenance.Host {
		return fmt.Errorf("host stamps differ: %+v vs %+v", a.Provenance.Host, b.Provenance.Host)
	}
	if a.Provenance.Workload != b.Provenance.Workload || a.Provenance.Traced != b.Provenance.Traced {
		return fmt.Errorf("records measure different things: %s/traced=%v vs %s/traced=%v",
			a.Provenance.Workload, a.Provenance.Traced, b.Provenance.Workload, b.Provenance.Traced)
	}
	return nil
}

// compareCmd prints each metric of two comparable records side by side
// with their ratio (new ÷ old).
func compareCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare OLD.json NEW.json")
	}
	a, err := readRecord(args[0])
	if err != nil {
		return err
	}
	b, err := readRecord(args[1])
	if err != nil {
		return err
	}
	if err := checkComparable(a, b); err != nil {
		return err
	}
	fmt.Printf("%-34s %14s %14s %8s\n", "metric", a.Provenance.GitRev, b.Provenance.GitRev, "new/old")
	for _, k := range sortedKeys(a.Metrics) {
		nb, ok := b.Metrics[k]
		if !ok {
			continue
		}
		fmt.Printf("%-34s %14.6g %14.6g %8.3f %s\n", k, a.Metrics[k].Value, nb.Value,
			ratio(nb.Value, a.Metrics[k].Value), a.Metrics[k].Unit)
	}
	return nil
}
