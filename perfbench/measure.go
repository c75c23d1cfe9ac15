package main

import (
	"bufio"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailPercentile applies the reporting rule for a tail latency: the
// wanted percentile when at least ten samples lie beyond it, otherwise
// the highest percentile that still has ten samples beyond it, and
// never less than the median. It returns the percentile used.
func tailPercentile(n int, want float64) float64 {
	if n <= 0 {
		return 50
	}
	p := 100 * (1 - 10/float64(n))
	if p > want {
		p = want
	}
	if p < 50 {
		p = 50
	}
	return p
}

// tail returns the value and percentile the tail rule gives for xs.
func tail(xs []float64, want float64) (float64, float64) {
	p := tailPercentile(len(xs), want)
	return quantile(xs, p/100), p
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS returns the garbage of set-up to the OS and restarts the
// kernel's peak resident-set counter, so the next peakRSSMiB reading
// covers only what runs in between. It reports whether the reset
// worked; without it the reading is the process lifetime peak.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB returns the peak resident set size in MiB: VmHWM from
// procfs, or the getrusage lifetime maximum where procfs is missing.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}
