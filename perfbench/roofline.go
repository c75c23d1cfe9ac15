package main

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Computed work per kernel operation, from the kernels' arithmetic:
// these are counts derived from array sizes, not hardware counters.
//
// One fresh r² (Eq. 1) ANDs and popcounts two SNP rows word by word
// (3 ops per 64-sample word: AND, POPCNT, ADD) and then does about 16
// scalar ops for the r² formula and the Eq. 3 DP update; it reads both
// rows and writes one 8-byte DP cell.
func ldOpsPerPair(samples int) float64 { return float64(3*words(samples) + 16) }

func ldBytesPerPair(samples int) float64 { return float64(16*words(samples) + 8) }

func words(samples int) int { return (samples + 63) / 64 }

// One ω score (Eq. 2) is 10 flops (two sums, one product, three
// divisions, two subtractions, the ε add and the max compare) over one
// 8-byte DP-matrix read; the per-border terms are amortized.
const (
	omegaOpsPerScore   = 10
	omegaBytesPerScore = 8
)

// bwBufferMiB is the buffer the bandwidth probe streams. It is smaller
// than four times a large last-level cache, so on such hosts the probe
// reads partly from cache and the bandwidth roof is generous.
const bwBufferMiB = 64

// peaks are the host rates measured in the same run as the kernels.
type peaks struct {
	PopcountOps float64 // AND+POPCNT+ADD ops/s over cache-resident rows
	Flops       float64 // ω-formula flops/s over cache-resident arrays
	BytesPerSec float64 // streaming read bandwidth over bwBufferMiB
}

// measurePeaks runs each probe on threads goroutines for about d.
func measurePeaks(threads int, d time.Duration) peaks {
	return peaks{
		PopcountOps: parallelRate(threads, d, popcountProbe),
		Flops:       parallelRate(threads, d, flopProbe),
		BytesPerSec: parallelRate(threads, d, bandwidthProbe(threads)),
	}
}

// parallelRate runs probe on threads goroutines until d has passed and
// returns the total work units per second.
func parallelRate(threads int, d time.Duration, probe func(stop func() bool) float64) float64 {
	var wg sync.WaitGroup
	work := make([]float64, threads)
	t0 := time.Now()
	deadline := t0.Add(d)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			work[t] = probe(func() bool { return time.Now().After(deadline) })
		}(t)
	}
	wg.Wait()
	return sum(work) / time.Since(t0).Seconds()
}

// sink keeps the probes' results alive past the optimizer.
var sink atomic.Uint64

func popcountProbe(stop func() bool) float64 {
	a := make([]uint64, 512)
	b := make([]uint64, 512)
	for i := range a {
		a[i] = uint64(i) * 0x9e3779b97f4a7c15
		b[i] = ^a[i] >> 3
	}
	var ops float64
	var acc int
	for !stop() {
		for rep := 0; rep < 64; rep++ {
			for i := range a {
				acc += bits.OnesCount64(a[i] & b[i])
			}
		}
		ops += 3 * 64 * float64(len(a))
	}
	sink.Add(uint64(acc))
	return ops
}

func flopProbe(stop func() bool) float64 {
	const n = 1024
	ls, rs, ts := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range ls {
		ls[i], rs[i], ts[i] = float64(i%7)+1, float64(i%5)+1, float64(i%11)+20
	}
	var ops float64
	best := 0.0
	for !stop() {
		for rep := 0; rep < 64; rep++ {
			for i := 0; i < n; i++ {
				num := (ls[i] + rs[i]) / (ls[i] + 3)
				den := (ts[i]-ls[i]-rs[i])/(rs[i]*2) + 1e-5
				if w := num / den; w > best {
					best = w
				}
			}
		}
		ops += omegaOpsPerScore * 64 * n
	}
	sink.Add(uint64(best))
	return ops
}

// bandwidthProbe returns a probe that streams its share of one
// bwBufferMiB buffer, counting bytes read.
func bandwidthProbe(threads int) func(stop func() bool) float64 {
	buf := make([]uint64, bwBufferMiB<<20/8)
	for i := range buf {
		buf[i] = uint64(i)
	}
	var mu sync.Mutex
	next := 0
	return func(stop func() bool) float64 {
		mu.Lock()
		part := len(buf) / threads
		lo := next * part
		next++
		mu.Unlock()
		chunk := buf[lo : lo+part]
		var bytes float64
		var acc uint64
		for !stop() {
			for _, x := range chunk {
				acc += x
			}
			bytes += float64(8 * len(chunk))
		}
		sink.Add(acc)
		return bytes
	}
}

// rooflineFrac is the achieved rate over the roofline bound: the lower
// of the peak op rate and bandwidth × computed ops per byte.
func rooflineFrac(achievedOps, peakOps, bytesPerSec, opsPerByte float64) float64 {
	bound := peakOps
	if b := bytesPerSec * opsPerByte; b < bound {
		bound = b
	}
	return ratio(achievedOps, bound)
}
