package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// Job kinds of the service mix (the api.Kind* wire spellings).
const (
	kindScan   = "scan"
	kindStream = "stream"
	kindBatch  = "batch"
)

// triple is one distinct request of the service mix: a job kind, a
// parameter variant, and the dataset(s) it scans — one, or
// BatchReplicates for a batch. Repeating a triple is a cache hit.
type triple struct {
	Kind     string
	Variant  int
	Datasets []int
}

// request is one entry of the open-loop schedule: when it is due,
// relative to the start of the timed phase, and which triple it sends.
type request struct {
	Due    time.Duration
	Triple int
}

// schedule is the pinned traffic of one service-mix run.
type schedule struct {
	Requests  []request
	Triples   []triple
	NDatasets int
}

// zipfTable draws ranks 0..n−1 with P(k) ∝ (k+1)^−s for any n up to
// its capacity, so the population can grow while draws continue.
type zipfTable struct{ cum []float64 }

func newZipfTable(capacity int, s float64) *zipfTable {
	cum := make([]float64, capacity+1)
	for k := 1; k <= capacity; k++ {
		cum[k] = cum[k-1] + math.Pow(float64(k), -s)
	}
	return &zipfTable{cum: cum}
}

// draw maps u ∈ [0,1) to a rank in [0, n).
func (z *zipfTable) draw(u float64, n int) int {
	target := u * z.cum[n]
	k := sort.SearchFloat64s(z.cum[1:n+1], target)
	if k >= n {
		k = n - 1
	}
	return k
}

// buildSchedule lays out n requests at a fixed rate (open loop: due
// times never depend on responses). Each request draws its job kind
// from the kind mix, then repeats an earlier triple of that kind with
// probability HitShare — by Zipf popularity over that kind's triples
// in first-use order — or else introduces a fresh one: a new dataset,
// or a known dataset under a kind or variant it was not yet requested
// with. Drawing the kind first keeps the kind mix of hits and misses
// alike the same for every seed.
func buildSchedule(sp spec, seed uint64, n int) schedule {
	rng := rand.New(rand.NewPCG(seed, 0x6d6978))
	zipf := newZipfTable(n*(1+sp.BatchReplicates), sp.ZipfS)
	var sc schedule
	type use struct {
		kind       string
		variant, d int
	}
	seen := map[use]bool{}
	byKind := map[string][]int{}
	newDataset := func() int { sc.NDatasets++; return sc.NDatasets - 1 }
	gap := time.Duration(float64(time.Second) / sp.RatePerS)
	for i := 0; i < n; i++ {
		r := request{Due: time.Duration(i) * gap}
		kind := kindScan
		switch u := rng.Float64(); {
		case u < sp.BatchShare:
			kind = kindBatch
		case u < sp.BatchShare+sp.StreamShare:
			kind = kindStream
		}
		if pool := byKind[kind]; len(pool) > 0 && rng.Float64() < sp.HitShare {
			r.Triple = pool[zipf.draw(rng.Float64(), len(pool))]
			sc.Requests = append(sc.Requests, r)
			continue
		}
		t := triple{Kind: kind, Variant: rng.IntN(len(sp.MaxWindows))}
		if kind == kindBatch {
			for k := 0; k < sp.BatchReplicates; k++ {
				t.Datasets = append(t.Datasets, newDataset())
			}
		} else {
			d := -1
			if sc.NDatasets > 0 && rng.Float64() < 0.5 {
				d = zipf.draw(rng.Float64(), sc.NDatasets)
				if seen[use{kind, t.Variant, d}] {
					d = -1
				}
			}
			if d < 0 {
				d = newDataset()
			}
			seen[use{kind, t.Variant, d}] = true
			t.Datasets = []int{d}
		}
		r.Triple = len(sc.Triples)
		byKind[kind] = append(byKind[kind], r.Triple)
		sc.Triples = append(sc.Triples, t)
		sc.Requests = append(sc.Requests, r)
	}
	return sc
}
