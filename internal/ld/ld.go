// Package ld computes linkage disequilibrium as the squared Pearson
// correlation coefficient r² between SNP pairs (Equation 1 of the paper,
// in its standard corrected form):
//
//	r²_ij = (p_ij − p_i·p_j)² / (p_i(1−p_i)·p_j(1−p_j))
//
// Two execution engines are provided, mirroring the tools the paper
// builds on:
//
//   - Direct: one AND+popcount per pair over the bit-packed alignment
//     (the OmegaPlus CPU path), mask-aware for missing data;
//   - GEMM: pair counts for window trapezoids (PairCounts) of the pair
//     matrix computed as a cache-blocked triangular bit-matrix
//     multiplication (internal/gemm), the dense-linear-algebra cast of
//     Binder et al. / Alachiotis-Popovici-Low that the paper's GPU LD
//     implementation uses; the lower triangle and out-of-window pairs
//     are skipped entirely.
//
// Both engines turn exact integer counts into r² through one shared
// formula (r2Core) over per-SNP frequency tables computed once per
// alignment, so they produce bit-identical values (a property test
// holds them to that) and backends may switch freely between them.
package ld

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"omegago/internal/bitvec"
	"omegago/internal/gemm"
	"omegago/internal/seqio"
)

// Engine selects how pair counts are obtained.
type Engine int

const (
	// Direct computes one popcount per SNP pair.
	Direct Engine = iota
	// GEMM batches pair counts through the bit-matrix multiply kernel.
	GEMM
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case Direct:
		return "direct"
	case GEMM:
		return "gemm"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// RSquaredFromCounts converts co-occurrence counts to r²: n is the number
// of valid samples, ci and cj the derived-allele counts at the two SNPs,
// cij the count of samples derived at both. Monomorphic sites (within the
// valid subset) yield 0. The result is clamped to [0, 1] against
// floating-point drift.
func RSquaredFromCounts(n, ci, cj, cij int) float64 {
	if n <= 0 || ci <= 0 || cj <= 0 || ci >= n || cj >= n {
		return 0
	}
	fn := float64(n)
	pi := float64(ci) / fn
	pj := float64(cj) / fn
	return r2Core(float64(cij)/fn, pi, pi*(1-pi), pj, pj*(1-pj))
}

// r2Core is Equation 1 over frequencies of a pair of polymorphic SNPs:
// the joint frequency pij, and p and p(1−p) of each site. Every r² in
// the package — per pair, direct trapezoid, GEMM trapezoid — goes
// through this one expression, which is what makes the engines
// bit-identical: the per-SNP tables of Computer hold exactly the
// operands RSquaredFromCounts would derive from the same counts.
func r2Core(pij, pi, vi, pj, vj float64) float64 {
	num := pij - pi*pj
	// Grouping the variance terms, (pi*(1-pi))*(pj*(1-pj)), keeps the
	// expression exactly symmetric in (i, j) under IEEE rounding.
	r2 := num * num / (vi * vj)
	if r2 < 0 {
		return 0
	}
	if r2 > 1 {
		return 1
	}
	return r2
}

// Computer evaluates r² over one alignment with a chosen engine.
// It caches per-SNP allele statistics and counts every r² evaluation
// (the "LD scores" metric of the paper's Table III).
//
// The tables are immutable and computed once per alignment: with every
// sample valid, r² of (i, j) depends on the pair only through the joint
// count c_ij, so the mask-free inner loop is one AND+popcount, one pij
// lookup and r2Core.
type Computer struct {
	aln     *seqio.Alignment
	engine  Engine
	workers int
	masked  bool       // the alignment has missing data
	words   [][]uint64 // bit-packed row of each SNP
	sites   []site     // r2Core operands of each SNP
	pij     []float64  // pij[c] = c/n for every joint count c ∈ [0, n]
	scores  atomic.Int64
}

// site holds the per-SNP operands of r2Core for mask-free pairs.
type site struct {
	p, v float64 // p_i = c_i/n and v_i = p_i(1−p_i)
	poly bool    // 0 < c_i < n: only pairs of polymorphic sites reach r2Core
}

// siteR2 is Equation 1 for a mask-free pair with joint frequency pij.
func siteR2(pij float64, a, b site) float64 {
	if !a.poly || !b.poly {
		return 0
	}
	return r2Core(pij, a.p, a.v, b.p, b.v)
}

// NewComputer builds a Computer. workers bounds the goroutines used by
// PairCounts (and by the GEMM kernel); values < 1 mean serial.
func NewComputer(a *seqio.Alignment, engine Engine, workers int) *Computer {
	if workers < 1 {
		workers = 1
	}
	n := a.Samples()
	fn := float64(n)
	c := &Computer{
		aln: a, engine: engine, workers: workers, masked: a.Matrix.HasMissing(),
		words: make([][]uint64, a.NumSNPs()),
		sites: make([]site, a.NumSNPs()),
		pij:   make([]float64, n+1),
	}
	for i := range c.sites {
		row := a.Matrix.Row(i)
		c.words[i] = row.Words()
		if ones := row.OnesCount(); ones > 0 && ones < n {
			p := float64(ones) / fn
			c.sites[i] = site{p: p, v: p * (1 - p), poly: true}
		}
	}
	for k := range c.pij {
		c.pij[k] = float64(k) / fn
	}
	return c
}

// Alignment returns the alignment the computer operates on.
func (c *Computer) Alignment() *seqio.Alignment { return c.aln }

// Clone returns an independent Computer over the same alignment and
// engine. The immutable per-SNP tables are shared (they are computed
// once, at NewComputer time), but the score counter starts at zero, so
// each clone tallies only its own r² evaluations. This is what lets
// omega.ScanSharded give every shard its own LD computer without
// re-deriving the tables or contending on one atomic counter.
func (c *Computer) Clone() *Computer {
	return &Computer{aln: c.aln, engine: c.engine, workers: c.workers, masked: c.masked,
		words: c.words, sites: c.sites, pij: c.pij}
}

// Engine returns the computer's execution engine.
func (c *Computer) Engine() Engine { return c.engine }

// Batched reports whether PairCounts may batch pair counts through the
// triangular bit-GEMM (the GEMM engine on mask-free data).
func (c *Computer) Batched() bool {
	return c.engine == GEMM && !c.masked
}

// Scores returns the number of r² values computed so far — the "LD
// scores" throughput numerator of the paper's Table III.
func (c *Computer) Scores() int64 { return c.scores.Load() }

// R2 computes the Equation 1 r² between SNPs i and j (any order),
// honouring missing-data masks: the joint count comes from one
// AND+popcount over the bit-packed rows (the OmegaPlus CPU LD path,
// §III).
func (c *Computer) R2(i, j int) float64 {
	c.scores.Add(1)
	return c.pair(i, j)
}

// pair is R2 without the score count. Mask-free pairs take the table
// path; a pair with either site masked counts over the jointly valid
// samples only.
func (c *Computer) pair(i, j int) float64 {
	m := c.aln.Matrix
	if m.Mask(i) == nil && m.Mask(j) == nil {
		return siteR2(c.pij[bitvec.AndCount(m.Row(i), m.Row(j))], c.sites[i], c.sites[j])
	}
	n, ci, cj, cij := m.PairCounts(i, j)
	return RSquaredFromCounts(n, ci, cj, cij)
}

// gemmMinPairs is the density threshold below which PairCounts keeps
// the direct row walk even on the GEMM engine: packing panels and
// allocating a count matrix for a handful of pairs costs more than the
// pairs themselves. Results are bit-identical either way, so the
// threshold is purely a performance knob.
const gemmMinPairs = 1024

// parallelMinPairs is the trapezoid size below which the direct walk
// stays on the calling goroutine: starting workers for a few hundred
// pairs costs more than it saves. Also purely a performance knob.
const parallelMinPairs = 4096

// PairCounts computes r² for every pair (i, j) with i ∈ [iLo, iHi) and
// jLo ≤ j < i — the trapezoid of fresh pairs a DP-matrix extension
// consumes — and writes r²(i, j) to dst[(i−iLo)·stride + (j−jLo)].
// Cells of dst outside the trapezoid are left untouched. The score
// counter is bumped once per call, by the exact pair count.
//
// When the engine batches (GEMM, mask-free data) and the trapezoid is
// dense enough, all pair counts come from one cache-blocked triangular
// bit-GEMM (gemm.PopcountTrapezoid) that never popcounts the lower
// triangle or out-of-window pairs. Otherwise the direct path walks the
// rows, one AND+popcount per pair, with the computer's workers taking
// whole rows; each worker writes only its own rows of dst, so the inner
// loop shares no state. Masked alignments count each pair over its
// jointly valid samples. Every path feeds r2Core, so all produce
// bit-identical r².
func (c *Computer) PairCounts(iLo, iHi, jLo int, dst []float64, stride int) {
	n := c.aln.NumSNPs()
	if iLo < 0 || jLo < 0 || iHi > n || iLo > iHi || jLo > n {
		panic(fmt.Sprintf("ld: bad trapezoid rows [%d,%d) cols from %d of %d SNPs",
			iLo, iHi, jLo, n))
	}
	pairs := gemm.TrapezoidPairs(iHi-iLo, iHi-1-jLo, iLo-jLo-1)
	if pairs == 0 {
		return
	}
	if stride < iHi-1-jLo || len(dst) < (iHi-iLo-1)*stride+iHi-1-jLo {
		panic(fmt.Sprintf("ld: destination of %d cells (stride %d) too small for trapezoid rows [%d,%d) cols from %d",
			len(dst), stride, iLo, iHi, jLo))
	}
	c.scores.Add(pairs)
	if c.Batched() && pairs >= gemmMinPairs {
		c.trapezoidGEMM(iLo, iHi, jLo, dst, stride)
		return
	}
	// Rows below jLo+1 hold no pairs; starting there keeps every worker
	// on a non-empty row.
	first := max(iLo, jLo+1)
	workers := min(c.workers, iHi-first)
	if workers <= 1 || pairs < parallelMinPairs {
		for i := first; i < iHi; i++ {
			c.row(i, jLo, dst[(i-iLo)*stride:])
		}
		return
	}
	// Row lengths grow with i, so workers claim rows one at a time from
	// a shared cursor (one atomic add per row, none per pair).
	var wg sync.WaitGroup
	var next atomic.Int64
	next.Store(int64(first))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < iHi; i = int(next.Add(1)) - 1 {
				c.row(i, jLo, dst[(i-iLo)*stride:])
			}
		}()
	}
	wg.Wait()
}

// row writes r²(i, j) for j ∈ [jLo, i) to out[j−jLo]. On mask-free
// data the row's operands are hoisted, and each pair is an inline
// AND+popcount over the two word slices followed by r2Core; with missing
// data each pair takes the mask-aware per-pair path.
func (c *Computer) row(i, jLo int, out []float64) {
	out = out[:i-jLo]
	if c.masked {
		for k := range out {
			out[k] = c.pair(i, jLo+k)
		}
		return
	}
	si := c.sites[i]
	if !si.poly {
		clear(out)
		return
	}
	wi := c.words[i]
	pij, words, sites := c.pij, c.words[jLo:i], c.sites[jLo:i]
	for k := range out {
		sj := sites[k]
		if !sj.poly {
			out[k] = 0
			continue
		}
		wj := words[k][:len(wi)]
		cij := 0
		for w, x := range wi {
			cij += bits.OnesCount64(x & wj[w])
		}
		out[k] = r2Core(pij[cij], si.p, si.v, sj.p, sj.v)
	}
}

// trapezoidGEMM packs the window rows once and runs the blocked
// triangular kernel: A rows are the new SNPs [iLo, iHi), B rows the
// window SNPs [jLo, iHi−1), and the diagonal offset iLo−jLo−1 encodes
// the j < i constraint in packed coordinates.
func (c *Computer) trapezoidGEMM(iLo, iHi, jLo int, dst []float64, stride int) {
	rowsA := make([]*bitvec.Vector, iHi-iLo)
	for i := range rowsA {
		rowsA[i] = c.aln.Matrix.Row(iLo + i)
	}
	rowsB := make([]*bitvec.Vector, iHi-1-jLo)
	for j := range rowsB {
		rowsB[j] = c.aln.Matrix.Row(jLo + j)
	}
	counts := gemm.PopcountTrapezoid(gemm.FromVectors(rowsA), gemm.FromVectors(rowsB), iLo-jLo-1, c.workers)
	for i := max(iLo, jLo+1); i < iHi; i++ {
		out := dst[(i-iLo)*stride : (i-iLo)*stride+i-jLo]
		crow := counts.Data[(i-iLo)*counts.Cols:]
		for k := range out {
			out[k] = siteR2(c.pij[crow[k]], c.sites[i], c.sites[jLo+k])
		}
	}
}

// PairwiseMatrix computes the full upper-triangular r² matrix of an
// alignment (diagonal excluded), returned row-major as out[i][j] for
// j > i; every other cell is zero. Primarily a convenience for examples
// and tests; the scan engine uses PairCounts incrementally instead.
func PairwiseMatrix(a *seqio.Alignment, engine Engine, workers int) [][]float64 {
	w := a.NumSNPs()
	out := make([][]float64, w)
	for i := range out {
		out[i] = make([]float64, w)
	}
	if w == 0 {
		return out
	}
	// PairCounts fills the lower triangle; r² is exactly symmetric, so
	// the transpose is the upper one.
	lower := make([]float64, w*w)
	NewComputer(a, engine, workers).PairCounts(0, w, 0, lower, w)
	for i := 1; i < w; i++ {
		for j := 0; j < i; j++ {
			out[j][i] = lower[i*w+j]
		}
	}
	return out
}
