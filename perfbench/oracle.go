package main

import (
	"fmt"
	"math"
	"math/bits"

	"omegago"
)

// How much of a run's output the oracle recomputes: rows per scan, and
// how many replicate-batch replicates.
const (
	oracleRows       = 12
	oracleReplicates = 16
)

// oracleCheck recomputes sampled grid rows of a scan by brute force —
// Eq. 1 r² straight from the bit rows and Eq. 2 ω over every border
// pair — with no code shared with the program, and returns the first
// disagreement. Comparing two library paths cannot catch a bug they
// share; this can. Sums run in a different order than the program's DP
// matrix, so ω is compared to a relative tolerance.
func oracleCheck(ds *omegago.Dataset, grid int, maxWindow float64, rows []omegago.Result, sample int) error {
	if len(rows) != grid {
		return fmt.Errorf("oracle: %d rows for grid %d", len(rows), grid)
	}
	if maxWindow <= 0 {
		maxWindow = math.Inf(1)
	}
	pos := ds.Positions
	first, last := pos[0], pos[len(pos)-1]
	step := 0.0
	if grid > 1 {
		step = (last - first) / float64(grid-1)
	}
	for s := 0; s < sample && s < grid; s++ {
		i := s * (grid - 1) / max(sample-1, 1)
		c := first + float64(i)*step
		if grid == 1 {
			c = (first + last) / 2
		}
		got := rows[i]
		if got.Center != c {
			return fmt.Errorf("oracle: row %d at %v bp, want %v", i, got.Center, c)
		}
		lo, hi, k := -1, -1, -1
		for j, x := range pos {
			if lo < 0 && x >= c-maxWindow {
				lo = j
			}
			if x <= c+maxWindow {
				hi = j
			}
			if x <= c {
				k = j
			}
		}
		if k > hi {
			k = hi
		}
		// Two SNPs per side at least: left borders l ≤ k−1, right r ≥ k+2.
		valid := lo >= 0 && k >= lo && k < hi && k-1 >= lo && hi >= k+2
		if got.Valid != valid {
			return fmt.Errorf("oracle: row %d valid=%v, want %v", i, got.Valid, valid)
		}
		if !valid {
			continue
		}
		w := newWindowSums(ds, lo, hi)
		best := math.Inf(-1)
		for l := lo; l <= k-1; l++ {
			for r := k + 2; r <= hi; r++ {
				best = math.Max(best, w.omega(l, k, r))
			}
		}
		if !near(got.MaxOmega, best) {
			return fmt.Errorf("oracle: row %d ω = %v, brute force gives %v", i, got.MaxOmega, best)
		}
		l, r := indexOf(pos, got.LeftPos), indexOf(pos, got.RightPos)
		if l < lo || l > k-1 || r < k+2 || r > hi || !near(w.omega(l, k, r), got.MaxOmega) {
			return fmt.Errorf("oracle: row %d window [%v, %v] does not score its ω", i, got.LeftPos, got.RightPos)
		}
	}
	return nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func indexOf(pos []float64, x float64) int {
	for j, p := range pos {
		if p == x {
			return j
		}
	}
	return -1
}

// windowSums holds, for SNPs [lo, hi], sum[a][b] = Σ r²(i, j) over
// lo ≤ a ≤ i < j ≤ b, indexed from lo.
type windowSums struct {
	lo  int
	sum [][]float64
}

func newWindowSums(ds *omegago.Dataset, lo, hi int) windowSums {
	n := hi - lo + 1
	samples := ds.Samples()
	words := make([][]uint64, n)
	ones := make([]int, n)
	for i := range words {
		words[i] = ds.Matrix.Row(lo + i).Words()
		for _, x := range words[i] {
			ones[i] += bits.OnesCount64(x)
		}
	}
	sum := make([][]float64, n)
	for a := n - 1; a >= 0; a-- {
		sum[a] = make([]float64, n)
		row := 0.0
		for b := a + 1; b < n; b++ {
			both := 0
			for w := range words[a] {
				both += bits.OnesCount64(words[a][w] & words[b][w])
			}
			row += r2(samples, ones[a], ones[b], both)
			sum[a][b] = row
			if a+1 < n {
				sum[a][b] += sum[a+1][b]
			}
		}
	}
	return windowSums{lo: lo, sum: sum}
}

// omega is Eq. 2 for left sub-window [l, k] and right [k+1, r], with
// OmegaPlus's 1e-5 denominator offset.
func (w windowSums) omega(l, k, r int) float64 {
	s := func(a, b int) float64 { return w.sum[a-w.lo][b-w.lo] }
	ls, rs, ts := s(l, k), s(k+1, r), s(l, r)
	ln, rn := float64(k-l+1), float64(r-k)
	num := (ls + rs) / (ln*(ln-1)/2 + rn*(rn-1)/2)
	den := (ts-ls-rs)/(ln*rn) + 1e-5
	return num / den
}

// r2 is Eq. 1 from allele counts over n complete samples; monomorphic
// sites score 0.
func r2(n, ci, cj, cij int) float64 {
	if ci == 0 || cj == 0 || ci == n || cj == n {
		return 0
	}
	fn := float64(n)
	pi, pj, pij := float64(ci)/fn, float64(cj)/fn, float64(cij)/fn
	d := pij - pi*pj
	return math.Min(1, d*d/(pi*(1-pi)*pj*(1-pj)))
}
