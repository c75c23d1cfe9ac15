package omega

import (
	"omegago/internal/seqio"
	"omegago/internal/stats"
)

// rowChunkFloats is the DP-row arena chunk size (256 KiB of float64).
// Chunks are carved into rows front to back and never recycled within a
// scan: View snapshots alias row storage (Snapshot copies headers only),
// so a chunk may only be dropped with the whole Scratch, never reused
// while a snapshot might still read it.
const rowChunkFloats = 32768

// Scratch is the per-scan working set of the ω kernels: every buffer a
// kernel (or the accelerator packing step) needs per grid position,
// allocated once and reused, so steady-state scanning is allocation-free
// per region. It follows selscan's scratch-reuse discipline for
// multi-threaded scan loops: one Scratch per goroutine, never shared.
//
// A nil *Scratch is valid everywhere and falls back to per-call
// allocation, preserving the behaviour of the pre-scratch code paths.
type Scratch struct {
	pos []float64 // alignment SNP positions (aliased, read-only)
	c2  []float64 // C(i,2) lookup, sized once from the alignment/params

	// Dispatch tallies: regions evaluated by each kernel implementation
	// (the CPU analogue of the paper's Kernel I/II launch counts).
	ScalarRegions  int64
	BlockedRegions int64
	// Evaluated counts the ω scores the kernels actually computed. It
	// is at most the admissible count (Result.Scores) because the
	// blocked kernel skips strips that cannot beat the running max.
	Evaluated int64

	// Right-border panels of the blocked kernel and the packed
	// KernelInput buffers of the accelerator backends. The two uses never
	// coexist in one scan, so they share storage where shapes match.
	rs, kr, rn []float64
	tsRows     [][]float64

	in      KernelInput // scratch-backed packing target (accelerators)
	lidx    []int
	ridx    []int
	ls      []float64
	kl, lnf []float64
	ts      []float64
	skip    []bool

	// DP-matrix arenas (see DPMatrix.extendTo).
	fresh    []float64 // recurrence staging buffer, reused per Advance
	rowChunk []float64 // current row arena chunk
	rowOff   int       // next free float in rowChunk
}

// NewScratch sizes a scratch for scans of alignment a under p: the C(i,2)
// table is built once here, hoisted out of the per-region path (it was
// previously rebuilt inside every ComputeOmega and BuildKernelInput
// call). The table covers the largest possible sub-region SNP count —
// min(NumSNPs, MaxSNPsPerSide) — and grows defensively if ever indexed
// beyond that.
func NewScratch(a *seqio.Alignment, p Params) *Scratch {
	bound := a.NumSNPs()
	if p.MaxSNPsPerSide > 0 && p.MaxSNPsPerSide < bound {
		bound = p.MaxSNPsPerSide
	}
	return &Scratch{pos: a.Positions, c2: stats.Choose2Table(bound + 1)}
}

// choose2 returns the lookup table guaranteed to cover index n.
func (s *Scratch) choose2(n int) []float64 {
	if len(s.c2) <= n {
		s.c2 = stats.Choose2Table(n + 1)
	}
	return s.c2
}

// grow returns buf resized to n, reallocating only when capacity is
// short. Contents are unspecified: callers overwrite every element.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growRows(buf [][]float64, n int) [][]float64 {
	if cap(buf) < n {
		return make([][]float64, n)
	}
	return buf[:n]
}

// freshBuf returns the recurrence staging buffer of DPMatrix.extendTo,
// resized to n. Safe to reuse across Advance calls: PairCounts writes
// every trapezoid cell the recurrence reads, so stale values are never
// observed. Nil-safe (allocates).
func (s *Scratch) freshBuf(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	s.fresh = grow(s.fresh, n)
	return s.fresh
}

// allocRow carves an n-float row from the arena, starting a new chunk
// when the current one is exhausted. Rows handed out are never reclaimed
// during the scan (snapshot safety, see rowChunkFloats). Nil-safe.
func (s *Scratch) allocRow(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	if n > rowChunkFloats {
		return make([]float64, n)
	}
	if s.rowOff+n > len(s.rowChunk) {
		s.rowChunk = make([]float64, rowChunkFloats)
		s.rowOff = 0
	}
	row := s.rowChunk[s.rowOff : s.rowOff+n : s.rowOff+n]
	s.rowOff += n
	return row
}

// BuildKernelInput packs the region's window sums into the scratch's
// flat buffers — the same layout as the package-level BuildKernelInput,
// minus its per-region allocations. The returned input (and every slice
// in it) is valid until the next BuildKernelInput call on this scratch;
// the accelerator backends consume each position fully before packing
// the next, so one scratch per scan suffices.
func (s *Scratch) BuildKernelInput(m MatrixView, reg Region, p Params) *KernelInput {
	lMax, lMin, rMin, rMax, ok := reg.borders(p)
	if !ok {
		return nil
	}
	outer := lMax - lMin + 1
	inner := rMax - rMin + 1
	if outer == 0 || inner == 0 {
		return nil
	}
	c2 := s.choose2(maxInt(reg.K-lMin+1, rMax-reg.K))

	s.lidx = growInt(s.lidx, outer)
	s.ls = grow(s.ls, outer)
	s.kl = grow(s.kl, outer)
	s.lnf = grow(s.lnf, outer)
	for o := 0; o < outer; o++ {
		l := lMax - o
		ln := reg.K - l + 1
		s.lidx[o] = l
		s.ls[o] = m.At(reg.K, l)
		s.kl[o] = c2[ln]
		s.lnf[o] = float64(ln)
	}

	s.ridx = growInt(s.ridx, inner)
	s.rs = grow(s.rs, inner)
	s.kr = grow(s.kr, inner)
	s.rn = grow(s.rn, inner)
	for i := 0; i < inner; i++ {
		r := rMin + i
		rn := r - reg.K
		s.ridx[i] = r
		s.rs[i] = m.At(r, reg.K+1)
		s.kr[i] = c2[rn]
		s.rn[i] = float64(rn)
	}

	s.ts = grow(s.ts, outer*inner)
	g := 0
	for o := 0; o < outer; o++ {
		l := lMax - o
		for r := rMin; r <= rMax; r++ {
			s.ts[g] = m.At(r, l)
			g++
		}
	}

	s.in = KernelInput{
		GridIndex: reg.Index, Center: reg.Center, Epsilon: p.Epsilon,
		LeftBorders: s.lidx, LS: s.ls, KL: s.kl, LN: s.lnf,
		RightBorders: s.ridx, RS: s.rs, KR: s.kr, RN: s.rn,
		TS: s.ts,
	}
	s.in.Skip = s.packSkip(lMax, lMin, rMin, rMax, p)
	return &s.in
}

// packSkip fills the Skip bitmap lazily: the two-pointer sweep first
// decides whether any slot violates MinWindow at all (positions are
// sorted, so the first admissible right border is monotone in l), and
// the bitmap is materialized only when at least one slot is skipped —
// fixing the old behaviour of allocating it whenever MinWindow > 0.
func (s *Scratch) packSkip(lMax, lMin, rMin, rMax int, p Params) []bool {
	if p.MinWindow <= 0 {
		return nil
	}
	pos := s.pos
	// The widest window is (lMin, rMax); if even the narrowest-possible
	// check per l finds nothing skipped, skip the bitmap entirely. A slot
	// is skipped iff pos[r]-pos[l] < MinWindow, and for fixed l the
	// skipped r form a prefix [rMin, rStart). Any skipped slot at all
	// shows up at l = lMax, r = rMin (the narrowest window).
	if pos[rMin]-pos[lMax] >= p.MinWindow {
		return nil
	}
	outer := lMax - lMin + 1
	inner := rMax - rMin + 1
	if cap(s.skip) < outer*inner {
		s.skip = make([]bool, outer*inner)
	}
	skip := s.skip[:outer*inner]
	rStart := rMax + 1
	// First pass: l = lMax … lMin (outer-major order o = lMax-l).
	for o := 0; o < outer; o++ {
		l := lMax - o
		for rStart > rMin && pos[rStart-1]-pos[l] >= p.MinWindow {
			rStart--
		}
		row := skip[o*inner : (o+1)*inner]
		nSkip := rStart - rMin
		if nSkip > inner {
			nSkip = inner
		}
		for i := 0; i < nSkip; i++ {
			row[i] = true
		}
		for i := nSkip; i < inner; i++ {
			row[i] = false
		}
	}
	return skip
}
