package omega

import (
	"math"

	"omegago/internal/seqio"
	"omegago/internal/stats"
)

// Score evaluates Equation 2 for one border combination:
//
//	ω = ((LS+RS)/(C(ln,2)+C(rn,2))) / ((TS−LS−RS)/(ln·rn) + ε)
//
// where LS and RS are the r² sums within the left and right sub-regions,
// TS the sum over the whole window, and kl = C(ln,2), kr = C(rn,2).
// Every execution path — CPU reference, simulated GPU work-items and the
// simulated FPGA pipeline — funnels through this function, so results
// are bit-identical across backends by construction.
func Score(ls, rs, ts, kl, kr, ln, rn, eps float64) float64 {
	num := (ls + rs) / (kl + kr)
	den := (ts-ls-rs)/(ln*rn) + eps
	return num / den
}

// Result is the outcome of evaluating one grid position: the maximum
// Equation 2 ω over all admissible border combinations — the per-grid-
// position max-reduction every backend performs (CPU loop, GPU
// work-group reduction, FPGA pipeline reduction stage) — plus the
// maximizing window and the score count of Table III's throughput
// accounting.
type Result struct {
	GridIndex int
	Center    float64 // ω position in bp
	// Valid is false when the region has no admissible window, or when
	// no admissible window scores a number (every ω is 0/0, possible
	// with MinSNPsPerSide 1); Scores still counts the admissible windows.
	Valid    bool
	MaxOmega float64
	// LeftBorder/RightBorder are the global SNP indices of the maximizing
	// window; LeftPos/RightPos their bp positions.
	LeftBorder, RightBorder int
	LeftPos, RightPos       float64
	// Scores is the number of ω values evaluated at this position.
	Scores int64
}

// ComputeOmega evaluates all admissible window combinations of a region
// directly against the DP matrix (the OmegaPlus CPU nested loop: outer
// over left borders, inner over right borders) and returns the maximum.
// The matrix must already cover [reg.Lo, reg.Hi].
//
// This is the convenience entry point over the scalar reference kernel
// with a one-shot scratch; scan loops resolve a Kernel and reuse a
// per-goroutine Scratch instead (see kernels.go).
func ComputeOmega(m MatrixView, a *seqio.Alignment, reg Region, p Params) Result {
	p = p.WithDefaults()
	return scalarKernel{}.Evaluate(scratchFor(a), m, reg, p)
}

// KernelInput is the packed per-grid-position buffer set handed to the
// accelerator backends, mirroring the paper's GPU buffers: LS/RS sums
// and combination counts per border (the LR and km buffers), and the TS
// buffer flattened as outer×inner sections (Fig. 4/5). Building it is
// the host-side "data preparation and packing" step whose cost the
// end-to-end GPU evaluation of Fig. 13 includes.
type KernelInput struct {
	GridIndex int
	Center    float64

	// Outer loop: left borders in descending order (l = lMax … lMin).
	LeftBorders []int
	LS, KL, LN  []float64

	// Inner loop: right borders ascending (r = rMin … rMax).
	RightBorders []int
	RS, KR, RN   []float64

	// TS[o*len(RightBorders)+i] = M[right[i]][left[o]].
	TS []float64

	// Skip[g] marks combinations excluded by the MinWindow constraint;
	// nil when every combination is admissible.
	Skip []bool

	Epsilon float64
}

// Outer returns the outer-loop trip count (left borders).
func (in *KernelInput) Outer() int { return len(in.LeftBorders) }

// Inner returns the inner-loop trip count (right borders).
func (in *KernelInput) Inner() int { return len(in.RightBorders) }

// Total returns the total number of ω slots (including skipped ones).
func (in *KernelInput) Total() int { return in.Outer() * in.Inner() }

// Bytes returns the payload size of the input buffers in bytes — the
// quantity transferred to the device in the PCIe cost model.
func (in *KernelInput) Bytes() int64 {
	b := int64(len(in.LS)+len(in.KL)+len(in.LN)+len(in.RS)+len(in.KR)+len(in.RN)+len(in.TS)) * 8
	if in.Skip != nil {
		b += int64(len(in.Skip))
	}
	return b
}

// BuildKernelInput packs the region's window sums into flat buffers.
// Returns nil when the region has no admissible window.
//
// Buffers are preallocated at their known sizes (outer = lMax−lMin+1,
// inner = rMax−rMin+1) and the Skip bitmap is materialized only when at
// least one slot actually violates MinWindow (checked via the narrowest
// window first), instead of whenever MinWindow > 0. Scan loops use the
// allocation-free Scratch.BuildKernelInput; this standalone variant
// allocates fresh buffers the caller may retain.
func BuildKernelInput(m MatrixView, a *seqio.Alignment, reg Region, p Params) *KernelInput {
	p = p.WithDefaults()
	lMax, lMin, rMin, rMax, ok := reg.borders(p)
	if !ok {
		return nil
	}
	outer := lMax - lMin + 1
	inner := rMax - rMin + 1
	c2 := stats.Choose2Table(maxInt(reg.K-lMin+1, rMax-reg.K) + 1)
	in := &KernelInput{
		GridIndex: reg.Index, Center: reg.Center, Epsilon: p.Epsilon,
		LeftBorders:  make([]int, outer),
		LS:           make([]float64, outer),
		KL:           make([]float64, outer),
		LN:           make([]float64, outer),
		RightBorders: make([]int, inner),
		RS:           make([]float64, inner),
		KR:           make([]float64, inner),
		RN:           make([]float64, inner),
		TS:           make([]float64, outer*inner),
	}
	for o := 0; o < outer; o++ {
		l := lMax - o
		ln := reg.K - l + 1
		in.LeftBorders[o] = l
		in.LS[o] = m.At(reg.K, l)
		in.KL[o] = c2[ln]
		in.LN[o] = float64(ln)
	}
	for i := 0; i < inner; i++ {
		r := rMin + i
		rn := r - reg.K
		in.RightBorders[i] = r
		in.RS[i] = m.At(r, reg.K+1)
		in.KR[i] = c2[rn]
		in.RN[i] = float64(rn)
	}
	g := 0
	for _, l := range in.LeftBorders {
		for _, r := range in.RightBorders {
			in.TS[g] = m.At(r, l)
			g++
		}
	}
	pos := a.Positions
	// Lazy skip: only pay for the bitmap when the narrowest window
	// (l = lMax, r = rMin) is itself below MinWindow — otherwise every
	// slot is admissible and Skip stays nil.
	if p.MinWindow > 0 && pos[rMin]-pos[lMax] < p.MinWindow {
		skip := make([]bool, outer*inner)
		rStart := rMax + 1
		for o := 0; o < outer; o++ {
			l := lMax - o
			for rStart > rMin && pos[rStart-1]-pos[l] >= p.MinWindow {
				rStart--
			}
			for i := 0; i < rStart-rMin && i < inner; i++ {
				skip[o*inner+i] = true
			}
		}
		in.Skip = skip
	}
	return in
}

// ScoreAt evaluates the ω value of flat slot g (outer-major) of a kernel
// input; skipped slots return −Inf. This is the single-work-item
// computation the accelerator simulators execute.
func (in *KernelInput) ScoreAt(g int) float64 {
	if in.Skip != nil && in.Skip[g] {
		return math.Inf(-1)
	}
	o := g / in.Inner()
	i := g % in.Inner()
	return Score(in.LS[o], in.RS[i], in.TS[g], in.KL[o], in.KR[i], in.LN[o], in.RN[i], in.Epsilon)
}

// ResultFromInput converts a winning slot into a Result (used by the
// accelerator backends after their max-reduction). When nothing scored
// a number (scores is 0, or every ω was NaN) the Result is invalid but
// keeps the admissible count, as the CPU kernels' results do.
func (in *KernelInput) ResultFromInput(a *seqio.Alignment, bestSlot int, bestOmega float64, scores int64) Result {
	if scores == 0 || math.IsInf(bestOmega, -1) {
		return Result{GridIndex: in.GridIndex, Center: in.Center, Scores: scores}
	}
	o := bestSlot / in.Inner()
	i := bestSlot % in.Inner()
	l := in.LeftBorders[o]
	r := in.RightBorders[i]
	return Result{
		GridIndex: in.GridIndex, Center: in.Center, Valid: true,
		MaxOmega: bestOmega, LeftBorder: l, RightBorder: r,
		LeftPos: a.Positions[l], RightPos: a.Positions[r], Scores: scores,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
