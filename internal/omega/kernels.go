package omega

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"omegago/internal/names"
	"omegago/internal/seqio"
)

// Kernel is one ω-kernel implementation: it evaluates every admissible
// window combination of a region against the DP matrix and returns the
// per-grid-position max-reduction (Equation 2). Implementations must be
// bit-identical to the scalar reference — same iteration order (left
// borders descending outer, right borders ascending inner), same strict
// `>` comparison — so that results match across kernels, schedulers and
// backends by construction. The scratch is the caller's per-goroutine
// working set; kernels may use any of its buffers but must not retain
// them past the call.
type Kernel interface {
	Name() string
	Evaluate(s *Scratch, m MatrixView, reg Region, p Params) Result
}

// KernelKind selects a registered ω kernel by well-known name. The zero
// value is KernelAuto: per-region dynamic selection, mirroring the
// paper's Kernel I/II dispatch (§IV-A).
type KernelKind int

const (
	// KernelAuto picks scalar or blocked per region by workload size
	// against an Nthr-style threshold (Equation 4 analogue).
	KernelAuto KernelKind = iota
	// KernelScalar is the reference nested loop, the same code path
	// the ComputeOmega convenience wrapper runs.
	KernelScalar
	// KernelBlocked is the branch-free flat-buffer kernel: two-pointer
	// MinWindow admissibility, packed right-border panels, inner loop
	// unrolled over 4 right borders.
	KernelBlocked
)

// KindNames is the name table of KernelKind: canonical spellings in
// value order plus the "" alias for the auto default. String, Parse and
// Valid all derive from it, and the API-symmetry tests iterate it.
var KindNames = names.New[KernelKind]("kernel", "KernelKind",
	"auto", "scalar", "blocked").Alias("", KernelAuto)

// String returns the registry name of the kind.
func (k KernelKind) String() string { return KindNames.String(k) }

// ParseKernelKind converts a registry name to its kind ("" parses as
// KernelAuto).
func ParseKernelKind(name string) (KernelKind, error) {
	k, err := KindNames.Parse(name)
	if err != nil {
		return 0, fmt.Errorf("omega: %w", err)
	}
	return k, nil
}

// DefaultNthr is the auto-dispatch workload threshold: regions with
// fewer than DefaultNthr border combinations go to the scalar kernel,
// larger ones to the blocked kernel. It plays the role of the paper's
// Nthr = NCU·Ws·32 (Equation 4) scaled to one CPU core: below it the
// blocked kernel's per-region panel packing (O(outer+inner)) does not
// amortize; above it the branch-free inner loop wins.
var DefaultNthr = 4096

var (
	kernelMu  sync.RWMutex
	kernelReg = map[string]Kernel{}
)

// RegisterKernel adds a kernel under its Name. Later registrations of
// the same name replace earlier ones (tests use this to interpose).
func RegisterKernel(k Kernel) {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	kernelReg[k.Name()] = k
}

// LookupKernel returns the kernel registered under name.
func LookupKernel(name string) (Kernel, error) {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	if k, ok := kernelReg[name]; ok {
		return k, nil
	}
	return nil, fmt.Errorf("omega: unknown kernel %q (want %v)", name, kernelNamesLocked())
}

// KernelNames lists the registered kernel names, sorted.
func KernelNames() []string {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	return kernelNamesLocked()
}

func kernelNamesLocked() []string {
	names := make([]string, 0, len(kernelReg))
	for n := range kernelReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterKernel(scalarKernel{})
	RegisterKernel(blockedKernel{})
	RegisterKernel(autoKernel{})
}

// kernelFor resolves the Params' kernel selection once per scan.
func kernelFor(p Params) (Kernel, error) {
	return LookupKernel(p.Kernel.String())
}

// scratchFor builds a throwaway scratch for one-shot entry points
// (ComputeOmega, tests); scan loops build a real one via NewScratch.
func scratchFor(a *seqio.Alignment) *Scratch {
	return &Scratch{pos: a.Positions}
}

// scalarKernel is the reference implementation: the OmegaPlus CPU nested
// loop, unchanged from the original ComputeOmega except that the C(i,2)
// table and positions come from the scratch instead of being rebuilt per
// region.
type scalarKernel struct{}

func (scalarKernel) Name() string { return "scalar" }

func (scalarKernel) Evaluate(s *Scratch, m MatrixView, reg Region, p Params) Result {
	res := Result{GridIndex: reg.Index, Center: reg.Center, MaxOmega: math.Inf(-1)}
	lMax, lMin, rMin, rMax, ok := reg.borders(p)
	if !ok {
		return Result{GridIndex: reg.Index, Center: reg.Center}
	}
	s.ScalarRegions++
	pos := s.pos
	c2 := s.choose2(maxInt(reg.K-lMin+1, rMax-reg.K))
	eps := p.Epsilon
	for l := lMax; l >= lMin; l-- {
		ln := reg.K - l + 1
		ls := m.At(reg.K, l)
		kl := c2[ln]
		fln := float64(ln)
		for r := rMin; r <= rMax; r++ {
			if pos[r]-pos[l] < p.MinWindow {
				continue
			}
			rn := r - reg.K
			rs := m.At(r, reg.K+1)
			ts := m.At(r, l)
			w := Score(ls, rs, ts, kl, c2[rn], fln, float64(rn), eps)
			res.Scores++
			if w > res.MaxOmega {
				res.MaxOmega = w
				res.LeftBorder, res.RightBorder = l, r
			}
		}
	}
	s.Evaluated += res.Scores
	if math.IsInf(res.MaxOmega, -1) { // nothing scored, or every ω was NaN
		return Result{GridIndex: reg.Index, Center: reg.Center, Scores: res.Scores}
	}
	res.Valid = true
	res.LeftPos = pos[res.LeftBorder]
	res.RightPos = pos[res.RightBorder]
	return res
}

// rowsProvider is the raw-storage fast path of the blocked kernel: both
// DPMatrix and View expose their row-major cell storage, letting the
// kernel read LS/RS/TS with direct indexing instead of three interface
// At calls (each with bounds panics) per slot.
type rowsProvider interface {
	rawRows() (rows [][]float64, lo int)
}

// blockedKernel evaluates the region on flat packed panels, KernelInput
// style: right-border sums RS, combination counts KR and widths RN are
// packed once per region (the paper's LR/km buffers, Fig. 4/5), the
// per-slot `pos[r]-pos[l] < MinWindow` branch of the scalar loop is
// replaced by a two-pointer monotone start index (positions are sorted,
// so as l decreases the first admissible r only moves left), and the
// inner max-reduction is unrolled over 4 right borders. Iteration order
// and comparisons match the scalar kernel exactly, so the max (and its
// tie-breaking) is bit-identical.
//
// On raw rows the kernel also skips work that cannot win: each left
// border's right borders are taken in strips of pruneStrip, and a strip
// is not scored when stripPrunable shows its upper bound is strictly
// below the running best. A skipped cell scores strictly below a best
// that only grows, so under the strict `>` it could never have been
// chosen. Result.Scores still counts every admissible cell;
// Scratch.Evaluated counts the scored ones.
type blockedKernel struct{}

// pruneStrip is the number of consecutive right borders one
// stripPrunable test covers (two unrolled groups of 4).
const pruneStrip = 8

// pruneSlack and pruneMargin absorb floating-point rounding in
// stripPrunable. The DP sums of M are exact only up to rounding, so the
// computed cross sum X = TS − LS − RS need not be monotone in r;
// pruneSlack·TS[j] bounds that absolute error for every cell of a strip
// (the worst case grows like 2·width²·2⁻⁵³ relative to TS, under 1e-6
// for windows below ~6·10⁴ SNPs; the observed error is orders of
// magnitude smaller). pruneMargin covers the relative error of the
// numerator sums and of the test's own products.
const (
	pruneSlack  = 1e-6
	pruneMargin = 1 + 1e-6
)

// stripPrunable reports whether no right border i..j (ascending) at one
// left border can score above best. r² ∈ [0,1], so RS and the cross sum
// X never decrease as r moves outward: over the strip, Equation 2 is at
// most ((LS+RS[j])/(KL+KR[i])) / (X(i)/(ln·rn) + ε), with the X lower
// bound divided by the widest rn when it is positive and by the
// narrowest when it is not. The test is that bound compared with best,
// multiplied through by the (positive) denominators so it costs no
// division. A strip holding the ln = rn = 1 cell (0/0) has KL+KR[i] = 0
// and no finite bound: the right side is then 0 or NaN and the test
// fails, as it does while best is still −Inf.
func stripPrunable(best, ls, kl, ln, tsI, tsJ, rsI, rsJ, krI, rnI, rnJ, eps float64) bool {
	x := tsI - ls - rsI - pruneSlack*tsJ
	q := ln * rnJ
	if x < 0 {
		q = ln * rnI
	}
	d := x + eps*q // (X/(ln·rn) + ε)·ln·rn
	return d > 0 && (ls+rsJ)*q*pruneMargin < best*(kl+krI)*d
}

func (blockedKernel) Name() string { return "blocked" }

func (blockedKernel) Evaluate(s *Scratch, m MatrixView, reg Region, p Params) Result {
	lMax, lMin, rMin, rMax, ok := reg.borders(p)
	if !ok {
		return Result{GridIndex: reg.Index, Center: reg.Center}
	}
	s.BlockedRegions++
	inner := rMax - rMin + 1
	c2 := s.choose2(maxInt(reg.K-lMin+1, rMax-reg.K))
	eps := p.Epsilon
	pos := s.pos

	var rows [][]float64
	lo := 0
	rp, raw := m.(rowsProvider)
	if raw {
		rows, lo = rp.rawRows()
	}

	// Pack the right-border panels once per region.
	rs := grow(s.rs, inner)
	kr := grow(s.kr, inner)
	rnf := grow(s.rn, inner)
	s.rs, s.kr, s.rn = rs, kr, rnf
	var tsRows [][]float64
	if raw {
		tsRows = growRows(s.tsRows, inner)
		s.tsRows = tsRows
	}
	for i := 0; i < inner; i++ {
		r := rMin + i
		rn := r - reg.K
		if raw {
			row := rows[r-lo]
			tsRows[i] = row
			rs[i] = row[reg.K+1-lo]
		} else {
			rs[i] = m.At(r, reg.K+1)
		}
		kr[i] = c2[rn]
		rnf[i] = float64(rn)
	}

	best := math.Inf(-1)
	bestL, bestR := 0, 0
	var scores, evaluated int64
	rStart := rMin
	if p.MinWindow > 0 {
		rStart = rMax + 1
	}
	for l := lMax; l >= lMin; l-- {
		ln := reg.K - l + 1
		kl := c2[ln]
		fln := float64(ln)
		var ls float64
		if raw {
			ls = rows[reg.K-lo][l-lo]
		} else {
			ls = m.At(reg.K, l)
		}
		if p.MinWindow > 0 {
			// Two-pointer: the first admissible right border for this l.
			// pos is sorted, so as l decreases the boundary only moves
			// left; total pointer work is O(inner) across the whole
			// region instead of one branch per slot. The predicate is the
			// exact complement of the scalar kernel's subtraction-form
			// skip test (FP subtraction is monotone, so the admissible r
			// form a suffix and the boundary is monotone in l).
			for rStart > rMin && pos[rStart-1]-pos[l] >= p.MinWindow {
				rStart--
			}
		}
		iStart := rStart - rMin
		if iStart >= inner {
			continue // every window at this l is below MinWindow
		}
		scores += int64(inner - iStart)
		if !raw {
			for i := iStart; i < inner; i++ {
				r := rMin + i
				w := Score(ls, rs[i], m.At(r, l), kl, kr[i], fln, rnf[i], eps)
				if w > best {
					best, bestL, bestR = w, l, r
				}
			}
			evaluated += int64(inner - iStart)
			continue
		}
		cl := l - lo
		for i := iStart; i < inner; i += pruneStrip {
			end := i + pruneStrip
			if end > inner {
				end = inner
			}
			j := end - 1
			if stripPrunable(best, ls, kl, fln, tsRows[i][cl], tsRows[j][cl], rs[i], rs[j], kr[i], rnf[i], rnf[j], eps) {
				continue // no cell of the strip can beat best: skip it
			}
			evaluated += int64(end - i)
			k := i
			// Unrolled over 4 right borders; the compares stay sequential
			// in ascending r, preserving the scalar tie-breaking.
			for ; k+4 <= end; k += 4 {
				w0 := Score(ls, rs[k], tsRows[k][cl], kl, kr[k], fln, rnf[k], eps)
				w1 := Score(ls, rs[k+1], tsRows[k+1][cl], kl, kr[k+1], fln, rnf[k+1], eps)
				w2 := Score(ls, rs[k+2], tsRows[k+2][cl], kl, kr[k+2], fln, rnf[k+2], eps)
				w3 := Score(ls, rs[k+3], tsRows[k+3][cl], kl, kr[k+3], fln, rnf[k+3], eps)
				if w0 > best {
					best, bestL, bestR = w0, l, rMin+k
				}
				if w1 > best {
					best, bestL, bestR = w1, l, rMin+k+1
				}
				if w2 > best {
					best, bestL, bestR = w2, l, rMin+k+2
				}
				if w3 > best {
					best, bestL, bestR = w3, l, rMin+k+3
				}
			}
			for ; k < end; k++ {
				w := Score(ls, rs[k], tsRows[k][cl], kl, kr[k], fln, rnf[k], eps)
				if w > best {
					best, bestL, bestR = w, l, rMin+k
				}
			}
		}
	}
	s.Evaluated += evaluated
	if math.IsInf(best, -1) { // nothing scored, or every ω was NaN
		return Result{GridIndex: reg.Index, Center: reg.Center, Scores: scores}
	}
	return Result{
		GridIndex: reg.Index, Center: reg.Center, Valid: true,
		MaxOmega: best, LeftBorder: bestL, RightBorder: bestR,
		LeftPos: pos[bestL], RightPos: pos[bestR], Scores: scores,
	}
}

// autoKernel dispatches per region on workload size, mirroring the
// paper's dynamic Kernel I/II selection (§IV-A): small border grids go
// to the scalar kernel (low fixed cost), large ones to the blocked
// kernel (high throughput). The threshold is Params.KernelNthr, or
// DefaultNthr when unset. Which kernel won each region is visible via
// Stats.KernelScalar / Stats.KernelBlocked and the
// omegago_kernel_dispatch_total metrics.
type autoKernel struct{}

func (autoKernel) Name() string { return "auto" }

func (autoKernel) Evaluate(s *Scratch, m MatrixView, reg Region, p Params) Result {
	lMax, lMin, rMin, rMax, ok := reg.borders(p)
	if !ok {
		return Result{GridIndex: reg.Index, Center: reg.Center}
	}
	nthr := p.KernelNthr
	if nthr <= 0 {
		nthr = DefaultNthr
	}
	if (lMax-lMin+1)*(rMax-rMin+1) < nthr {
		return scalarKernel{}.Evaluate(s, m, reg, p)
	}
	return blockedKernel{}.Evaluate(s, m, reg, p)
}
