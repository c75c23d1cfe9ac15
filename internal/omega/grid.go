// Package omega implements the core of OmegaPlus: the ω statistic of
// Kim & Nielsen (Equation 2 of the paper), evaluated at a grid of
// positions along a genome over all combinations of left/right
// sub-window borders, on top of the dynamic-programming matrix M of
// region r² sums (Equation 3) with OmegaPlus's data-reuse (relocation)
// optimization for overlapping consecutive regions.
//
// Entry points, all bit-identical in their Results:
//
//   - ScanCtx — the serial reference workflow.
//   - ScanParallelCtx — the snapshot scheduler: one producer slides the
//     DP matrix and hands each region's immutable snapshot to workers
//     that score it.
//   - ScanShardedCtx — the work-sharded scheduler: contiguous region
//     ranges scanned in parallel, each with a private DP matrix.
//   - ScanStream — the out-of-core path: an seqio.ChunkSource delivers
//     overlapping row chunks, double-buffered against compute, with
//     only the live DP band resident (stream.go).
//
// Every loop over a scan's regions is one region-range driver
// (ScanRange in scan.go) with a per-region evaluation hook: the serial
// scan, each shard and each streamed chunk score inline with a Kernel,
// the snapshot producer hands each region to its workers, and the GPU
// and FPGA simulators (internal/gpu, internal/fpga) model the device
// around their own ω launches. A fresh DP matrix over a contiguous
// range of regions reproduces the serial cells bit for bit; the r² a
// serial matrix would have relocated instead is reported as
// Stats.R2Duplicated.
//
// The per-region ω evaluation itself is pluggable: a registry of
// Kernel implementations (kernels.go — scalar reference, branch-free
// blocked, and the Nthr-style auto dispatch mirroring the paper's
// Kernel I/II selection) drawing working memory from a per-goroutine
// Scratch. ComputeOmega remains as the one-shot convenience wrapper
// over the scalar kernel.
package omega

import (
	"fmt"
	"math"
	"sort"

	"omegago/internal/seqio"
)

// DefaultEpsilon mirrors OmegaPlus's DENOMINATOR_OFFSET: it is added to
// the between-regions LD term so that windows with zero cross-LD do not
// divide by zero.
const DefaultEpsilon = 1e-5

// Params configures a scan.
type Params struct {
	// GridSize is the number of equidistant ω positions (≥ 1).
	GridSize int
	// MinWindow is the minimum total window span in bp: a border
	// combination (l, r) is scored only if pos[r] − pos[l] ≥ MinWindow.
	MinWindow float64
	// MaxWindow is the maximum distance in bp of a window border from
	// the grid position (per side). Zero means unbounded.
	MaxWindow float64
	// MinSNPsPerSide is the minimum number of SNPs in each sub-region
	// (default 2, the smallest count with a within-region r² sum).
	MinSNPsPerSide int
	// MaxSNPsPerSide caps the SNPs per sub-region. Zero means unbounded.
	MaxSNPsPerSide int
	// Epsilon is the denominator offset (default DefaultEpsilon).
	Epsilon float64
	// Kernel selects the ω kernel implementation (see KernelKind). The
	// zero value is KernelAuto: per-region scalar/blocked dispatch by
	// workload size, mirroring the paper's Kernel I/II selection (§IV-A).
	Kernel KernelKind
	// KernelNthr overrides the auto-dispatch workload threshold (border
	// combinations per region). Zero means DefaultNthr.
	KernelNthr int
}

// WithDefaults returns a copy with unset fields defaulted.
func (p Params) WithDefaults() Params {
	if p.MinSNPsPerSide < 1 {
		p.MinSNPsPerSide = 2
	}
	if p.Epsilon == 0 {
		p.Epsilon = DefaultEpsilon
	}
	if p.MaxWindow <= 0 {
		p.MaxWindow = math.Inf(1)
	}
	return p
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.GridSize < 1 {
		return fmt.Errorf("omega: grid size %d < 1", p.GridSize)
	}
	if p.MinWindow < 0 {
		return fmt.Errorf("omega: negative MinWindow %g", p.MinWindow)
	}
	if p.MaxWindow < 0 {
		return fmt.Errorf("omega: negative MaxWindow %g", p.MaxWindow)
	}
	if p.MaxSNPsPerSide != 0 && p.MaxSNPsPerSide < p.MinSNPsPerSide {
		return fmt.Errorf("omega: MaxSNPsPerSide %d < MinSNPsPerSide %d",
			p.MaxSNPsPerSide, p.MinSNPsPerSide)
	}
	if _, err := kernelFor(p); err != nil {
		return err
	}
	if p.KernelNthr < 0 {
		return fmt.Errorf("omega: negative KernelNthr %d", p.KernelNthr)
	}
	return nil
}

// Region is the SNP neighbourhood of one grid position: SNPs with global
// indices [Lo, Hi] lie within MaxWindow of Center, and K is the junction
// (the last SNP with position ≤ Center). The left sub-region is [l, K]
// for a border l, the right one is [K+1, r].
type Region struct {
	Index  int     // grid position index
	Center float64 // ω position in bp
	Lo, Hi int     // inclusive global SNP range; Lo > Hi means empty
	K      int     // junction; K < Lo means the left side is empty
}

// Skipped reports whether the region is not scored: it is empty, or
// its junction leaves one side without SNPs. Scans give such a region a
// zero Result without touching the DP matrix.
func (r Region) Skipped() bool {
	return r.Lo > r.Hi || r.K < r.Lo || r.K >= r.Hi
}

// LeftSNPs returns the number of SNPs on the left side.
func (r Region) LeftSNPs() int {
	if r.K < r.Lo {
		return 0
	}
	return r.K - r.Lo + 1
}

// RightSNPs returns the number of SNPs on the right side.
func (r Region) RightSNPs() int {
	if r.Hi <= r.K {
		return 0
	}
	return r.Hi - r.K
}

// GridPositions returns gridSize equidistant ω positions covering
// [first, last]. A single-position grid sits at the midpoint.
func GridPositions(first, last float64, gridSize int) []float64 {
	if gridSize < 1 || last < first {
		return nil
	}
	out := make([]float64, gridSize)
	if gridSize == 1 {
		out[0] = (first + last) / 2
		return out
	}
	step := (last - first) / float64(gridSize-1)
	for i := range out {
		out[i] = first + float64(i)*step
	}
	return out
}

// BuildRegions computes the region of every grid position for an
// alignment. Regions are returned in ascending center order; their
// [Lo, Hi] ranges are monotone, which is what makes the DP-matrix
// relocation optimization applicable.
func BuildRegions(a *seqio.Alignment, p Params) ([]Region, error) {
	return BuildRegionsFromPositions(a.Positions, p)
}

// BuildRegionsFromPositions is BuildRegions over a bare sorted
// positions table — the entry point of ScanStream, whose chunked
// sources expose the full positions up front (seqio.StreamMeta) without
// materializing the alignment.
func BuildRegionsFromPositions(pos []float64, p Params) ([]Region, error) {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	w := len(pos)
	if w == 0 {
		return nil, fmt.Errorf("omega: alignment has no SNPs")
	}
	centers := GridPositions(pos[0], pos[w-1], p.GridSize)
	regions := make([]Region, len(centers))
	for i, c := range centers {
		lo := sort.SearchFloat64s(pos, c-p.MaxWindow)                                  // first ≥ c−maxwin
		hi := sort.SearchFloat64s(pos, math.Nextafter(c+p.MaxWindow, math.Inf(1))) - 1 // last ≤ c+maxwin
		k := sort.SearchFloat64s(pos, math.Nextafter(c, math.Inf(1))) - 1              // last ≤ c
		if k > hi {
			k = hi
		}
		regions[i] = Region{Index: i, Center: c, Lo: lo, Hi: hi, K: k}
	}
	return regions, nil
}

// borders enumerates the valid left and right border index ranges of a
// region under p: left borders l ∈ [lMin, K−MinSNPsPerSide+1] descending
// …) and right borders r ∈ [K+MinSNPsPerSide, rMax].
func (r Region) borders(p Params) (lMax, lMin, rMin, rMax int, ok bool) {
	// l is the leftmost SNP of the left window: valid range keeps
	// ln = K−l+1 within [MinSNPsPerSide, MaxSNPsPerSide].
	lMax = r.K - p.MinSNPsPerSide + 1 // largest l (smallest window)
	lMin = r.Lo
	if p.MaxSNPsPerSide > 0 {
		if lo := r.K - p.MaxSNPsPerSide + 1; lo > lMin {
			lMin = lo
		}
	}
	rMin = r.K + p.MinSNPsPerSide
	rMax = r.Hi
	if p.MaxSNPsPerSide > 0 {
		if hi := r.K + p.MaxSNPsPerSide; hi < rMax {
			rMax = hi
		}
	}
	ok = lMax >= lMin && rMax >= rMin && !r.Skipped()
	return lMax, lMin, rMin, rMax, ok
}

// CountOmegas returns the number of ω scores the region produces under
// the window constraints — the per-grid-position workload that drives
// the GPU kernel selection threshold (Equation 4 of the paper).
func CountOmegas(a *seqio.Alignment, reg Region, p Params) int64 {
	p = p.WithDefaults()
	lMax, lMin, rMin, rMax, ok := reg.borders(p)
	if !ok {
		return 0
	}
	pos := a.Positions
	if p.MinWindow <= 0 {
		return int64(lMax-lMin+1) * int64(rMax-rMin+1)
	}
	// Two-pointer sweep: as l decreases, the first admissible r moves left.
	var count int64
	r := rMax + 1
	for l := lMax; l >= lMin; l-- {
		for r > rMin && pos[r-1]-pos[l] >= p.MinWindow {
			r--
		}
		if r <= rMax {
			count += int64(rMax - r + 1)
		}
	}
	return count
}
