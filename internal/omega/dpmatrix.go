package omega

import (
	"fmt"

	"omegago/internal/ld"
)

// DPMatrix is the dynamic-programming matrix M of Equation 3:
// M[i][j] = Σ r²(s,t) over all SNP pairs j ≤ s < t ≤ i, maintained for a
// sliding global SNP window [lo, hi]. The recurrence
//
//	M[i][j] = M[i][j+1] + M[i−1][j] − M[i−1][j+1] + r²(i,j)
//
// fills a new row from its predecessor with one fresh r² per cell.
//
// Advance implements OmegaPlus's data-reuse optimization: when the next
// region overlaps the current one, rows that survive are relocated
// (re-based) rather than recomputed, and only r² values that involve
// newly entering SNPs are calculated.
type DPMatrix struct {
	comp    *ld.Computer
	lo      int         // first covered global SNP
	hi      int         // last covered global SNP; hi < lo means empty
	rows    [][]float64 // rows[i-lo] holds M[i][j] at offset j-lo, j ∈ [lo, i]
	scratch *Scratch    // optional arena for row/staging storage (nil: allocate)

	r2Computed int64 // cells filled via the recurrence (one r² each)
	r2Reused   int64 // cells preserved by relocation
}

// NewDPMatrix creates an empty matrix over the computer's alignment.
func NewDPMatrix(c *ld.Computer) *DPMatrix {
	return &DPMatrix{comp: c, lo: 0, hi: -1}
}

// NewDPMatrixScratch creates an empty matrix whose row storage and
// recurrence staging buffer come from the scan-scoped scratch arena, so
// steady-state Advance calls allocate nothing. The scratch must belong
// to the same goroutine driving the matrix; snapshots taken from the
// matrix remain valid for the scratch's lifetime (arena chunks are
// never recycled mid-scan).
func NewDPMatrixScratch(c *ld.Computer, s *Scratch) *DPMatrix {
	return &DPMatrix{comp: c, lo: 0, hi: -1, scratch: s}
}

// Lo returns the first covered global SNP index.
func (m *DPMatrix) Lo() int { return m.lo }

// Hi returns the last covered global SNP index (lo−1 when empty).
func (m *DPMatrix) Hi() int { return m.hi }

// R2Computed returns the number of M cells filled via the Equation 3
// recurrence — one fresh r² evaluation each (the LD workload numerator
// of the paper's Table III).
func (m *DPMatrix) R2Computed() int64 { return m.r2Computed }

// R2Reused returns the number of M cells preserved by the relocation
// optimization instead of recomputed — the saving OmegaPlus's
// data-reuse design (§III) contributes on overlapping grid regions.
func (m *DPMatrix) R2Reused() int64 { return m.r2Reused }

// At returns M[i][j] for lo ≤ j ≤ i ≤ hi.
func (m *DPMatrix) At(i, j int) float64 {
	if i < m.lo || i > m.hi || j < m.lo || j > i {
		panic(fmt.Sprintf("omega: M[%d][%d] outside window [%d,%d]", i, j, m.lo, m.hi))
	}
	return m.rows[i-m.lo][j-m.lo]
}

// Advance slides the window to [lo, hi], reusing overlapping content.
// Windows must move forward (lo, hi monotone non-decreasing), which
// BuildRegions guarantees for sorted grid positions.
func (m *DPMatrix) Advance(lo, hi int) {
	if lo < 0 || hi >= m.comp.Alignment().NumSNPs() {
		panic(fmt.Sprintf("omega: window [%d,%d] outside alignment of %d SNPs",
			lo, hi, m.comp.Alignment().NumSNPs()))
	}
	if lo < m.lo {
		panic(fmt.Sprintf("omega: window moved backwards (lo %d < %d)", lo, m.lo))
	}
	if hi < m.hi {
		panic(fmt.Sprintf("omega: window shrank (hi %d < %d)", hi, m.hi))
	}
	if lo > m.hi { // no overlap: reset
		m.rows = m.rows[:0]
		m.lo, m.hi = lo, lo-1
	} else if lo > m.lo { // relocate: drop leading rows, re-base columns
		shift := lo - m.lo
		kept := m.rows[shift:]
		for r := range kept {
			kept[r] = kept[r][shift:]
			m.r2Reused += int64(len(kept[r]))
		}
		m.rows = kept
		m.lo = lo
	} else {
		// lo unchanged: everything retained counts as reuse only when the
		// window actually advances; pure extension reuses existing rows.
		for _, row := range m.rows {
			m.r2Reused += int64(len(row))
		}
	}
	m.extendTo(hi)
}

// extendTo appends rows (m.hi, hi] using the recurrence. Fresh r² values
// are written straight into a staging buffer by the LD computer's
// PairCounts trapezoid path, for exactly the needed pairs — rows
// i ∈ [first, hi], columns j ∈ [lo, i). With the GEMM engine their
// counts come from one cache-blocked triangular bit-matrix
// multiplication that never touches the lower triangle or out-of-window
// cells; the direct engine walks the same rows (split across the
// computer's workers when it has them).
func (m *DPMatrix) extendTo(hi int) {
	if hi <= m.hi {
		return
	}
	first := m.hi + 1
	nNew := hi - first + 1
	width := hi - m.lo + 1
	// fresh[(i-first)*width + (j-lo)]; scratch-backed and reused across
	// Advance calls (PairCounts writes every cell the recurrence reads,
	// so stale values from earlier regions are never observed).
	fresh := m.scratch.freshBuf(nNew * width)
	m.comp.PairCounts(first, hi+1, m.lo, fresh, width)
	for i := first; i <= hi; i++ {
		row := m.scratch.allocRow(i - m.lo + 1)
		ri := i - m.lo
		row[ri] = 0
		if i-1 >= m.lo {
			prev := m.rows[len(m.rows)-1]
			row[ri-1] = fresh[(i-first)*width+(ri-1)]
			m.r2Computed++
			for j := ri - 2; j >= 0; j-- {
				row[j] = row[j+1] + prev[j] - prev[j+1] + fresh[(i-first)*width+j]
				m.r2Computed++
			}
		}
		m.rows = append(m.rows, row)
	}
	m.hi = hi
}

// WindowSum returns Σ r² over all pairs within global SNP range [j, i]
// (an alias of At with self-documenting intent for the ω kernel).
func (m *DPMatrix) WindowSum(j, i int) float64 { return m.At(i, j) }

// MatrixView is the read-only access the ω kernels need to the matrix M
// of Equation 3: At(i, j) = Σ r²(s,t) over j ≤ s < t ≤ i, for a covered
// window [Lo, Hi] of global SNP indices. ComputeOmega (Equation 2) and
// BuildKernelInput (the accelerator buffer packing of Fig. 4/5) read
// the LS/RS/TS sums of every border combination through this interface
// with three At lookups each. Implemented by DPMatrix itself (serial
// and sharded scans, which score against the live matrix) and by the
// immutable View snapshots (the snapshot scheduler, OmegaPlus-G style,
// where workers score while the producer advances the matrix).
type MatrixView interface {
	// At returns M[i][j], the r² sum over all SNP pairs within the
	// global index range [j, i] (Equation 3), for Lo ≤ j ≤ i ≤ Hi.
	At(i, j int) float64
	// Lo returns the first global SNP index covered by the view.
	Lo() int
	// Hi returns the last global SNP index covered by the view.
	Hi() int
}

// View is an immutable snapshot of the matrix window. Snapshots stay
// valid across later Advance calls (relocation re-bases the matrix's own
// row headers; the underlying cell storage is written once), which lets
// a producer thread slide the matrix while worker threads score earlier
// regions — the coarse-grain parallelization of OmegaPlus-G.
type View struct {
	lo, hi int
	rows   [][]float64
}

// Snapshot captures the current window as an immutable View. Only the
// row-header slice is copied (cell storage is written once), so the
// cost is O(rows), not O(cells); ScanParallel accounts it separately in
// Stats.SnapshotTime to keep the Fig. 14 LD/ω split clean.
func (m *DPMatrix) Snapshot() *View {
	rows := make([][]float64, len(m.rows))
	copy(rows, m.rows)
	return &View{lo: m.lo, hi: m.hi, rows: rows}
}

// Lo returns the first covered global SNP index.
func (v *View) Lo() int { return v.lo }

// Hi returns the last covered global SNP index.
func (v *View) Hi() int { return v.hi }

// At returns M[i][j] for lo ≤ j ≤ i ≤ hi.
func (v *View) At(i, j int) float64 {
	if i < v.lo || i > v.hi || j < v.lo || j > i {
		panic(fmt.Sprintf("omega: view M[%d][%d] outside window [%d,%d]", i, j, v.lo, v.hi))
	}
	return v.rows[i-v.lo][j-v.lo]
}

// rawRows exposes the matrix's row storage for the blocked kernel's
// direct-indexing fast path (see rowsProvider).
func (m *DPMatrix) rawRows() ([][]float64, int) { return m.rows, m.lo }

// rawRows exposes the snapshot's row storage for the blocked kernel's
// direct-indexing fast path (see rowsProvider).
func (v *View) rawRows() ([][]float64, int) { return v.rows, v.lo }
