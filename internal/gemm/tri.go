package gemm

import (
	"math/bits"
	"sync"
)

// Cache-blocked triangular popcount GEMM.
//
// The ω statistic only ever consumes r² for SNP pairs (i, j) with j < i
// inside a window, yet the flat PopcountGemm computes the full rectangle
// of the pair-count matrix. This kernel follows the BLIS structure of a
// packed, cache-blocked GEMM for the bit-packed case and computes only a
// trapezoidal region of the self-product:
//
//   - SNP bit-rows are packed into word-interleaved panels (BitMR rows
//     for A, BitNR for B), zero-padded at the row fringe so the
//     micro-kernel never branches on panel height;
//   - the i/j/word loops are tiled (BitMC/BitNC/BitKC) so the active B
//     panel block stays cache-resident while A panels stream through;
//   - micro-tiles lying entirely beyond the trapezoid boundary are
//     skipped before any word is loaded — the triangle skip that halves
//     the popcount work of a full upper-triangle product;
//   - the inner kernel is a BitMR×BitNR = 4×2 register block of
//     math/bits.OnesCount64 accumulators with the word loop unrolled
//     two deep.
//
// Blocking parameters for the bit kernel. A packed B block is
// BitNC·BitKC·8 bytes (128 KiB) and stays L2-resident; one A micro-panel
// slice (BitMR·BitKC·8 = 4 KiB) and one B micro-panel slice (2 KiB)
// stream through L1. Exported so design-space tests can exercise the
// fringe logic at non-default blockings.
const (
	// BitMR×BitNR is the register micro-tile: BitMR packed A rows
	// against BitNR packed B rows, BitMR·BitNR popcount accumulators.
	BitMR = 4
	BitNR = 2
	// BitKC is the word-panel depth per cache pass.
	BitKC = 128
	// BitMC is the A-row block height distributed to one worker job.
	BitMC = 128
	// BitNC is the B-row block width kept hot across an A block sweep.
	BitNC = 128
)

// TrapezoidPairs returns the number of (r, c) cells with c ≤ r + diag in
// an aRows×bRows count matrix — the useful-pair denominator the
// benchmark harness turns into Mpairs/s.
func TrapezoidPairs(aRows, bRows, diag int) int64 {
	if bRows <= 0 {
		return 0
	}
	var n int64
	for r := 0; r < aRows; r++ {
		w := r + diag + 1
		if w > bRows {
			w = bRows
		}
		if w > 0 {
			n += int64(w)
		}
	}
	return n
}

// PopcountTrapezoid computes C[r][c] = popcount(a_r AND b_c) for every
// pair inside the trapezoid c ≤ r + diag; cells outside it are left
// zero. With a == b and diag = 0 this is exactly the lower triangle
// (diagonal included) of the self pair-count matrix — the region the
// DP-matrix fill consumes — at roughly half the popcount work of the
// full-rectangle PopcountGemm. diag ≥ b.Rows−1 degenerates to the full
// rectangle; diag < −(a.Rows−1) computes nothing. Work is split over
// `workers` goroutines by A-row blocks.
func PopcountTrapezoid(a, b *BitMatrix, diag, workers int) *CountMatrix {
	checkSameCols("PopcountTrapezoid", a, b)
	c := &CountMatrix{Rows: a.Rows, Cols: b.Rows, Data: make([]int32, a.Rows*b.Rows)}
	if a.Rows == 0 || b.Rows == 0 || a.Rows+diag <= 0 {
		return c
	}
	if workers < 1 {
		workers = 1
	}
	// Pack once, read-only afterwards: both goroutine-shared panel sets
	// are written before any worker starts.
	pa := packBitPanels(a, BitMR)
	pb := packBitPanels(b, BitNR)
	nBlocks := (a.Rows + BitMC - 1) / BitMC
	if workers > nBlocks {
		workers = nBlocks
	}
	if workers == 1 {
		trapezoidBlocks(pa, pb, c, a, b, diag, 0, a.Rows)
		return c
	}
	jobs := make(chan int, nBlocks)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i0 := range jobs {
				hi := i0 + BitMC
				if hi > a.Rows {
					hi = a.Rows
				}
				trapezoidBlocks(pa, pb, c, a, b, diag, i0, hi)
			}
		}()
	}
	for i0 := 0; i0 < a.Rows; i0 += BitMC {
		jobs <- i0
	}
	close(jobs)
	wg.Wait()
	return c
}

// packBitPanels packs m's rows into word-interleaved panels of pr rows:
// dst[p·pr·Words + k·pr + r] holds word k of row p·pr+r. Rows past
// m.Rows are zero-padded, so a micro-kernel may always load pr words per
// k step; padded rows simply contribute empty bit sets.
func packBitPanels(m *BitMatrix, pr int) []uint64 {
	panels := (m.Rows + pr - 1) / pr
	dst := make([]uint64, panels*pr*m.Words)
	for p := 0; p < panels; p++ {
		base := p * pr * m.Words
		rows := m.Rows - p*pr
		if rows > pr {
			rows = pr
		}
		for r := 0; r < rows; r++ {
			src := m.Data[(p*pr+r)*m.Words : (p*pr+r+1)*m.Words]
			for k, w := range src {
				dst[base+k*pr+r] = w
			}
		}
	}
	return dst
}

// trapezoidBlocks sweeps A rows [i0, iHi) against every in-trapezoid B
// block: jc/kc tile the column and word dimensions so the packed B block
// stays hot while A panels stream, and the micro-tile loop skips any
// 4×2 tile whose whole column range lies beyond the trapezoid edge.
func trapezoidBlocks(pa, pb []uint64, c *CountMatrix, a, b *BitMatrix, diag, i0, iHi int) {
	words := a.Words
	// Columns this block can ever touch: the last row's trapezoid edge.
	colMax := iHi - 1 + diag + 1 // exclusive
	if colMax > b.Rows {
		colMax = b.Rows
	}
	for jc := 0; jc < colMax; jc += BitNC {
		ncEnd := jc + BitNC
		if ncEnd > colMax {
			ncEnd = colMax
		}
		for kc := 0; kc < words; kc += BitKC {
			kw := words - kc
			if kw > BitKC {
				kw = BitKC
			}
			// i0 is always BitMC-aligned (a multiple of BitMR), so tiles
			// line up with the packed panels.
			for i := i0; i < iHi; i += BitMR {
				tileEdge := i + BitMR - 1 + diag // last valid column of the tile
				for j := jc; j < ncEnd; j += BitNR {
					if j > tileEdge {
						break // triangle skip: the rest of the row block is outside
					}
					microTrapezoid(pa, pb, c, a, b, diag, i, j, kc, kw, iHi)
				}
			}
		}
	}
}

// microTrapezoid runs the 4×2 register micro-kernel over words
// [kc, kc+kw) of the packed panels for the tile at (i, j) and merges the
// in-trapezoid, in-bounds accumulators into C.
func microTrapezoid(pa, pb []uint64, c *CountMatrix, a, b *BitMatrix, diag, i, j, kc, kw, iHi int) {
	words := a.Words
	ap := pa[(i/BitMR)*BitMR*words+kc*BitMR:]
	bp := pb[(j/BitNR)*BitNR*words+kc*BitNR:]
	var acc [BitMR * BitNR]int32
	ai, bi := 0, 0
	k := 0
	for ; k+2 <= kw; k += 2 { // word loop unrolled two deep
		a0, a1, a2, a3 := ap[ai], ap[ai+1], ap[ai+2], ap[ai+3]
		b0, b1 := bp[bi], bp[bi+1]
		a4, a5, a6, a7 := ap[ai+4], ap[ai+5], ap[ai+6], ap[ai+7]
		b2, b3 := bp[bi+2], bp[bi+3]
		acc[0] += int32(bits.OnesCount64(a0&b0) + bits.OnesCount64(a4&b2))
		acc[1] += int32(bits.OnesCount64(a0&b1) + bits.OnesCount64(a4&b3))
		acc[2] += int32(bits.OnesCount64(a1&b0) + bits.OnesCount64(a5&b2))
		acc[3] += int32(bits.OnesCount64(a1&b1) + bits.OnesCount64(a5&b3))
		acc[4] += int32(bits.OnesCount64(a2&b0) + bits.OnesCount64(a6&b2))
		acc[5] += int32(bits.OnesCount64(a2&b1) + bits.OnesCount64(a6&b3))
		acc[6] += int32(bits.OnesCount64(a3&b0) + bits.OnesCount64(a7&b2))
		acc[7] += int32(bits.OnesCount64(a3&b1) + bits.OnesCount64(a7&b3))
		ai += 2 * BitMR
		bi += 2 * BitNR
	}
	for ; k < kw; k++ {
		a0, a1, a2, a3 := ap[ai], ap[ai+1], ap[ai+2], ap[ai+3]
		b0, b1 := bp[bi], bp[bi+1]
		acc[0] += int32(bits.OnesCount64(a0 & b0))
		acc[1] += int32(bits.OnesCount64(a0 & b1))
		acc[2] += int32(bits.OnesCount64(a1 & b0))
		acc[3] += int32(bits.OnesCount64(a1 & b1))
		acc[4] += int32(bits.OnesCount64(a2 & b0))
		acc[5] += int32(bits.OnesCount64(a2 & b1))
		acc[6] += int32(bits.OnesCount64(a3 & b0))
		acc[7] += int32(bits.OnesCount64(a3 & b1))
		ai += BitMR
		bi += BitNR
	}
	rows := iHi - i
	if rows > BitMR {
		rows = BitMR
	}
	for r := 0; r < rows; r++ {
		edge := i + r + diag
		crow := c.Data[(i+r)*c.Cols : (i+r+1)*c.Cols]
		for s := 0; s < BitNR; s++ {
			if jj := j + s; jj < c.Cols && jj <= edge {
				crow[jj] += acc[r*BitNR+s]
			}
		}
	}
}
