// Package gemm implements BLIS-style blocked bit-matrix multiplication
// (Van Zee & Van de Geijn, TOMS 2015): cache blocking, panel packing and
// a register micro-kernel, parallelized across goroutines.
//
// It is the dense-linear-algebra substrate onto which LD computation is
// cast (Alachiotis, Popovici & Low, IPDPSW 2016; Binder et al., IPDPSW
// 2019): allele co-occurrence counts between all SNP pairs are exactly a
// general matrix multiplication of the binary alignment with its own
// transpose, with AND as the product and popcount as the sum. Two
// kernels are provided: the flat rectangular PopcountGemm, and the
// blocked triangular PopcountTrapezoid that the LD layer uses directly.
package gemm

import (
	"fmt"
	"math/bits"
	"sync"

	"omegago/internal/bitvec"
)

// BitMatrix is a row-major bit-packed binary matrix: each of the Rows
// rows holds Cols bits in Words uint64 machine words. It is the packed
// form of a SNP alignment block used by the popcount GEMM.
type BitMatrix struct {
	Rows, Cols int
	Words      int // words per row
	Data       []uint64
}

// NewBitMatrix allocates a zeroed bit matrix.
func NewBitMatrix(rows, cols int) *BitMatrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("gemm: negative dimension %dx%d", rows, cols))
	}
	w := bitvec.WordsFor(cols)
	return &BitMatrix{Rows: rows, Cols: cols, Words: w, Data: make([]uint64, rows*w)}
}

// FromVectors packs bit vectors (all of equal length) into a BitMatrix,
// copying the words so the matrix owns its storage. Nil entries and
// ragged lengths panic: a silently truncated or misaligned pack would
// corrupt every downstream pair count.
func FromVectors(vs []*bitvec.Vector) *BitMatrix {
	if len(vs) == 0 {
		return NewBitMatrix(0, 0)
	}
	if vs[0] == nil {
		panic("gemm: FromVectors: vector 0 is nil")
	}
	m := NewBitMatrix(len(vs), vs[0].Len())
	for i, v := range vs {
		if v == nil {
			panic(fmt.Sprintf("gemm: FromVectors: vector %d is nil", i))
		}
		if v.Len() != m.Cols {
			panic(fmt.Sprintf("gemm: FromVectors: ragged input: vector %d has length %d, want %d (the length of vector 0)", i, v.Len(), m.Cols))
		}
		copy(m.Data[i*m.Words:(i+1)*m.Words], v.Words())
	}
	return m
}

// checkSameCols panics unless a and b agree on the shared (column)
// dimension — the sample axis both operands popcount over. Every bit
// kernel calls it on entry so shape bugs surface at the call site with
// the full shapes, not as silently wrong counts.
func checkSameCols(op string, a, b *BitMatrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("gemm: %s: column (sample) dimensions differ: a is %d×%d, b is %d×%d",
			op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// RowWords returns the packed words of row i.
func (m *BitMatrix) RowWords(i int) []uint64 {
	return m.Data[i*m.Words : (i+1)*m.Words]
}

// Set sets bit (i, j).
func (m *BitMatrix) Set(i, j int, v bool) {
	w := i*m.Words + j/64
	mask := uint64(1) << (uint(j) % 64)
	if v {
		m.Data[w] |= mask
	} else {
		m.Data[w] &^= mask
	}
}

// Get returns bit (i, j).
func (m *BitMatrix) Get(i, j int) bool {
	return m.Data[i*m.Words+j/64]&(1<<(uint(j)%64)) != 0
}

// CountMatrix is a row-major int32 matrix of pair counts.
type CountMatrix struct {
	Rows, Cols int
	Data       []int32
}

// At returns count (i, j).
func (c *CountMatrix) At(i, j int) int32 { return c.Data[i*c.Cols+j] }

// PopcountGemm computes C[i][j] = popcount(a_i AND b_j) for all row pairs
// of a and b — the GEMM formulation of allele co-occurrence counting.
// Rows are tiled in blocks so each b tile stays cache-resident while a
// streams through, and tiles are distributed over `workers` goroutines.
func PopcountGemm(a, b *BitMatrix, workers int) *CountMatrix {
	checkSameCols("PopcountGemm", a, b)
	c := &CountMatrix{Rows: a.Rows, Cols: b.Rows, Data: make([]int32, a.Rows*b.Rows)}
	if a.Rows == 0 || b.Rows == 0 {
		return c
	}
	if workers < 1 {
		workers = 1
	}
	const tile = 64 // rows per tile: 64·words(uint64) ≈ L1-resident for typical sample counts
	type job struct{ iLo, iHi int }
	jobs := make(chan job, (a.Rows+tile-1)/tile)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				popcountTile(a, b, c, jb.iLo, jb.iHi)
			}
		}()
	}
	for lo := 0; lo < a.Rows; lo += tile {
		hi := lo + tile
		if hi > a.Rows {
			hi = a.Rows
		}
		jobs <- job{lo, hi}
	}
	close(jobs)
	wg.Wait()
	return c
}

// popcountTile fills C rows [iLo, iHi), unrolling pairs of B rows to
// amortize loads of the A row words.
func popcountTile(a, b *BitMatrix, c *CountMatrix, iLo, iHi int) {
	words := a.Words
	for i := iLo; i < iHi; i++ {
		ra := a.Data[i*words : (i+1)*words]
		crow := c.Data[i*c.Cols : (i+1)*c.Cols]
		j := 0
		for ; j+2 <= b.Rows; j += 2 {
			rb0 := b.Data[j*words : (j+1)*words]
			rb1 := b.Data[(j+1)*words : (j+2)*words]
			var s0, s1 int32
			for w := 0; w < words; w++ {
				aw := ra[w]
				s0 += int32(bits.OnesCount64(aw & rb0[w]))
				s1 += int32(bits.OnesCount64(aw & rb1[w]))
			}
			crow[j] = s0
			crow[j+1] = s1
		}
		for ; j < b.Rows; j++ {
			rb := b.Data[j*words : (j+1)*words]
			var s int32
			for w := 0; w < words; w++ {
				s += int32(bits.OnesCount64(ra[w] & rb[w]))
			}
			crow[j] = s
		}
	}
}

// PopcountGemmNaive is the reference implementation used by tests.
func PopcountGemmNaive(a, b *BitMatrix) *CountMatrix {
	checkSameCols("PopcountGemmNaive", a, b)
	c := &CountMatrix{Rows: a.Rows, Cols: b.Rows, Data: make([]int32, a.Rows*b.Rows)}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			s := int32(0)
			for k := 0; k < a.Cols; k++ {
				if a.Get(i, k) && b.Get(j, k) {
					s++
				}
			}
			c.Data[i*c.Cols+j] = s
		}
	}
	return c
}
