// Package bitvec provides bit-packed binary vectors and the popcount
// kernels used to count allele co-occurrences between SNPs.
//
// A SNP over n samples is stored as ceil(n/64) machine words. Pairwise
// LD between two SNPs reduces to three popcounts: |x|, |y| and |x AND y|.
// When an alignment contains missing or ambiguous characters, a validity
// mask accompanies each vector and all counts are taken over the
// intersection of the masks.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const (
	// WordBits is the number of sample states packed per machine word.
	WordBits  = 64
	wordShift = 6
	wordMask  = WordBits - 1
)

// WordsFor returns the number of uint64 words needed to hold n bits.
func WordsFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + WordBits - 1) / WordBits
}

// Vector is a fixed-length bit vector over n sample states.
// The zero value is an empty vector of length 0.
type Vector struct {
	words []uint64
	n     int
}

// New returns a zeroed vector of length n.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, WordsFor(n)), n: n}
}

// FromBools builds a vector whose bit i is set iff b[i] is true.
func FromBools(b []bool) *Vector {
	v := New(len(b))
	for i, x := range b {
		if x {
			v.words[i>>wordShift] |= 1 << (uint(i) & wordMask)
		}
	}
	return v
}

// AdoptWords wraps an existing word slice as a Vector of n bits WITHOUT
// copying: the vector aliases words for its lifetime. The caller must
// guarantee len(words) == WordsFor(n) and that every bit of the last
// word beyond n is zero — the invariant all popcount kernels rely on.
// This is the zero-copy entry point of the mmap-backed bitmat reader
// (internal/seqio), where rows are adopted straight out of the mapped
// file; see docs/FORMATS.md for the on-disk guarantee.
func AdoptWords(words []uint64, n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	if len(words) != WordsFor(n) {
		panic(fmt.Sprintf("bitvec: AdoptWords: %d words for %d bits, want %d",
			len(words), n, WordsFor(n)))
	}
	return &Vector{words: words, n: n}
}

// Len returns the number of sample states in the vector.
func (v *Vector) Len() int { return v.n }

// Words exposes the backing words for kernel code. The last word's bits
// beyond Len() are always zero.
func (v *Vector) Words() []uint64 { return v.words }

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
	return v.words[i>>wordShift]&(1<<(uint(i)&wordMask)) != 0
}

// Set sets bit i to b.
func (v *Vector) Set(i int, b bool) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
	if b {
		v.words[i>>wordShift] |= 1 << (uint(i) & wordMask)
	} else {
		v.words[i>>wordShift] &^= 1 << (uint(i) & wordMask)
	}
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	w := make([]uint64, len(v.words))
	copy(w, v.words)
	return &Vector{words: w, n: v.n}
}

// Equal reports whether v and u have the same length and bits.
func (v *Vector) Equal(u *Vector) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// OnesCount returns the number of set bits (the derived-allele count).
func (v *Vector) OnesCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AndCount returns |v AND u|, the number of samples carrying the derived
// allele at both SNPs. Panics if lengths differ.
func AndCount(v, u *Vector) int {
	if v.n != u.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, u.n))
	}
	c := 0
	vw, uw := v.words, u.words
	// Unrolled by 4: the dominant kernel of direct pairwise LD.
	i := 0
	for ; i+4 <= len(vw); i += 4 {
		c += bits.OnesCount64(vw[i]&uw[i]) +
			bits.OnesCount64(vw[i+1]&uw[i+1]) +
			bits.OnesCount64(vw[i+2]&uw[i+2]) +
			bits.OnesCount64(vw[i+3]&uw[i+3])
	}
	for ; i < len(vw); i++ {
		c += bits.OnesCount64(vw[i] & uw[i])
	}
	return c
}

// MaskedCounts returns, for SNP vectors x and y with validity masks mx and
// my (nil means all-valid), the tuple (n, cx, cy, cxy): the number of
// samples valid at both sites, and the derived-allele counts of x, y and
// x AND y restricted to those samples.
func MaskedCounts(x, y, mx, my *Vector) (n, cx, cy, cxy int) {
	if x.n != y.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", x.n, y.n))
	}
	if mx == nil && my == nil {
		return x.n, x.OnesCount(), y.OnesCount(), AndCount(x, y)
	}
	xw, yw := x.words, y.words
	full := ^uint64(0)
	for i := range xw {
		m := full
		if mx != nil {
			m = mx.words[i]
		}
		if my != nil {
			m &= my.words[i]
		}
		if i == len(xw)-1 && x.n&wordMask != 0 {
			m &= (1 << (uint(x.n) & wordMask)) - 1
		}
		n += bits.OnesCount64(m)
		cx += bits.OnesCount64(xw[i] & m)
		cy += bits.OnesCount64(yw[i] & m)
		cxy += bits.OnesCount64(xw[i] & yw[i] & m)
	}
	return n, cx, cy, cxy
}

// String renders the vector as a '0'/'1' string, sample 0 first.
func (v *Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Matrix is a SNP-major bit matrix: one packed Vector per SNP over the
// same set of samples. An optional per-SNP validity mask marks samples
// with missing data at that site.
type Matrix struct {
	rows    []*Vector
	masks   []*Vector // nil slice or per-row nil entries mean all-valid
	samples int
}

// NewMatrix returns an empty matrix over the given number of samples.
func NewMatrix(samples int) *Matrix {
	if samples < 0 {
		panic("bitvec: negative sample count")
	}
	return &Matrix{samples: samples}
}

// Samples returns the number of samples (columns).
func (m *Matrix) Samples() int { return m.samples }

// NumSNPs returns the number of SNP rows.
func (m *Matrix) NumSNPs() int { return len(m.rows) }

// AppendRow adds a SNP row with an optional validity mask (nil = all
// samples valid). The row length must equal the sample count.
func (m *Matrix) AppendRow(row, mask *Vector) {
	if row.Len() != m.samples {
		panic(fmt.Sprintf("bitvec: row length %d != samples %d", row.Len(), m.samples))
	}
	if mask != nil && mask.Len() != m.samples {
		panic(fmt.Sprintf("bitvec: mask length %d != samples %d", mask.Len(), m.samples))
	}
	m.rows = append(m.rows, row)
	m.masks = append(m.masks, mask)
}

// Row returns SNP row i.
func (m *Matrix) Row(i int) *Vector { return m.rows[i] }

// Mask returns the validity mask of SNP row i, or nil if all samples are
// valid at that site.
func (m *Matrix) Mask(i int) *Vector { return m.masks[i] }

// HasMissing reports whether any row carries a validity mask.
func (m *Matrix) HasMissing() bool {
	for _, mk := range m.masks {
		if mk != nil {
			return true
		}
	}
	return false
}

// PairCounts computes (n, ci, cj, cij) for SNP rows i and j, honouring
// validity masks.
func (m *Matrix) PairCounts(i, j int) (n, ci, cj, cij int) {
	return MaskedCounts(m.rows[i], m.rows[j], m.masks[i], m.masks[j])
}
