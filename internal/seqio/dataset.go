package seqio

import (
	"fmt"
	"sort"

	"omegago/internal/bitvec"
)

// Alignment is a binary SNP alignment over a genomic region.
type Alignment struct {
	// Positions holds the SNP coordinates in base pairs, ascending.
	Positions []float64
	// Length is the total length of the region in base pairs.
	Length float64
	// Matrix holds one bit-packed row per SNP (same order as Positions).
	Matrix *bitvec.Matrix
	// SampleNames optionally labels the haplotypes (len = Samples()).
	// Parsers fill it when the format carries names (FASTA headers, VCF
	// sample columns); nil means unnamed.
	SampleNames []string
}

// Samples returns the number of sequences in the alignment.
func (a *Alignment) Samples() int { return a.Matrix.Samples() }

// NumSNPs returns the number of segregating sites.
func (a *Alignment) NumSNPs() int { return len(a.Positions) }

// Validate checks the structural invariants: positions sorted and within
// [0, Length], and matrix row count matching the position count.
func (a *Alignment) Validate() error {
	if a.Matrix == nil {
		return fmt.Errorf("seqio: alignment has no matrix")
	}
	if a.Matrix.NumSNPs() != len(a.Positions) {
		return fmt.Errorf("seqio: %d positions but %d matrix rows",
			len(a.Positions), a.Matrix.NumSNPs())
	}
	if !sort.Float64sAreSorted(a.Positions) {
		return fmt.Errorf("seqio: positions are not sorted")
	}
	if err := checkPositionRange(a.Positions, a.Length); err != nil {
		return err
	}
	if a.SampleNames != nil && len(a.SampleNames) != a.Samples() {
		return fmt.Errorf("seqio: %d sample names for %d samples",
			len(a.SampleNames), a.Samples())
	}
	return nil
}

// checkPositionRange rejects a position below 0 or, when length > 0
// (0 = unknown), above length.
func checkPositionRange(pos []float64, length float64) error {
	for i, p := range pos {
		if p < 0 || (length > 0 && p > length) {
			return fmt.Errorf("seqio: position %d (%g bp) outside [0, %g]", i, p, length)
		}
	}
	return nil
}

// Slice returns a shallow sub-alignment containing SNPs [lo, hi).
// Rows and masks are shared with the receiver.
func (a *Alignment) Slice(lo, hi int) *Alignment {
	if lo < 0 || hi > a.NumSNPs() || lo > hi {
		panic(fmt.Sprintf("seqio: bad slice [%d,%d) of %d SNPs", lo, hi, a.NumSNPs()))
	}
	m := bitvec.NewMatrix(a.Samples())
	for i := lo; i < hi; i++ {
		m.AppendRow(a.Matrix.Row(i), a.Matrix.Mask(i))
	}
	return &Alignment{
		Positions: a.Positions[lo:hi],
		Length:    a.Length,
		Matrix:    m,
	}
}

// DerivedAlleleFrequencies returns the derived-allele frequency of every
// SNP, mask-aware. SNPs whose valid-sample count is zero get frequency 0.
func (a *Alignment) DerivedAlleleFrequencies() []float64 {
	out := make([]float64, a.NumSNPs())
	for i := range out {
		row := a.Matrix.Row(i)
		mask := a.Matrix.Mask(i)
		if mask == nil {
			if a.Samples() > 0 {
				out[i] = float64(row.OnesCount()) / float64(a.Samples())
			}
			continue
		}
		n, c, _, _ := bitvec.MaskedCounts(row, row, mask, mask)
		if n > 0 {
			out[i] = float64(c) / float64(n)
		}
	}
	return out
}
