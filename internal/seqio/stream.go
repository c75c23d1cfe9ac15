package seqio

import (
	"fmt"
	"sort"

	"omegago/internal/bitvec"
)

// StreamMeta is the up-front knowledge a chunked scan needs before any
// SNP row is materialized: the full positions table (8 bytes per SNP —
// small next to the bit matrix, and required to lay out the ω grid) and
// the alignment dimensions. Positions must be ascending; NumSNPs ==
// len(Positions).
type StreamMeta struct {
	// Samples is the number of haplotypes (bit-matrix columns).
	Samples int
	// NumSNPs is the number of segregating sites in the whole input.
	NumSNPs int
	// Length is the region length in base pairs (0 when unknown; the
	// last position then bounds the region).
	Length float64
	// Positions holds every SNP coordinate in base pairs, ascending.
	// Callers must treat the slice as read-only.
	Positions []float64
}

// ChunkStats reports the I/O cost of one ReadChunk call, feeding the
// omegago_stream_* observability counters.
type ChunkStats struct {
	// Bytes is the number of bytes read (or freshly mapped) from the
	// underlying storage to materialize the chunk.
	Bytes int64
	// CompressedSNPs counts the SNPs whose samples went through allele
	// compression (text genotypes → packed bits) inside this call. The
	// bitmat path is always 0: its rows are stored pre-packed, which is
	// the entire point of the format (docs/FORMATS.md).
	CompressedSNPs int
}

// ChunkSource delivers a SNP alignment in windows of rows, so a scan
// can run out-of-core: only the rows of the live chunk (plus whatever
// overlap the next chunk shares) need to be resident. It is the
// streaming analogue of a fully parsed Alignment, after the
// HDD-to-accelerator double-buffering pattern of Beyer & Bientinesi and
// PLINK2's packed on-disk representation (see PAPERS.md).
//
// The contract mirrors how omega.ScanStream consumes chunks:
//
//   - Meta is cheap and callable any number of times.
//   - ReadChunk(lo, hi) returns an Alignment holding exactly the rows
//     [lo, hi) with Positions aliased from the global table; successive
//     calls have monotonically non-decreasing lo (windows may overlap,
//     but never move backwards), which lets file-backed sources stream
//     forward while retaining only the overlap tail.
//   - ReadChunk is called from one goroutine at a time (the scan's
//     loader), though not necessarily the goroutine that called Meta.
//   - Close releases file handles or mappings; the Alignments returned
//     by ReadChunk must not be used after Close (mmap-backed rows alias
//     the mapping).
type ChunkSource interface {
	Meta() StreamMeta
	ReadChunk(lo, hi int) (*Alignment, ChunkStats, error)
	Close() error
}

// validateMeta is the shared sanity check sources run at construction:
// positions obey the rules Alignment.Validate applies.
func validateMeta(m StreamMeta) error {
	if m.NumSNPs != len(m.Positions) {
		return fmt.Errorf("seqio: stream meta: %d SNPs but %d positions", m.NumSNPs, len(m.Positions))
	}
	if !sort.Float64sAreSorted(m.Positions) {
		return fmt.Errorf("seqio: stream meta: positions are not sorted")
	}
	if err := checkPositionRange(m.Positions, m.Length); err != nil {
		return err
	}
	if m.Samples < 0 {
		return fmt.Errorf("seqio: stream meta: negative sample count %d", m.Samples)
	}
	return nil
}

// checkChunkBounds validates a ReadChunk request against the source's
// extent and the forward-only contract.
func checkChunkBounds(lo, hi, n, prevLo int) error {
	if lo < 0 || hi > n || lo > hi {
		return fmt.Errorf("seqio: bad chunk [%d,%d) of %d SNPs", lo, hi, n)
	}
	if lo < prevLo {
		return fmt.Errorf("seqio: chunk moved backwards (lo %d < previous %d)", lo, prevLo)
	}
	return nil
}

// AlignmentSource adapts an in-memory Alignment to the ChunkSource
// interface: chunks share the parsed rows (no copying, no I/O). It is
// the fallback omega.ScanStream uses for inputs that were already
// parsed whole — and the reference source the streaming golden tests
// compare file-backed sources against.
type AlignmentSource struct {
	a      *Alignment
	prevLo int
}

// NewAlignmentSource wraps a parsed alignment as a chunk source.
func NewAlignmentSource(a *Alignment) (*AlignmentSource, error) {
	if a == nil {
		return nil, fmt.Errorf("seqio: nil alignment")
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &AlignmentSource{a: a}, nil
}

// Meta returns the wrapped alignment's dimensions and positions.
func (s *AlignmentSource) Meta() StreamMeta {
	return StreamMeta{
		Samples:   s.a.Samples(),
		NumSNPs:   s.a.NumSNPs(),
		Length:    s.a.Length,
		Positions: s.a.Positions,
	}
}

// ReadChunk returns rows [lo, hi) sharing the parsed matrix's storage.
// Bytes counts the packed row words handed out (the chunk's working-set
// size); CompressedSNPs is zero — compression happened at parse time,
// before the source existed.
func (s *AlignmentSource) ReadChunk(lo, hi int) (*Alignment, ChunkStats, error) {
	if err := checkChunkBounds(lo, hi, s.a.NumSNPs(), s.prevLo); err != nil {
		return nil, ChunkStats{}, err
	}
	s.prevLo = lo
	m := bitvec.NewMatrix(s.a.Samples())
	var bytes int64
	for i := lo; i < hi; i++ {
		row, mask := s.a.Matrix.Row(i), s.a.Matrix.Mask(i)
		m.AppendRow(row, mask)
		bytes += int64(len(row.Words())) * 8
		if mask != nil {
			bytes += int64(len(mask.Words())) * 8
		}
	}
	return &Alignment{
		Positions: s.a.Positions[lo:hi],
		Length:    s.a.Length,
		Matrix:    m,
	}, ChunkStats{Bytes: bytes}, nil
}

// Close releases nothing; the wrapped alignment stays valid.
func (s *AlignmentSource) Close() error { return nil }

// MSSource streams one ms replicate chunk by chunk, deferring allele
// compression: the replicate's haplotype text is sample-major (one
// line per sample spanning every site), so the text must be resident,
// but the bit-packed SNP rows — the structure the LD kernels walk — are
// built only for the live chunk, and each column is packed exactly
// once (overlap rows are reused from the previous chunk). For true
// out-of-core scans convert the replicate to bitmat with cmd/convert;
// this source exists so -stream still bounds the bit-matrix working
// set on ms input.
type MSSource struct {
	rep      *MSReplicate
	meta     StreamMeta
	prevLo   int
	tailLo   int              // global index of tail[0]
	tailRows []*bitvec.Vector // packed rows carried over from the last chunk
}

// NewMSSource builds a streaming source over one parsed ms replicate,
// scaling positions to regionBP base pairs exactly as
// MSReplicate.ToAlignment does (same multiply, bit-identical floats).
func NewMSSource(rep *MSReplicate, regionBP float64) (*MSSource, error) {
	if rep == nil {
		return nil, fmt.Errorf("seqio: nil ms replicate")
	}
	if regionBP <= 0 {
		return nil, fmt.Errorf("seqio: non-positive region length %g", regionBP)
	}
	if rep.SegSites != len(rep.Positions) {
		return nil, fmt.Errorf("seqio: replicate has segsites %d but %d positions",
			rep.SegSites, len(rep.Positions))
	}
	for h, hap := range rep.Haplotypes {
		if len(hap) != rep.SegSites {
			return nil, fmt.Errorf("seqio: haplotype %d has %d sites, want %d",
				h, len(hap), rep.SegSites)
		}
	}
	pos := make([]float64, rep.SegSites)
	for i, p := range rep.Positions {
		pos[i] = p * regionBP
	}
	m := StreamMeta{
		Samples:   len(rep.Haplotypes),
		NumSNPs:   rep.SegSites,
		Length:    regionBP,
		Positions: pos,
	}
	if err := validateMeta(m); err != nil {
		return nil, err
	}
	return &MSSource{rep: rep, meta: m}, nil
}

// Meta returns the replicate's dimensions and scaled positions.
func (s *MSSource) Meta() StreamMeta { return s.meta }

// packColumn compresses one ms column (site) into a packed bit row.
func (s *MSSource) packColumn(site int) (*bitvec.Vector, error) {
	row := bitvec.New(s.meta.Samples)
	for h := range s.rep.Haplotypes {
		switch s.rep.Haplotypes[h][site] {
		case '1':
			row.Set(h, true)
		case '0':
		default:
			return nil, fmt.Errorf("seqio: invalid ms character %q", s.rep.Haplotypes[h][site])
		}
	}
	return row, nil
}

// ReadChunk packs columns [lo, hi) into SNP bit rows. Columns already
// packed for the previous (overlapping) chunk are reused, so every
// site is allele-compressed exactly once per scan; CompressedSNPs
// counts only the freshly packed columns.
func (s *MSSource) ReadChunk(lo, hi int) (*Alignment, ChunkStats, error) {
	if err := checkChunkBounds(lo, hi, s.meta.NumSNPs, s.prevLo); err != nil {
		return nil, ChunkStats{}, err
	}
	s.prevLo = lo
	rows := make([]*bitvec.Vector, 0, hi-lo)
	var st ChunkStats
	for i := lo; i < hi; i++ {
		if i >= s.tailLo && i < s.tailLo+len(s.tailRows) {
			rows = append(rows, s.tailRows[i-s.tailLo])
			continue
		}
		row, err := s.packColumn(i)
		if err != nil {
			return nil, ChunkStats{}, err
		}
		rows = append(rows, row)
		st.CompressedSNPs++
		st.Bytes += int64(s.meta.Samples) // one text byte per sample read
	}
	s.tailLo, s.tailRows = lo, rows
	m := bitvec.NewMatrix(s.meta.Samples)
	for _, r := range rows {
		m.AppendRow(r, nil)
	}
	return &Alignment{
		Positions: s.meta.Positions[lo:hi],
		Length:    s.meta.Length,
		Matrix:    m,
	}, st, nil
}

// Close releases nothing; the replicate text stays with the caller.
func (s *MSSource) Close() error { return nil }
