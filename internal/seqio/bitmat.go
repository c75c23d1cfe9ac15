package seqio

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"omegago/internal/bitvec"
)

// The bitmat format is omegago's versioned, mmap-able packed bit-matrix
// file: the SNP-major word layout of internal/bitvec (which is also the
// row layout internal/gemm packs its panels from) written to disk
// little-endian, so a scan can map the file and adopt rows zero-copy —
// allele compression happens once, at cmd/convert time, never again.
// docs/FORMATS.md is the normative byte-level specification; the
// constants here mirror it.
const (
	// BitmatMagic identifies a bitmat file; the trailing '1' is the
	// format version (a v2 would be "OMGBMAT2").
	BitmatMagic = "OMGBMAT1"
	// BitmatHeaderSize is the fixed header length in bytes.
	BitmatHeaderSize = 104
	// bitmatHashOffset is where the SHA-256 content hash starts; the
	// hash covers header[0:72] ++ file[BitmatHeaderSize:EOF].
	bitmatHashOffset = 72
	// BitmatFlagMasks marks the presence of the validity-mask section.
	BitmatFlagMasks = 1 << 0
	// bitmatKnownFlags is the set of flag bits this reader understands;
	// per the compat rules a reader must reject files with unknown bits.
	bitmatKnownFlags = BitmatFlagMasks
)

// bitmatHeader is the decoded fixed header of a bitmat file.
type bitmatHeader struct {
	flags       uint32
	snpCount    int
	sampleCount int
	length      float64
	wordsPerRow int
	rowsOffset  int64
	maskOffset  int64
	hash        [sha256.Size]byte
}

// encode renders the header into a BitmatHeaderSize byte block (hash
// field zeroed; the caller patches it in after hashing).
func (h *bitmatHeader) encode() []byte {
	b := make([]byte, BitmatHeaderSize)
	copy(b[0:8], BitmatMagic)
	binary.LittleEndian.PutUint32(b[8:12], BitmatHeaderSize)
	binary.LittleEndian.PutUint32(b[12:16], h.flags)
	binary.LittleEndian.PutUint64(b[16:24], uint64(h.snpCount))
	binary.LittleEndian.PutUint64(b[24:32], uint64(h.sampleCount))
	binary.LittleEndian.PutUint64(b[32:40], math.Float64bits(h.length))
	binary.LittleEndian.PutUint64(b[40:48], uint64(h.wordsPerRow))
	binary.LittleEndian.PutUint64(b[48:56], uint64(h.rowsOffset))
	binary.LittleEndian.PutUint64(b[56:64], uint64(h.maskOffset))
	// b[64:72] reserved, zero.
	return b
}

// decodeBitmatHeader parses and validates the fixed header.
func decodeBitmatHeader(b []byte) (bitmatHeader, error) {
	var h bitmatHeader
	if len(b) < BitmatHeaderSize {
		return h, fmt.Errorf("seqio: bitmat file shorter than the %d-byte header", BitmatHeaderSize)
	}
	if string(b[0:8]) != BitmatMagic {
		return h, fmt.Errorf("seqio: not a bitmat file (magic %q, want %q)", b[0:8], BitmatMagic)
	}
	if hs := binary.LittleEndian.Uint32(b[8:12]); hs != BitmatHeaderSize {
		return h, fmt.Errorf("seqio: bitmat header size %d, want %d", hs, BitmatHeaderSize)
	}
	h.flags = binary.LittleEndian.Uint32(b[12:16])
	if unknown := h.flags &^ bitmatKnownFlags; unknown != 0 {
		return h, fmt.Errorf("seqio: bitmat file uses unknown flag bits %#x", unknown)
	}
	snp := binary.LittleEndian.Uint64(b[16:24])
	samples := binary.LittleEndian.Uint64(b[24:32])
	wpr := binary.LittleEndian.Uint64(b[40:48])
	const maxInt = int64(^uint(0) >> 1)
	if snp > uint64(maxInt) || samples > uint64(maxInt) || wpr > uint64(maxInt) {
		return h, fmt.Errorf("seqio: bitmat dimensions overflow the host int")
	}
	h.snpCount = int(snp)
	h.sampleCount = int(samples)
	h.length = math.Float64frombits(binary.LittleEndian.Uint64(b[32:40]))
	h.wordsPerRow = int(wpr)
	if h.wordsPerRow != bitvec.WordsFor(h.sampleCount) {
		return h, fmt.Errorf("seqio: bitmat words-per-row %d inconsistent with %d samples (want %d)",
			h.wordsPerRow, h.sampleCount, bitvec.WordsFor(h.sampleCount))
	}
	h.rowsOffset = int64(binary.LittleEndian.Uint64(b[48:56]))
	h.maskOffset = int64(binary.LittleEndian.Uint64(b[56:64]))
	if reserved := binary.LittleEndian.Uint64(b[64:72]); reserved != 0 {
		return h, fmt.Errorf("seqio: bitmat reserved field is %#x, want 0", reserved)
	}
	copy(h.hash[:], b[bitmatHashOffset:BitmatHeaderSize])
	return h, nil
}

// bitmatLayout computes the section offsets a conforming writer must
// produce for the given dimensions.
func bitmatLayout(snpCount, wordsPerRow int, hasMask bool) (rowsOff, maskOff, size int64) {
	rowsOff = BitmatHeaderSize + 8*int64(snpCount) // positions table
	size = rowsOff + int64(snpCount)*int64(wordsPerRow)*8
	if hasMask {
		maskOff = size
		size += int64(bitvec.WordsFor(snpCount)) * 8 // presence bitmap
		// Mask rows are appended after the bitmap, one per masked SNP;
		// their count is data-dependent, so `size` here covers only the
		// fixed part and writers extend it per mask row.
	}
	return rowsOff, maskOff, size
}

// hashedBitmatHeader builds the encoded header block for a with the
// content hash patched in — the shared front half of WriteBitmat and
// ContentHash. The hash covers header[0:bitmatHashOffset] plus the
// body bytes, generated through the hasher without buffering the file.
func hashedBitmatHeader(a *Alignment) (hb []byte, hasMask bool, err error) {
	if err := a.Validate(); err != nil {
		return nil, false, err
	}
	if a.NumSNPs() == 0 {
		return nil, false, fmt.Errorf("seqio: bitmat: alignment has no SNPs")
	}
	hasMask = a.Matrix.HasMissing()
	hdr := bitmatHeader{
		snpCount:    a.NumSNPs(),
		sampleCount: a.Samples(),
		length:      a.Length,
		wordsPerRow: bitvec.WordsFor(a.Samples()),
	}
	if hasMask {
		hdr.flags |= BitmatFlagMasks
	}
	hdr.rowsOffset, hdr.maskOffset, _ = bitmatLayout(hdr.snpCount, hdr.wordsPerRow, hasMask)

	hb = hdr.encode()
	sum := sha256.New()
	sum.Write(hb[:bitmatHashOffset])
	if err := writeBitmatBody(sum, a, hasMask); err != nil {
		return nil, false, err
	}
	copy(hb[bitmatHashOffset:], sum.Sum(nil))
	return hb, hasMask, nil
}

// ContentHash computes the bitmat content hash of the alignment — the
// same SHA-256 WriteBitmat stamps into the header and BitmatSource
// reads back — without writing anything. It is the canonical identity
// of a dataset's bits: any input format (ms, FASTA, VCF, bitmat)
// normalizes to the same hash once allele-compressed, which is what
// the omegad result cache keys on.
func ContentHash(a *Alignment) ([sha256.Size]byte, error) {
	var out [sha256.Size]byte
	hb, _, err := hashedBitmatHeader(a)
	if err != nil {
		return out, err
	}
	copy(out[:], hb[bitmatHashOffset:])
	return out, nil
}

// WriteBitmat writes the alignment to w in bitmat format. The body is
// generated twice — once through the SHA-256 content hash, once to w —
// so no in-memory copy of the file is built.
func WriteBitmat(w io.Writer, a *Alignment) error {
	hb, hasMask, err := hashedBitmatHeader(a)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(hb); err != nil {
		return err
	}
	if err := writeBitmatBody(bw, a, hasMask); err != nil {
		return err
	}
	return bw.Flush()
}

// writeBitmatBody emits everything after the header: the positions
// table, the packed SNP rows, and (when hasMask) the mask section.
func writeBitmatBody(w io.Writer, a *Alignment, hasMask bool) error {
	var buf [8]byte
	putWord := func(v uint64) error {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, err := w.Write(buf[:])
		return err
	}
	for _, p := range a.Positions {
		if err := putWord(math.Float64bits(p)); err != nil {
			return err
		}
	}
	for i := 0; i < a.NumSNPs(); i++ {
		for _, wd := range a.Matrix.Row(i).Words() {
			if err := putWord(wd); err != nil {
				return err
			}
		}
	}
	if !hasMask {
		return nil
	}
	presence := bitvec.New(a.NumSNPs())
	for i := 0; i < a.NumSNPs(); i++ {
		if a.Matrix.Mask(i) != nil {
			presence.Set(i, true)
		}
	}
	for _, wd := range presence.Words() {
		if err := putWord(wd); err != nil {
			return err
		}
	}
	for i := 0; i < a.NumSNPs(); i++ {
		mask := a.Matrix.Mask(i)
		if mask == nil {
			continue
		}
		for _, wd := range mask.Words() {
			if err := putWord(wd); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteBitmatFile writes the alignment to a bitmat file at path.
func WriteBitmatFile(path string, a *Alignment) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBitmat(f, a); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteFileAtomic writes a file at path through write, landing it via a
// temporary file in the same directory, an fsync and a rename: a reader
// never observes a partially written file, and a crash mid-write leaves
// the previous content (or absence) intact. The durable omegad store
// writes every job record, result and dataset blob through it.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func() {
		f.Close()
		os.Remove(tmp)
	}
	if err := write(f); err != nil {
		cleanup()
		return err
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// BitmatSize returns the exact on-disk size in bytes of the bitmat
// encoding of a — header, positions table, packed rows, and (when the
// alignment carries validity masks) the presence bitmap plus one mask
// row per masked SNP. It costs a validation pass, not an encode; the
// omegad dataset cache uses it as the byte weight of a resident
// dataset.
func BitmatSize(a *Alignment) (int64, error) {
	if err := a.Validate(); err != nil {
		return 0, err
	}
	if a.NumSNPs() == 0 {
		return 0, fmt.Errorf("seqio: bitmat: alignment has no SNPs")
	}
	wordsPerRow := bitvec.WordsFor(a.Samples())
	hasMask := a.Matrix.HasMissing()
	_, _, size := bitmatLayout(a.NumSNPs(), wordsPerRow, hasMask)
	if hasMask {
		for i := 0; i < a.NumSNPs(); i++ {
			if a.Matrix.Mask(i) != nil {
				size += int64(wordsPerRow) * 8
			}
		}
	}
	return size, nil
}

// bitmatFile is a parsed bitmat image: the validated header plus
// precomputed section views into the raw bytes. It is the common core
// of ReadBitmat (copying) and BitmatSource (zero-copy over a mapping).
type bitmatFile struct {
	hdr       bitmatHeader
	data      []byte
	positions []float64
	maskRank  []int // maskRank[i] = masked SNPs among [0, i); nil without masks
}

// parseBitmat validates a complete bitmat image: header sanity, section
// bounds, content hash, positions, and padding-bit hygiene of the
// presence bitmap. Only the canonical encoding is accepted
// (docs/FORMATS.md §1.8): at least one SNP, no bytes past the layout,
// and a mask section only when some SNP has a mask.
func parseBitmat(data []byte) (*bitmatFile, error) {
	hdr, err := decodeBitmatHeader(data)
	if err != nil {
		return nil, err
	}
	if hdr.snpCount < 1 {
		return nil, fmt.Errorf("seqio: bitmat file has no SNPs")
	}
	// Bound the dimensions by the image before any offset arithmetic,
	// so a hostile header can neither overflow the layout nor make the
	// reader allocate for rows the file does not hold.
	body := int64(len(data)) - BitmatHeaderSize
	if int64(hdr.snpCount) > body/8 || int64(hdr.wordsPerRow) > body/8/int64(hdr.snpCount) {
		return nil, fmt.Errorf("seqio: bitmat file truncated: %d bytes cannot hold %d SNPs of %d words",
			len(data), hdr.snpCount, hdr.wordsPerRow)
	}
	hasMask := hdr.flags&BitmatFlagMasks != 0
	rowsOff, maskOff, fixedSize := bitmatLayout(hdr.snpCount, hdr.wordsPerRow, hasMask)
	if hdr.rowsOffset != rowsOff {
		return nil, fmt.Errorf("seqio: bitmat rows offset %d, want %d", hdr.rowsOffset, rowsOff)
	}
	if hdr.maskOffset != maskOff {
		return nil, fmt.Errorf("seqio: bitmat mask offset %d, want %d", hdr.maskOffset, maskOff)
	}
	if int64(len(data)) < fixedSize {
		return nil, fmt.Errorf("seqio: bitmat file truncated: %d bytes, want ≥ %d", len(data), fixedSize)
	}
	if !hasMask && int64(len(data)) != fixedSize {
		return nil, fmt.Errorf("seqio: bitmat file has %d bytes past its %d-byte layout", int64(len(data))-fixedSize, fixedSize)
	}

	sum := sha256.New()
	sum.Write(data[:bitmatHashOffset])
	sum.Write(data[BitmatHeaderSize:])
	if got := sum.Sum(nil); string(got) != string(hdr.hash[:]) {
		return nil, fmt.Errorf("seqio: bitmat content hash mismatch (%x, header says %x): file corrupt or truncated",
			got, hdr.hash)
	}

	f := &bitmatFile{hdr: hdr, data: data}
	f.positions = make([]float64, hdr.snpCount)
	for i := range f.positions {
		off := BitmatHeaderSize + 8*i
		f.positions[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8]))
	}
	meta := StreamMeta{Samples: hdr.sampleCount, NumSNPs: hdr.snpCount, Length: hdr.length, Positions: f.positions}
	if err := validateMeta(meta); err != nil {
		return nil, err
	}
	if err := checkPositionRange(f.positions, hdr.length); err != nil {
		return nil, err
	}

	if hasMask {
		bits := make([]uint64, bitvec.WordsFor(hdr.snpCount))
		for w := range bits {
			off := hdr.maskOffset + int64(w)*8
			bits[w] = binary.LittleEndian.Uint64(data[off : off+8])
		}
		if err := checkRowPadding(bits, hdr.snpCount); err != nil {
			return nil, fmt.Errorf("seqio: bitmat presence bitmap: %w", err)
		}
		f.maskRank = make([]int, hdr.snpCount+1)
		for i := 0; i < hdr.snpCount; i++ {
			f.maskRank[i+1] = f.maskRank[i]
			if f.presenceBit(i) {
				f.maskRank[i+1]++
			}
		}
		if f.maskRank[hdr.snpCount] == 0 {
			return nil, fmt.Errorf("seqio: bitmat masks flag set but no SNP has a mask")
		}
		need := hdr.maskOffset + int64(bitvec.WordsFor(hdr.snpCount))*8 +
			int64(f.maskRank[hdr.snpCount])*int64(hdr.wordsPerRow)*8
		if int64(len(data)) != need {
			return nil, fmt.Errorf("seqio: bitmat file is %d bytes, its mask section ends at %d", len(data), need)
		}
	}
	return f, nil
}

// presenceBit reports whether SNP i carries a validity mask.
func (f *bitmatFile) presenceBit(i int) bool {
	off := f.hdr.maskOffset + int64(i>>6)*8
	w := binary.LittleEndian.Uint64(f.data[off : off+8])
	return w&(1<<(uint(i)&63)) != 0
}

// rowBytes returns the raw little-endian bytes of SNP row i.
func (f *bitmatFile) rowBytes(i int) []byte {
	stride := int64(f.hdr.wordsPerRow) * 8
	off := f.hdr.rowsOffset + int64(i)*stride
	return f.data[off : off+stride]
}

// maskBytes returns the raw bytes of SNP i's mask row, or nil when the
// SNP has no mask.
func (f *bitmatFile) maskBytes(i int) []byte {
	if f.maskRank == nil || !f.presenceBit(i) {
		return nil
	}
	stride := int64(f.hdr.wordsPerRow) * 8
	off := f.hdr.maskOffset + int64(bitvec.WordsFor(f.hdr.snpCount))*8 + int64(f.maskRank[i])*stride
	return f.data[off : off+stride]
}

// decodeRow copies raw little-endian row bytes into a fresh Vector,
// checking the zero-padding invariant of bits beyond n.
func decodeRow(raw []byte, n int) (*bitvec.Vector, error) {
	words := make([]uint64, len(raw)/8)
	for w := range words {
		words[w] = binary.LittleEndian.Uint64(raw[8*w:])
	}
	if err := checkRowPadding(words, n); err != nil {
		return nil, err
	}
	return bitvec.AdoptWords(words, n), nil
}

// checkRowPadding enforces the on-disk guarantee that bits beyond n in
// the last word are zero — the invariant every popcount kernel relies
// on (docs/FORMATS.md §4).
func checkRowPadding(words []uint64, n int) error {
	if len(words) == 0 || n&63 == 0 {
		return nil
	}
	if tail := words[len(words)-1] >> (uint(n) & 63); tail != 0 {
		return fmt.Errorf("seqio: bitmat row has nonzero padding bits beyond sample %d", n)
	}
	return nil
}

// ReadBitmat parses a bitmat stream into an in-memory Alignment,
// verifying the content hash. Rows are copied (endianness-portable);
// the zero-copy path is OpenBitmat.
func ReadBitmat(r io.Reader) (*Alignment, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("seqio: reading bitmat: %w", err)
	}
	f, err := parseBitmat(data)
	if err != nil {
		return nil, err
	}
	m := bitvec.NewMatrix(f.hdr.sampleCount)
	for i := 0; i < f.hdr.snpCount; i++ {
		row, err := decodeRow(f.rowBytes(i), f.hdr.sampleCount)
		if err != nil {
			return nil, fmt.Errorf("seqio: bitmat SNP %d: %w", i, err)
		}
		var mask *bitvec.Vector
		if raw := f.maskBytes(i); raw != nil {
			if mask, err = decodeRow(raw, f.hdr.sampleCount); err != nil {
				return nil, fmt.Errorf("seqio: bitmat SNP %d mask: %w", i, err)
			}
		}
		m.AppendRow(row, mask)
	}
	a := &Alignment{Positions: f.positions, Length: f.hdr.length, Matrix: m}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// ReadBitmatFile parses the bitmat file at path into memory.
func ReadBitmatFile(path string) (*Alignment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBitmat(f)
}
