package seqio

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omegago/internal/bitvec"
)

// bitmatAlignment builds a deterministic random alignment; withMasks
// gives roughly a quarter of the SNPs a validity mask (exercising the
// compact mask section).
func bitmatAlignment(t *testing.T, rng *rand.Rand, snps, samples int, withMasks bool) *Alignment {
	t.Helper()
	m := bitvec.NewMatrix(samples)
	pos := make([]float64, snps)
	for i := 0; i < snps; i++ {
		row := bitvec.New(samples)
		for s := 0; s < samples; s++ {
			row.Set(s, rng.Intn(2) == 1)
		}
		var mask *bitvec.Vector
		if withMasks && rng.Intn(4) == 0 {
			mask = bitvec.New(samples)
			for s := 0; s < samples; s++ {
				mask.Set(s, rng.Intn(8) != 0) // mostly valid
			}
		}
		m.AppendRow(row, mask)
		pos[i] = float64(i*97 + rng.Intn(90))
	}
	a := &Alignment{Positions: pos, Length: float64(snps * 100), Matrix: m}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

func alignmentsEqual(t *testing.T, got, want *Alignment) {
	t.Helper()
	if got.NumSNPs() != want.NumSNPs() || got.Samples() != want.Samples() || got.Length != want.Length {
		t.Fatalf("shape: got %d×%d len %g, want %d×%d len %g",
			got.NumSNPs(), got.Samples(), got.Length,
			want.NumSNPs(), want.Samples(), want.Length)
	}
	for i := 0; i < want.NumSNPs(); i++ {
		if got.Positions[i] != want.Positions[i] {
			t.Fatalf("position[%d] = %g, want %g", i, got.Positions[i], want.Positions[i])
		}
		if !got.Matrix.Row(i).Equal(want.Matrix.Row(i)) {
			t.Fatalf("row %d differs", i)
		}
		gm, wm := got.Matrix.Mask(i), want.Matrix.Mask(i)
		switch {
		case (gm == nil) != (wm == nil):
			t.Fatalf("mask %d: presence differs (got %v, want %v)", i, gm != nil, wm != nil)
		case gm != nil && !gm.Equal(wm):
			t.Fatalf("mask %d differs", i)
		}
	}
}

func TestBitmatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, tc := range []struct {
		name     string
		snps     int
		samples  int
		withMask bool
	}{
		{"small", 10, 7, false},
		{"word-aligned", 32, 64, false},
		{"masked", 50, 23, true},
		{"one-snp", 1, 130, false},
		{"masked-wide", 40, 200, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := bitmatAlignment(t, rng, tc.snps, tc.samples, tc.withMask)
			var buf bytes.Buffer
			if err := WriteBitmat(&buf, a); err != nil {
				t.Fatal(err)
			}
			got, err := ReadBitmat(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			alignmentsEqual(t, got, a)

			// The encoding is deterministic: re-serializing the decoded
			// alignment reproduces the file byte for byte.
			var buf2 bytes.Buffer
			if err := WriteBitmat(&buf2, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatal("write → read → write is not byte-identical")
			}
		})
	}
}

func TestBitmatCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	a := bitmatAlignment(t, rng, 30, 40, true)
	var buf bytes.Buffer
	if err := WriteBitmat(&buf, a); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	flip := func(off int) []byte {
		b := append([]byte(nil), good...)
		b[off] ^= 0x40
		return b
	}
	cases := map[string][]byte{
		"magic":          flip(0),
		"body-byte":      flip(len(good) - 3),
		"positions-byte": flip(BitmatHeaderSize + 1),
		"stored-hash":    flip(bitmatHashOffset + 5),
		"truncated":      good[:len(good)-1],
		"header-only":    good[:BitmatHeaderSize],
		"short":          good[:10],
		"empty":          nil,
	}
	for name, data := range cases {
		if _, err := ReadBitmat(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt file accepted", name)
		}
	}

	// Unknown flag bits must be rejected (future-version safety), even
	// with a recomputed valid hash.
	b := append([]byte(nil), good...)
	b[12] |= 0x80 // flags word at [12:16], bit 7 unassigned
	if _, err := ReadBitmat(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "flag") {
		t.Errorf("unknown flags: err = %v, want flag error", err)
	}
}

func TestBitmatSourceZeroCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, withMask := range []bool{false, true} {
		a := bitmatAlignment(t, rng, 64, 100, withMask)
		path := filepath.Join(t.TempDir(), "a.bitmat")
		if err := WriteBitmatFile(path, a); err != nil {
			t.Fatal(err)
		}
		src, err := OpenBitmat(path)
		if err != nil {
			t.Fatal(err)
		}
		meta := src.Meta()
		if meta.NumSNPs != a.NumSNPs() || meta.Samples != a.Samples() || meta.Length != a.Length {
			t.Fatalf("meta = %+v", meta)
		}
		var compressed int
		for lo := 0; lo < a.NumSNPs(); lo += 20 {
			hi := lo + 25 // overlapping chunks, like the scanner's windows
			if hi > a.NumSNPs() {
				hi = a.NumSNPs()
			}
			chunk, cst, err := src.ReadChunk(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			compressed += cst.CompressedSNPs
			alignmentsEqual(t, chunk, a.Slice(lo, hi))
		}
		if compressed != 0 {
			t.Errorf("bitmat source compressed %d SNPs, want 0", compressed)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		if err := src.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
	}
}

func TestBitmatSourceDetectsTamperedFile(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	a := bitmatAlignment(t, rng, 16, 30, false)
	path := filepath.Join(t.TempDir(), "a.bitmat")
	if err := WriteBitmatFile(path, a); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBitmat(path); err == nil {
		t.Fatal("tampered bitmat file opened without error")
	}
}

func TestBitmatRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBitmat(&buf, &Alignment{Matrix: bitvec.NewMatrix(4)}); err == nil {
		t.Fatal("WriteBitmat accepted an empty alignment")
	}
}

func TestCheckRowPadding(t *testing.T) {
	words := []uint64{0xFF, 0} // 8 low bits set, 100-bit row
	if err := checkRowPadding(words, 100); err != nil {
		t.Fatalf("clean padding rejected: %v", err)
	}
	words[1] = 1 << 40 // bit 104 of a 100-bit row
	if err := checkRowPadding(words, 100); err == nil {
		t.Fatal("dirty padding accepted")
	}
}

// TestWriteFileAtomic: a successful write lands the callback's bytes; a
// failing callback leaves the previous file intact and no temp file
// behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.json")
	put := func(s string) func(w io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if err := WriteFileAtomic(path, put("first")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing write returned %v, want %v", err, boom)
	}
	if got, _ := os.ReadFile(path); string(got) != "first" {
		t.Errorf("after a failed write the file holds %q, want %q", got, "first")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the target file", len(entries))
	}
}
