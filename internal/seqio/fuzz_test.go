package seqio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fuzz targets double as robustness tests: parsers must never
// panic, and anything they accept must satisfy the Alignment
// invariants. `go test` runs the seed corpus; `go test -fuzz=FuzzX`
// explores further.

func FuzzParseMS(f *testing.F) {
	f.Add(msSample)
	f.Add("//\nsegsites: 1\npositions: 0.5\n1\n0\n")
	f.Add("//\nsegsites: 0\npositions:\n")
	f.Add("garbage header\n//\nsegsites: 2\npositions: 0.1 0.2\n01\n10\n")
	f.Add("//\nsegsites: 2\npositions: 0.2 0.1\n01\n10\n")
	f.Add("//\nsegsites: 1\npositions: 1.5\n1\n")
	f.Fuzz(func(t *testing.T, in string) {
		reps, err := ParseMS(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, rep := range reps {
			if rep.SegSites != len(rep.Positions) {
				t.Fatalf("accepted replicate with %d segsites, %d positions",
					rep.SegSites, len(rep.Positions))
			}
			for _, h := range rep.Haplotypes {
				if len(h) != rep.SegSites {
					t.Fatal("accepted ragged haplotypes")
				}
			}
			prev := -1.0
			for _, p := range rep.Positions {
				if p < prev || p < 0 || p > 1 {
					t.Fatalf("accepted bad positions: %v", rep.Positions)
				}
				prev = p
			}
			if rep.SegSites > 0 && len(rep.Haplotypes) > 0 {
				if _, err := rep.ToAlignment(1000); err != nil {
					t.Fatalf("accepted replicate fails conversion: %v", err)
				}
			}
		}
	})
}

func FuzzParseVCF(f *testing.F) {
	f.Add(vcfSample)
	f.Add("#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\nchr1\t1\t.\tA\tC\t.\t.\t.\tGT\t0|1\n")
	f.Add("##meta\nno header\n")
	f.Add("#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\nchr1\tNaN\t.\tA\tC\t.\t.\t.\tGT\t0|1\n")
	f.Fuzz(func(t *testing.T, in string) {
		a, err := ParseVCF(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("accepted VCF violates invariants: %v", err)
		}
	})
}

func FuzzParseFASTA(f *testing.F) {
	f.Add(">a\nACGT\n>b\nACGT\n")
	f.Add(">only\nNNNN\n")
	f.Add("no header\n")
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := ParseFASTA(strings.NewReader(in))
		if err != nil {
			return
		}
		if len(recs) == 0 {
			t.Fatal("accepted FASTA with zero records")
		}
		a, _, err := FASTAToAlignment(recs)
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("accepted FASTA violates invariants: %v", err)
		}
	})
}

func FuzzParseReport(f *testing.F) {
	f.Add("// header\n10\t1.5\t5\t15\n20\t-\t-\t-\n")
	f.Add("10\tx\n")
	f.Fuzz(func(t *testing.T, in string) {
		rows, err := ParseReport(strings.NewReader(in))
		if err != nil {
			return
		}
		if len(rows) == 0 {
			t.Fatal("accepted empty report")
		}
	})
}

// FuzzReadBitmat holds the two bitmat readers to the format's strict
// canonical encoding (docs/FORMATS.md §1.8–1.9): no input panics
// either; an input ReadBitmat accepts re-encodes through WriteBitmat to
// the same bytes; and OpenBitmat, reading every row of the same bytes
// from a file, accepts and rejects exactly the inputs ReadBitmat does
// and serves the same alignment. With rehash set the content hash is
// recomputed over the mutated bytes first, so mutations reach the
// structural checks behind the hash instead of all failing at it.
func FuzzReadBitmat(f *testing.F) {
	rng := rand.New(rand.NewSource(85))
	for _, shape := range []struct {
		snps, samples int
		masks         bool
	}{{1, 1, false}, {3, 5, true}, {9, 64, false}, {12, 70, true}} {
		var buf bytes.Buffer
		if err := WriteBitmat(&buf, bitmatAlignment(f, rng, shape.snps, shape.samples, shape.masks)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), false)
		f.Add(buf.Bytes(), true)
	}
	// Non-canonical images the readers once accepted, rehashed: a
	// trailing word, the masks flag over an empty mask section, no
	// SNPs, and a position past the region length.
	var buf bytes.Buffer
	if err := WriteBitmat(&buf, bitmatAlignment(f, rng, 3, 5, false)); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	edit := func(extra int, fn func(b []byte)) []byte {
		b := append(append([]byte(nil), good...), make([]byte, extra)...)
		fn(b)
		return b
	}
	put := binary.LittleEndian.PutUint64
	f.Add(edit(8, func([]byte) {}), true)
	f.Add(edit(8, func(b []byte) { b[12] |= BitmatFlagMasks; put(b[56:], uint64(len(good))) }), true)
	f.Add(edit(0, func(b []byte) { put(b[16:], 0); put(b[48:], BitmatHeaderSize) })[:BitmatHeaderSize], true)
	f.Add(edit(0, func(b []byte) { put(b[32:], math.Float64bits(1)) }), true)
	f.Fuzz(func(t *testing.T, data []byte, rehash bool) {
		if rehash && len(data) >= BitmatHeaderSize {
			sum := sha256.New()
			sum.Write(data[:bitmatHashOffset])
			sum.Write(data[BitmatHeaderSize:])
			copy(data[bitmatHashOffset:BitmatHeaderSize], sum.Sum(nil))
		}
		a, err := ReadBitmat(bytes.NewReader(data))

		path := filepath.Join(t.TempDir(), "f.bitmat")
		if werr := os.WriteFile(path, data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		var chunk *Alignment
		src, serr := OpenBitmat(path)
		if serr == nil {
			defer src.Close()
			chunk, _, serr = src.ReadChunk(0, src.Meta().NumSNPs)
		}
		if (err == nil) != (serr == nil) {
			t.Fatalf("ReadBitmat err = %v, OpenBitmat err = %v", err, serr)
		}
		if err != nil {
			return
		}
		alignmentsEqual(t, chunk, a)
		var out bytes.Buffer
		if err := WriteBitmat(&out, a); err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted input re-encodes to %d different bytes (input %d)", out.Len(), len(data))
		}
	})
}
