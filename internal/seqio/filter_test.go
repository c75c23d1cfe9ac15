package seqio

import (
	"math/rand"
	"strings"
	"testing"

	"omegago/internal/bitvec"
)

func TestSampleNamesThreadThrough(t *testing.T) {
	vcf := "##fileformat=VCFv4.2\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\talice\tbob\n" +
		"chr1\t10\t.\tA\tG\t.\tPASS\t.\tGT\t0|1\t1|0\n" +
		"chr1\t20\t.\tC\tT\t.\tPASS\t.\tGT\t1|1\t0|0\n"
	a, err := ParseVCF(strings.NewReader(vcf))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alice.1", "alice.2", "bob.1", "bob.2"}
	if len(a.SampleNames) != 4 {
		t.Fatalf("names %v", a.SampleNames)
	}
	for i, w := range want {
		if a.SampleNames[i] != w {
			t.Fatalf("name %d = %q, want %q", i, a.SampleNames[i], w)
		}
	}
	// Writers carry names.
	var vout strings.Builder
	if err := WriteVCF(&vout, "chr1", a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vout.String(), "alice.1\talice.2\tbob.1\tbob.2") {
		t.Error("WriteVCF lost names")
	}
	var fout strings.Builder
	if err := WriteFASTA(&fout, a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fout.String(), ">bob.2") {
		t.Error("WriteFASTA lost names")
	}
	// FASTA round trip keeps them.
	recs, err := ParseFASTA(strings.NewReader(fout.String()))
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := FASTAToAlignment(recs)
	if err != nil {
		t.Fatal(err)
	}
	if back.SampleNames[0] != "alice.1" {
		t.Errorf("FASTA round trip names: %v", back.SampleNames)
	}
	// Validation catches bad name counts.
	bad := *a
	bad.SampleNames = []string{"x"}
	if err := bad.Validate(); err == nil {
		t.Error("wrong name count should fail validation")
	}
}

func TestInjectMissing(t *testing.T) {
	// A wide alignment so a 20% rate reliably masks something.
	m := bitvec.NewMatrix(30)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		col := make([]bool, 30)
		col[rng.Intn(30)] = true
		col[rng.Intn(30)] = true
		m.AppendRow(bitvec.FromBools(col), nil)
	}
	pos := make([]float64, 40)
	for i := range pos {
		pos[i] = float64(i+1) * 10
	}
	a := &Alignment{Positions: pos, Length: 500, Matrix: m}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}

	out, masked, err := InjectMissing(a, 0.2, 99)
	if err != nil {
		t.Fatal(err)
	}
	if masked == 0 || !out.Matrix.HasMissing() {
		t.Fatal("a 20% rate over 1200 genotypes should mask some")
	}
	if out.NumSNPs() != a.NumSNPs() || out.Samples() != a.Samples() {
		t.Error("injection must preserve alignment shape")
	}
	for i := range pos {
		if out.Positions[i] != a.Positions[i] {
			t.Fatal("injection must preserve positions")
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// Alleles unchanged where still valid; masked count matches masks.
	recount := 0
	for i := 0; i < out.NumSNPs(); i++ {
		mask := out.Matrix.Mask(i)
		for s := 0; s < out.Samples(); s++ {
			if mask != nil && !mask.Get(s) {
				recount++
				continue
			}
			if out.Matrix.Row(i).Get(s) != a.Matrix.Row(i).Get(s) {
				t.Fatal("injection changed an observed allele")
			}
		}
	}
	if recount != masked {
		t.Errorf("masks hide %d genotypes, reported %d", recount, masked)
	}

	// Deterministic under seed; different under a different seed.
	again, masked2, err := InjectMissing(a, 0.2, 99)
	if err != nil {
		t.Fatal(err)
	}
	if masked2 != masked {
		t.Fatal("same seed should mask the same genotypes")
	}
	for i := 0; i < out.NumSNPs(); i++ {
		m1, m2 := out.Matrix.Mask(i), again.Matrix.Mask(i)
		for s := 0; s < out.Samples(); s++ {
			v1 := m1 == nil || m1.Get(s)
			v2 := m2 == nil || m2.Get(s)
			if v1 != v2 {
				t.Fatal("same seed should produce identical masks")
			}
		}
	}

	// Rate 0 is the identity (same alignment, nothing masked).
	same, n0, err := InjectMissing(a, 0, 1)
	if err != nil || n0 != 0 || same != a {
		t.Errorf("rate 0 should return the input unchanged (%v, %d)", err, n0)
	}
	if _, _, err := InjectMissing(a, 1.5, 1); err == nil {
		t.Error("out-of-range rate should error")
	}
	if _, _, err := InjectMissing(a, -0.1, 1); err == nil {
		t.Error("negative rate should error")
	}
}
