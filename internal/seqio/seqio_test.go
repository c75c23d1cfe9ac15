package seqio

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const msSample = `ms 4 2 -t 5
1234 5678 9012

//
segsites: 3
positions: 0.1000 0.5000 0.9000
010
110
001
000

//
segsites: 2
positions: 0.2500 0.7500
01
10
11
00
`

func TestParseMS(t *testing.T) {
	reps, err := ParseMS(strings.NewReader(msSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("got %d replicates, want 2", len(reps))
	}
	r := reps[0]
	if r.SegSites != 3 || len(r.Positions) != 3 || len(r.Haplotypes) != 4 {
		t.Fatalf("bad first replicate: %+v", r)
	}
	if r.Positions[1] != 0.5 {
		t.Errorf("position = %v, want 0.5", r.Positions[1])
	}
	if string(r.Haplotypes[1]) != "110" {
		t.Errorf("haplotype = %q", r.Haplotypes[1])
	}
}

func TestParseMSErrors(t *testing.T) {
	cases := map[string]string{
		"no replicates":       "ms 2 1\nseeds\n",
		"segsites mismatch":   "//\nsegsites: 2\npositions: 0.5\n01\n",
		"haplotype mismatch":  "//\nsegsites: 2\npositions: 0.1 0.2\n011\n",
		"unsorted positions":  "//\nsegsites: 2\npositions: 0.9 0.2\n01\n10\n",
		"position range":      "//\nsegsites: 1\npositions: 1.5\n1\n",
		"bad segsites":        "//\nsegsites: x\n",
		"garbage inside":      "//\nsegsites: 1\npositions: 0.5\nhello\n",
		"segsites before //":  "segsites: 1\n",
		"positions before //": "positions: 0.5\n",
	}
	for name, in := range cases {
		if _, err := ParseMS(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestToAlignment(t *testing.T) {
	reps, err := ParseMS(strings.NewReader(msSample))
	if err != nil {
		t.Fatal(err)
	}
	a, err := reps[0].ToAlignment(100000)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSNPs() != 3 || a.Samples() != 4 {
		t.Fatalf("alignment shape %dx%d, want 3x4", a.NumSNPs(), a.Samples())
	}
	if a.Positions[0] != 10000 || a.Positions[2] != 90000 {
		t.Errorf("positions scaled wrong: %v", a.Positions)
	}
	// Column 0 of replicate 1 is sample bits (0,1,0,0) for SNP 0.
	if a.Matrix.Row(0).Get(1) != true || a.Matrix.Row(0).Get(0) != false {
		t.Error("bit packing wrong")
	}
	if _, err := reps[0].ToAlignment(0); err == nil {
		t.Error("expected error for region length 0")
	}
}

func TestMSRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nsam := rng.Intn(10) + 2
		sites := rng.Intn(20) + 1
		rep := &MSReplicate{SegSites: sites}
		p := 0.0
		for s := 0; s < sites; s++ {
			p += rng.Float64() * (1 - p) / 2
			rep.Positions = append(rep.Positions, p)
		}
		for h := 0; h < nsam; h++ {
			hap := make([]byte, sites)
			for s := range hap {
				hap[s] = byte('0' + rng.Intn(2))
			}
			rep.Haplotypes = append(rep.Haplotypes, hap)
		}
		var sb strings.Builder
		if err := WriteMS(&sb, "msgo test", []*MSReplicate{rep}); err != nil {
			return false
		}
		got, err := ParseMS(strings.NewReader(sb.String()))
		if err != nil || len(got) != 1 {
			return false
		}
		g := got[0]
		if g.SegSites != sites || len(g.Haplotypes) != nsam {
			return false
		}
		for h := range g.Haplotypes {
			if string(g.Haplotypes[h]) != string(rep.Haplotypes[h]) {
				return false
			}
		}
		for s := range g.Positions {
			if d := g.Positions[s] - rep.Positions[s]; d > 1e-6 || d < -1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParseFASTA(t *testing.T) {
	in := ">seq1 first\nACGT\nACGT\n>seq2\nACGTACGT\n"
	recs, err := ParseFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Name != "seq1 first" || string(recs[0].Seq) != "ACGTACGT" {
		t.Errorf("bad record %+v", recs[0])
	}
	if _, err := ParseFASTA(strings.NewReader("ACGT\n")); err == nil {
		t.Error("expected error for data before header")
	}
	if _, err := ParseFASTA(strings.NewReader("")); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestFASTAToAlignment(t *testing.T) {
	// col0: A/A/A/A monomorphic; col1: A/C/A/C biallelic (tie → C derived);
	// col2: A/C/G/T multiallelic; col3: A/N/A/C biallelic with missing;
	// col4: N/N/N/N all missing; col5: A/A/C/C biallelic tie.
	recs := []FASTARecord{
		{Name: "s0", Seq: []byte("AAAANA")},
		{Name: "s1", Seq: []byte("ACCNNA")},
		{Name: "s2", Seq: []byte("AAGANC")},
		{Name: "s3", Seq: []byte("ACTCNC")},
	}
	a, st, err := FASTAToAlignment(recs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Monomorphic != 1 || st.Biallelic != 3 || st.Multiallelic != 1 || st.AllMissing != 1 {
		t.Fatalf("stats %+v", st)
	}
	if a.NumSNPs() != 3 {
		t.Fatalf("NumSNPs = %d, want 3", a.NumSNPs())
	}
	if a.Positions[0] != 2 || a.Positions[1] != 4 || a.Positions[2] != 6 {
		t.Errorf("positions %v", a.Positions)
	}
	// SNP at col3 (A,N,A,C): mask should invalidate sample 1.
	mask := a.Matrix.Mask(1)
	if mask == nil || mask.Get(1) || !mask.Get(0) {
		t.Error("mask for missing data wrong")
	}
	// minor allele at col3 is C → sample 3 carries derived.
	if !a.Matrix.Row(1).Get(3) || a.Matrix.Row(1).Get(0) {
		t.Error("derived-allele coding wrong")
	}
}

func TestFASTAToAlignmentErrors(t *testing.T) {
	if _, _, err := FASTAToAlignment([]FASTARecord{{Name: "x", Seq: []byte("ACGT")}}); err == nil {
		t.Error("expected error for single sequence")
	}
	recs := []FASTARecord{
		{Name: "a", Seq: []byte("ACGT")},
		{Name: "b", Seq: []byte("ACG")},
	}
	if _, _, err := FASTAToAlignment(recs); err == nil {
		t.Error("expected error for unaligned input")
	}
}

const vcfSample = `##fileformat=VCFv4.2
##contig=<ID=chr1>
#CHROM	POS	ID	REF	ALT	QUAL	FILTER	INFO	FORMAT	s1	s2
chr1	100	.	A	C	.	PASS	.	GT	0|1	1|1
chr1	200	.	G	T	.	PASS	.	GT:DP	0/0:12	./1:3
chr1	300	.	G	GT	.	PASS	.	GT	0|0	0|1
chr1	400	.	T	A	.	PASS	.	GT	1|0	0|0
`

func TestParseVCF(t *testing.T) {
	a, err := ParseVCF(strings.NewReader(vcfSample))
	if err != nil {
		t.Fatal(err)
	}
	// record at 300 is an indel and is skipped; 2 samples → 4 haplotypes.
	if a.NumSNPs() != 3 || a.Samples() != 4 {
		t.Fatalf("shape %dx%d, want 3x4", a.NumSNPs(), a.Samples())
	}
	if a.Positions[0] != 100 || a.Positions[2] != 400 {
		t.Errorf("positions %v", a.Positions)
	}
	// record 100: haplotypes 0|1 1|1 → bits 0,1,1,1
	r := a.Matrix.Row(0)
	if r.Get(0) || !r.Get(1) || !r.Get(2) || !r.Get(3) {
		t.Error("GT decoding wrong")
	}
	// record 200: ./1 → haplotype 2 missing
	m := a.Matrix.Mask(1)
	if m == nil || m.Get(2) || !m.Get(3) || !m.Get(0) {
		t.Error("missing-allele mask wrong")
	}
}

func TestParseVCFErrors(t *testing.T) {
	cases := map[string]string{
		"no header":      "chr1\t1\t.\tA\tC\t.\t.\t.\tGT\t0|1\n",
		"no samples":     "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\n",
		"no GT":          "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\nchr1\t1\t.\tA\tC\t.\t.\t.\tDP\t3\n",
		"bad allele":     "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\nchr1\t1\t.\tA\tC\t.\t.\t.\tGT\t0|2\n",
		"multi-chrom":    "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\nchr1\t1\t.\tA\tC\t.\t.\t.\tGT\t0|1\nchr2\t2\t.\tA\tC\t.\t.\t.\tGT\t0|1\n",
		"nothing usable": "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\nchr1\t1\t.\tAT\tC\t.\t.\t.\tGT\t0|1\n",
	}
	for name, in := range cases {
		if _, err := ParseVCF(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestAlignmentValidate(t *testing.T) {
	reps, _ := ParseMS(strings.NewReader(msSample))
	a, _ := reps[0].ToAlignment(1000)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Alignment{Positions: []float64{5, 3}, Length: 10, Matrix: a.Matrix}
	if err := bad.Validate(); err == nil {
		t.Error("unsorted positions should fail validation")
	}
	bad2 := &Alignment{Positions: []float64{3, 5, 20}, Length: 10, Matrix: a.Matrix}
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range position should fail validation")
	}
	bad3 := &Alignment{Positions: []float64{3}, Length: 10, Matrix: a.Matrix}
	if err := bad3.Validate(); err == nil {
		t.Error("row count mismatch should fail validation")
	}
	// sort.Float64sAreSorted orders NaN first, so only the range check
	// can reject it.
	nan := []float64{math.NaN(), 3, 5}
	bad4 := &Alignment{Positions: nan, Length: 10, Matrix: a.Matrix}
	if err := bad4.Validate(); err == nil {
		t.Error("NaN position should fail validation")
	}
	if err := validateMeta(StreamMeta{Samples: a.Samples(), NumSNPs: 3, Length: 10, Positions: nan}); err == nil {
		t.Error("NaN position should fail stream meta validation")
	}
}

func TestAlignmentSlice(t *testing.T) {
	reps, _ := ParseMS(strings.NewReader(msSample))
	a, _ := reps[0].ToAlignment(1000)
	s := a.Slice(1, 3)
	if s.NumSNPs() != 2 || s.Positions[0] != a.Positions[1] {
		t.Errorf("slice wrong: %v", s.Positions)
	}
	if s.Matrix.Row(0) != a.Matrix.Row(1) {
		t.Error("slice should share rows")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad slice bounds")
		}
	}()
	a.Slice(2, 1)
}

func TestDerivedAlleleFrequencies(t *testing.T) {
	reps, _ := ParseMS(strings.NewReader(msSample))
	a, _ := reps[0].ToAlignment(1000)
	// SNP 0 column: 0,1,0,0 → 0.25; SNP 1: 1,1,0,0 → 0.5; SNP 2: 0,0,1,0 → 0.25
	want := []float64{0.25, 0.5, 0.25}
	got := a.DerivedAlleleFrequencies()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("freq[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
