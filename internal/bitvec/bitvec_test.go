package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWordsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {-3, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3},
	}
	for _, c := range cases {
		if got := WordsFor(c.n); got != c.want {
			t.Errorf("WordsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSetGet(t *testing.T) {
	v := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.Set(i, true)
	}
	for _, i := range idx {
		if !v.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if v.OnesCount() != len(idx) {
		t.Errorf("OnesCount = %d, want %d", v.OnesCount(), len(idx))
	}
	for _, i := range idx {
		v.Set(i, false)
	}
	if v.OnesCount() != 0 {
		t.Errorf("OnesCount after clear = %d, want 0", v.OnesCount())
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Get")
		}
	}()
	New(10).Get(10)
}

func TestSetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Set")
		}
	}()
	New(10).Set(-1, true)
}

func TestFromBools(t *testing.T) {
	b := []bool{true, false, true, true, false}
	v := FromBools(b)
	if v.Len() != 5 {
		t.Fatalf("Len = %d, want 5", v.Len())
	}
	for i, x := range b {
		if v.Get(i) != x {
			t.Errorf("bit %d = %v, want %v", i, v.Get(i), x)
		}
	}
	if v.String() != "10110" {
		t.Errorf("String = %q, want 10110", v.String())
	}
}

func TestCloneEqual(t *testing.T) {
	v := FromBools([]bool{true, false, true})
	u := v.Clone()
	if !v.Equal(u) {
		t.Error("clone should be equal")
	}
	u.Set(1, true)
	if v.Equal(u) {
		t.Error("mutated clone should differ")
	}
	if v.Equal(New(4)) {
		t.Error("different lengths should not be equal")
	}
}

func naiveAndCount(a, b []bool) int {
	c := 0
	for i := range a {
		if a[i] && b[i] {
			c++
		}
	}
	return c
}

func TestAndCountProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		rng := rand.New(rand.NewSource(seed))
		a := make([]bool, n)
		b := make([]bool, n)
		for i := range a {
			a[i] = rng.Intn(2) == 1
			b[i] = rng.Intn(2) == 1
		}
		va, vb := FromBools(a), FromBools(b)
		return AndCount(va, vb) == naiveAndCount(a, b) &&
			va.OnesCount() == naiveAndCount(a, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAndCountMismatchedLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	AndCount(New(10), New(11))
}

func TestMaskedCountsNoMask(t *testing.T) {
	x := FromBools([]bool{true, true, false, true})
	y := FromBools([]bool{true, false, false, true})
	n, cx, cy, cxy := MaskedCounts(x, y, nil, nil)
	if n != 4 || cx != 3 || cy != 2 || cxy != 2 {
		t.Errorf("got (%d,%d,%d,%d), want (4,3,2,2)", n, cx, cy, cxy)
	}
}

func TestMaskedCountsWithMask(t *testing.T) {
	x := FromBools([]bool{true, true, false, true})
	y := FromBools([]bool{true, false, true, true})
	mx := FromBools([]bool{true, true, true, false}) // sample 3 missing at x
	my := FromBools([]bool{true, true, true, true})
	n, cx, cy, cxy := MaskedCounts(x, y, mx, my)
	if n != 3 || cx != 2 || cy != 2 || cxy != 1 {
		t.Errorf("got (%d,%d,%d,%d), want (3,2,2,1)", n, cx, cy, cxy)
	}
	// one-sided mask only
	n, _, _, _ = MaskedCounts(x, y, nil, my)
	if n != 4 {
		t.Errorf("n = %d, want 4", n)
	}
}

func TestMaskedCountsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		rng := rand.New(rand.NewSource(seed))
		x := make([]bool, n)
		y := make([]bool, n)
		mx := make([]bool, n)
		my := make([]bool, n)
		for i := range x {
			x[i] = rng.Intn(2) == 1
			y[i] = rng.Intn(2) == 1
			mx[i] = rng.Intn(10) != 0
			my[i] = rng.Intn(10) != 0
		}
		gotN, gotX, gotY, gotXY := MaskedCounts(FromBools(x), FromBools(y), FromBools(mx), FromBools(my))
		wn, wx, wy, wxy := 0, 0, 0, 0
		for i := range x {
			if mx[i] && my[i] {
				wn++
				if x[i] {
					wx++
				}
				if y[i] {
					wy++
				}
				if x[i] && y[i] {
					wxy++
				}
			}
		}
		return gotN == wn && gotX == wx && gotY == wy && gotXY == wxy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMaskedCountsTailBits(t *testing.T) {
	// n not a multiple of 64: tail bits beyond Len must not leak into n.
	for _, n := range []int{1, 63, 64, 65, 100, 127, 128, 129} {
		x, y := New(n), New(n)
		gotN, _, _, _ := MaskedCounts(x, y, New(n), nil)
		if gotN != 0 {
			t.Errorf("n=%d: all-invalid mask gave count %d, want 0", n, gotN)
		}
		m := New(n)
		for i := 0; i < n; i++ {
			m.Set(i, true)
		}
		gotN, _, _, _ = MaskedCounts(x, y, m, nil)
		if gotN != n {
			t.Errorf("n=%d: all-valid mask gave count %d, want %d", n, gotN, n)
		}
	}
}

func TestMatrix(t *testing.T) {
	m := NewMatrix(4)
	if m.Samples() != 4 || m.NumSNPs() != 0 {
		t.Fatal("empty matrix wrong shape")
	}
	r0 := FromBools([]bool{true, false, true, false})
	r1 := FromBools([]bool{true, true, false, false})
	m.AppendRow(r0, nil)
	m.AppendRow(r1, FromBools([]bool{true, true, true, false}))
	if m.NumSNPs() != 2 {
		t.Fatalf("NumSNPs = %d, want 2", m.NumSNPs())
	}
	if !m.HasMissing() {
		t.Error("HasMissing should be true")
	}
	n, ci, cj, cij := m.PairCounts(0, 1)
	if n != 3 || ci != 2 || cj != 2 || cij != 1 {
		t.Errorf("PairCounts = (%d,%d,%d,%d), want (3,2,2,1)", n, ci, cj, cij)
	}
	if m.Row(0) != r0 || m.Mask(0) != nil {
		t.Error("Row/Mask accessors wrong")
	}
}

func TestMatrixAppendRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on row length mismatch")
		}
	}()
	NewMatrix(4).AppendRow(New(5), nil)
}

func TestMatrixNoMissing(t *testing.T) {
	m := NewMatrix(2)
	m.AppendRow(New(2), nil)
	if m.HasMissing() {
		t.Error("HasMissing should be false")
	}
}

func BenchmarkAndCount1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := New(1000), New(1000)
	for i := 0; i < 1000; i++ {
		x.Set(i, rng.Intn(2) == 1)
		y.Set(i, rng.Intn(2) == 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndCount(x, y)
	}
}
