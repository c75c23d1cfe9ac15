package viz

import (
	"math"
	"strings"
	"testing"
)

func TestPlotBasics(t *testing.T) {
	s1 := Series{Name: "a", X: []float64{0, 1, 2, 3}, Y: []float64{0, 1, 2, 3}}
	s2 := Series{Name: "b", X: []float64{0, 1, 2, 3}, Y: []float64{3, 2, 1, 0}}
	out := Plot("cross", []Series{s1, s2}, 24, 8)
	if !strings.Contains(out, "legend: *=a o=b") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("glyphs missing")
	}
	rows := strings.Count(out, "|") / 2
	if rows != 8 {
		t.Errorf("plot has %d rows, want 8", rows)
	}
	// Distinct series sharing an exact point must render a collision.
	shared := Plot("same", []Series{
		{Name: "a", X: []float64{0, 1}, Y: []float64{0, 1}},
		{Name: "b", X: []float64{0, 1}, Y: []float64{1, 1}},
	}, 16, 4)
	if !strings.Contains(shared, "+") {
		t.Errorf("expected a collision marker:\n%s", shared)
	}
}

func TestPlotDegenerate(t *testing.T) {
	if out := Plot("t", nil, 10, 5); !strings.Contains(out, "no data") {
		t.Error("nil series should say no data")
	}
	// Non-finite points are dropped, so an all-NaN/Inf series has none.
	nan := Series{Name: "n", X: []float64{1, 2}, Y: []float64{math.NaN(), math.Inf(1)}}
	if out := Plot("t", []Series{nan}, 16, 4); !strings.Contains(out, "no data") {
		t.Errorf("non-finite series should say no data:\n%s", out)
	}
	// Constant series must not divide by zero.
	s := Series{Name: "c", X: []float64{1, 2}, Y: []float64{5, 5}}
	out := Plot("t", []Series{s}, 16, 4)
	if !strings.Contains(out, "*") {
		t.Errorf("constant series should still plot:\n%s", out)
	}
}
