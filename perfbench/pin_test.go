package main

import (
	"testing"

	"omegago/internal/omega"
	"omegago/internal/seqio"
)

// referenceOmega counts the ω scores a full (unpruned) scan of the
// layout evaluates: the sum over grid regions of every admissible
// border combination.
func referenceOmega(t *testing.T, s shape, grid int, maxWindow float64) int64 {
	t.Helper()
	a := &seqio.Alignment{Positions: s.positions(), Length: s.LengthBP}
	p := omega.Params{GridSize: grid, MaxWindow: maxWindow}
	regions, err := omega.BuildRegionsFromPositions(a.Positions, p)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, reg := range regions {
		n += omega.CountOmegas(a, reg, p)
	}
	return n
}

// TestPinnedReferenceOmega checks the pinned reference ω counts in
// workloads.json against the layouts they were derived from.
func TestPinnedReferenceOmega(t *testing.T) {
	specs, err := loadSpecs()
	if err != nil {
		t.Fatal(err)
	}
	chrom := specs["chrom-stream"]
	if got := referenceOmega(t, chrom.Shape, chrom.Grid, chrom.MaxWindow); got != chrom.ReferenceOmega[0] {
		t.Errorf("chrom-stream reference_omega = %d, layout gives %d", chrom.ReferenceOmega[0], got)
	}
	rb := specs["replicate-batch"]
	var total int64
	for _, s := range batchShapes(rb) {
		total += referenceOmega(t, s, rb.Grid, rb.MaxWindow)
	}
	if total != rb.ReferenceOmega[0] {
		t.Errorf("replicate-batch reference_omega = %d, layouts give %d", rb.ReferenceOmega[0], total)
	}
	svc := specs["service-mix"]
	for v, mw := range svc.MaxWindows {
		if got := referenceOmega(t, svc.Shape, svc.Grid, mw); got != svc.ReferenceOmega[v] {
			t.Errorf("service-mix reference_omega[%d] = %d, layout gives %d", v, svc.ReferenceOmega[v], got)
		}
	}
}
