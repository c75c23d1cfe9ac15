package exec

import (
	"context"
	"math/rand"
	"testing"

	"omegago/internal/bitvec"
	"omegago/internal/fpga"
	"omegago/internal/gpu"
	"omegago/internal/ld"
	"omegago/internal/omega"
	"omegago/internal/seqio"
)

// fuzzAlignment builds a random small alignment: sorted positions 1–400
// bp apart and random haplotype bits, with some rows copied from
// earlier ones (r² = 1) when dups is set.
func fuzzAlignment(rng *rand.Rand, snps, samples int, dups bool) *seqio.Alignment {
	m := bitvec.NewMatrix(samples)
	pos := make([]float64, snps)
	rows := make([]*bitvec.Vector, snps)
	at := 0.0
	for i := range pos {
		at += float64(1 + rng.Intn(400))
		pos[i] = at
		if dups && i > 0 && rng.Intn(3) == 0 {
			rows[i] = rows[rng.Intn(i)]
		} else {
			rows[i] = bitvec.New(samples)
			for s := 0; s < samples; s++ {
				rows[i].Set(s, rng.Intn(2) == 1)
			}
		}
		m.AppendRow(rows[i], nil)
	}
	return &seqio.Alignment{Positions: pos, Length: at + 1, Matrix: m}
}

// FuzzBackendsMatchSerial is the differential oracle of the registered
// backends. Over random small alignments, grids and windows — bounded
// and unbounded, MinSNPsPerSide 1 (all-NaN regions) included — every
// backend must return the serial CPU scan's Results and OmegaScores
// exactly: the CPU backend under each scheduler at 1–4 threads, the
// gpu-sim backend under each kernel selection, the fpga-sim backend at
// unroll factors 1–8 and its device's own, and any other registered
// backend at its defaults.
func FuzzBackendsMatchSerial(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(16), false, false, uint8(12), uint16(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(60), uint8(24), true, false, uint8(15), uint16(40), uint8(0), uint8(1), uint8(1))
	f.Add(int64(3), uint8(50), uint8(12), false, true, uint8(9), uint16(8), uint8(1), uint8(2), uint8(2))
	f.Add(int64(4), uint8(30), uint8(10), true, true, uint8(14), uint16(3), uint8(1), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, snps, samples uint8, dups, minSide1 bool, grid uint8, maxWin uint16, maxSide, threads, variant uint8) {
		rng := rand.New(rand.NewSource(seed))
		a := fuzzAlignment(rng, 2+int(snps)%79, 2+int(samples)%70, dups)
		p := omega.Params{
			GridSize:       1 + int(grid)%24,
			MaxWindow:      float64(maxWin) * 50, // 0 = unbounded; small windows leave regions empty
			MaxSNPsPerSide: int(maxSide) % 4,
		}
		if minSide1 {
			p.MinSNPsPerSide = 1
		}
		if p.MaxSNPsPerSide != 0 && p.MaxSNPsPerSide < p.WithDefaults().MinSNPsPerSide {
			p.MaxSNPsPerSide = p.WithDefaults().MinSNPsPerSide
		}
		ctx := context.Background()
		want, stS, err := omega.ScanCtx(ctx, a, p, ld.Direct)
		if err != nil {
			t.Skip(err)
		}
		th := 1 + int(threads)%4
		variants := map[string][]Options{
			"cpu": {
				{Threads: th, Sched: SchedAuto},
				{Threads: th, Sched: SchedSnapshot},
				{Threads: th, Sched: SchedSharded},
			},
			"gpu-sim":  {{Threads: th, GPUKernel: gpu.Kind(variant % 3)}},
			"fpga-sim": {{FPGAOpts: fpga.Options{UnrollFactor: int(variant) % 9}}}, // 0 = the device's own
		}
		for _, b := range Backends() {
			vs, ok := variants[b.Name()]
			if !ok {
				vs = []Options{{}}
			}
			for vi, o := range vs {
				out, err := b.Scan(ctx, a, p, o)
				if err != nil {
					t.Fatalf("%s variant %d: %v", b.Name(), vi, err)
				}
				if len(out.Results) != len(want) {
					t.Fatalf("%s variant %d: %d results, want %d", b.Name(), vi, len(out.Results), len(want))
				}
				for i := range want {
					if out.Results[i] != want[i] {
						t.Fatalf("%s variant %d: result[%d] = %+v, want %+v", b.Name(), vi, i, out.Results[i], want[i])
					}
				}
				if out.Stats.OmegaScores != stS.OmegaScores {
					t.Fatalf("%s variant %d: OmegaScores %d, want %d", b.Name(), vi, out.Stats.OmegaScores, stS.OmegaScores)
				}
			}
		}
	})
}
