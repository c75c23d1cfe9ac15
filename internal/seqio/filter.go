package seqio

import (
	"fmt"
	"math/rand"

	"omegago/internal/bitvec"
)

// InjectMissing returns a copy of the alignment with each genotype
// independently masked missing with probability rate (deterministic
// under seed). All SNPs and coordinates are preserved — only validity
// masks change — so the result is a controlled missing-data treatment
// of the same dataset, the scenario engine's missing-rate axis. The
// returned count is the number of genotypes masked.
func InjectMissing(a *Alignment, rate float64, seed int64) (*Alignment, int, error) {
	if err := a.Validate(); err != nil {
		return nil, 0, err
	}
	if rate < 0 || rate >= 1 {
		return nil, 0, fmt.Errorf("seqio: missing rate %g outside [0,1)", rate)
	}
	if rate == 0 {
		return a, 0, nil
	}
	rng := rand.New(rand.NewSource(seed))
	n := a.Samples()
	out := bitvec.NewMatrix(n)
	masked := 0
	for i := 0; i < a.NumSNPs(); i++ {
		row := a.Matrix.Row(i)
		oldMask := a.Matrix.Mask(i)
		var newMask *bitvec.Vector
		for s := 0; s < n; s++ {
			valid := oldMask == nil || oldMask.Get(s)
			if valid && rng.Float64() < rate {
				valid = false
				masked++
			}
			if !valid && newMask == nil {
				newMask = bitvec.New(n)
				for k := 0; k < s; k++ {
					newMask.Set(k, true)
				}
			}
			if newMask != nil && valid {
				newMask.Set(s, true)
			}
		}
		out.AppendRow(row, newMask)
	}
	res := &Alignment{Positions: append([]float64(nil), a.Positions...), Length: a.Length, Matrix: out}
	if a.SampleNames != nil {
		res.SampleNames = append([]string(nil), a.SampleNames...)
	}
	return res, masked, nil
}
