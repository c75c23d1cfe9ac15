package main

import (
	"math"
	"math/rand/v2"
	"sort"

	"omegago"
	"omegago/internal/bitvec"
)

// shape describes one generated dataset: its dimensions plus the seed
// of its SNP layout. The layout (positions) is pinned per workload so
// the ω work a scan must do — which depends on positions only — is the
// same for every benchmark seed; the genotypes come from the seed.
type shape struct {
	Samples    int     `json:"samples"`
	SNPs       int     `json:"snps"`
	LengthBP   float64 `json:"length_bp"`
	LayoutSeed uint64  `json:"layout_seed"`
}

// Mosaic model parameters: every haplotype copies one of a few founder
// haplotypes and switches founder at recombination points, with a small
// per-site flip rate. This gives r² that decays with distance, like a
// coalescent sample, at a cost linear in the matrix size.
const (
	founders     = 12
	switchesPerM = 30.0 // founder switches per haplotype per Mb
	flipRate     = 0.01 // per-site allele flips per haplotype
)

// positions returns the pinned, strictly ascending SNP layout of s.
func (s shape) positions() []float64 {
	rng := rand.New(rand.NewPCG(s.LayoutSeed, 0x6c61796f7574))
	pos := make([]float64, s.SNPs)
	for i := range pos {
		pos[i] = math.Floor(rng.Float64()*s.LengthBP*1000) / 1000
	}
	sort.Float64s(pos)
	for i := 1; i < len(pos); i++ {
		if pos[i] <= pos[i-1] {
			pos[i] = math.Nextafter(pos[i-1], math.Inf(1))
		}
	}
	return pos
}

// generate builds the dataset of shape s for one seed; stream separates
// several datasets drawn from the same seed (replicates, pool entries).
func generate(s shape, seed, stream uint64) *omegago.Dataset {
	pos := s.positions()
	rng := rand.New(rand.NewPCG(seed, stream))

	// Founder alleles, one bit row per founder over all sites; the
	// derived-allele frequency per site is skewed towards rare variants.
	founder := make([]*bitvec.Vector, founders)
	for f := range founder {
		founder[f] = bitvec.New(s.SNPs)
	}
	for i := 0; i < s.SNPs; i++ {
		u := rng.Float64()
		freq := 0.05 + 0.9*u*u
		for f := range founder {
			if rng.Float64() < freq {
				founder[f].Set(i, true)
			}
		}
	}

	// Each haplotype's copying path: the founder it copies at each site.
	meanGap := 1e6 / switchesPerM
	path := make([][]uint8, s.Samples)
	for h := range path {
		p := make([]uint8, s.SNPs)
		cur := uint8(rng.IntN(founders))
		next := rng.ExpFloat64() * meanGap
		for i, x := range pos {
			for x >= next {
				cur = uint8(rng.IntN(founders))
				next += rng.ExpFloat64() * meanGap
			}
			p[i] = cur
		}
		path[h] = p
	}

	m := bitvec.NewMatrix(s.Samples)
	flipsPerSite := flipRate * float64(s.Samples)
	for i := 0; i < s.SNPs; i++ {
		row := bitvec.New(s.Samples)
		for h := 0; h < s.Samples; h++ {
			if founder[path[h][i]].Get(i) {
				row.Set(h, true)
			}
		}
		for k := poisson(rng, flipsPerSite); k > 0; k-- {
			h := rng.IntN(s.Samples)
			row.Set(h, !row.Get(h))
		}
		m.AppendRow(row, nil)
	}
	return &omegago.Dataset{Positions: pos, Length: s.LengthBP, Matrix: m}
}

// poisson draws a Poisson variate by inversion (small means only).
func poisson(rng *rand.Rand, mean float64) int {
	l, k, p := math.Exp(-mean), 0, rng.Float64()
	for p > l {
		k++
		p *= rng.Float64()
	}
	return k
}
