package core

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
)

// samplePMF is the linear inversion scan Model.Step drew with before its
// tables became running sums: re-add pmf from index 0 until the sum
// passes u, else return the last index. It stays as the reference
// FuzzCDFIndex holds cdf.index to.
func samplePMF(pmf []float64, u float64) int {
	acc := 0.0
	for v, p := range pmf {
		acc += p
		if u < acc {
			return v
		}
	}
	return len(pmf) - 1
}

// FuzzCDFIndex: for any non-negative PMF of 1–64 entries — zeros,
// trailing zeros, a sum that rounds below or above 1 — and any 53-bit u
// (the values RNG.Float64 returns), the binary search on the running sum
// draws exactly what the linear scan draws on the PMF. testdata/fuzz
// pins u = 0, u equal to an interior running sum, and u at or past the
// final sum with a zero last entry (the rounding fallback).
func FuzzCDFIndex(f *testing.F) {
	row := stats.Binomial{N: 40, P: 0.3}.PMFTable() // an iDist row of DefaultParams(40)
	raw := make([]byte, 0, 8*len(row))
	for _, p := range row {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(p))
	}
	f.Add(raw, uint64(1)<<52)
	f.Fuzz(func(t *testing.T, raw []byte, bits uint64) {
		pmf := make([]float64, min(len(raw)/8, 64))
		if len(pmf) == 0 {
			return
		}
		for v := range pmf {
			if pmf[v] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*v:])); !(pmf[v] >= 0) {
				return // negative or NaN: not a PMF
			}
		}
		u := float64(bits<<11>>11) / (1 << 53)
		if got, want := runningSum(slices.Clone(pmf)).index(u), samplePMF(pmf, u); got != want {
			t.Fatalf("index(%v) on the running sum of %v = %d, linear scan draws %d", u, pmf, got, want)
		}
	})
}

var (
	sinkModel    *Model
	sinkEnsemble EnsembleStats
)

// BenchmarkNewModel is model_ensemble's setup: every transition table of
// DefaultParams(40) tabulated and turned into its running sum.
func BenchmarkNewModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := NewModel(DefaultParams(40))
		if err != nil {
			b.Fatal(err)
		}
		sinkModel = m
	}
}

// BenchmarkEnsemble is one model_ensemble operation: a 512-run ensemble
// of DefaultParams(40) over the default job count.
func BenchmarkEnsemble(b *testing.B) {
	m, err := NewModel(DefaultParams(40))
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sinkEnsemble, err = m.Ensemble(r, 512); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*512/b.Elapsed().Seconds(), "traj/s")
}
