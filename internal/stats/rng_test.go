package stats

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// TestRNGDrawsMatchMathRandV2 pins the draw path RNG implements itself
// against rand.New(rand.NewPCG(s1, s2)): the same seed pair must yield
// the same values through any interleaving of IntN, Shuffle, Float64,
// Bernoulli and Uint64, for bounds on both sides of every branch of the
// bounded-integer reduction.
func TestRNGDrawsMatchMathRandV2(t *testing.T) {
	if bits.UintSize != 64 {
		t.Skip("RNG pins the 64-bit reduction; 32-bit math/rand/v2 takes a different one for small n")
	}
	bounds := []int{1, 2, 3, math.MaxInt}
	for k := 2; k <= 62; k++ {
		bounds = append(bounds, 1<<k-1, 1<<k, 1<<k+1)
	}
	for n := 2; n <= 100000; n += 1 + n/7 { // the simulator's real range
		bounds = append(bounds, n, 100002-n)
	}
	const seedPairs, drawsPerPair = 64, 16000
	for sp := uint64(0); sp < seedPairs; sp++ {
		s1, s2 := mix64(sp), sp*sp
		got, want := NewRNG(s1, s2), rand.New(rand.NewPCG(s1, s2))
		pick := rand.New(rand.NewPCG(sp, 99)) // which draw comes next
		a, b := make([]int, 37), make([]int, 37)
		for i := 0; i < drawsPerPair; i++ {
			n := bounds[pick.IntN(len(bounds))]
			switch op := pick.IntN(5); op {
			case 0:
				if g, w := got.IntN(n), want.IntN(n); g != w {
					t.Fatalf("seeds (%#x,%#x) draw %d: IntN(%d) = %d, math/rand/v2 %d", s1, s2, i, n, g, w)
				}
			case 1:
				m := pick.IntN(len(a) + 1)
				for j := range a {
					a[j], b[j] = j, j
				}
				got.Shuffle(m, func(i, j int) { a[i], a[j] = a[j], a[i] })
				want.Shuffle(m, func(i, j int) { b[i], b[j] = b[j], b[i] })
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("seeds (%#x,%#x) draw %d: Shuffle(%d) = %v, math/rand/v2 %v", s1, s2, i, m, a, b)
					}
				}
			case 2:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seeds (%#x,%#x) draw %d: Float64 = %v, math/rand/v2 %v", s1, s2, i, g, w)
				}
			case 3:
				p := pick.Float64()*1.2 - 0.1 // both clamps draw nothing
				if g, w := got.Bernoulli(p), p > 0 && (p >= 1 || want.Float64() < p); g != w {
					t.Fatalf("seeds (%#x,%#x) draw %d: Bernoulli(%v) = %v, want %v", s1, s2, i, p, g, w)
				}
			case 4:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seeds (%#x,%#x) draw %d: Uint64 = %#x, math/rand/v2 %#x", s1, s2, i, g, w)
				}
			}
		}
	}
	for _, n := range []int{0, -1, math.MinInt} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("IntN(%d) did not panic", n)
				}
			}()
			NewRNG(1, 2).IntN(n)
		}()
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, 43)
	b := NewRNG(42, 43)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds must produce equal streams")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(1, 1)
	c1 := parent.Split()
	c2 := parent.Split()
	// Children of the same parent must differ from each other and from a
	// replayed parent.
	replay := NewRNG(1, 1)
	same1, same2, same12 := 0, 0, 0
	for i := 0; i < 64; i++ {
		v1, v2, vp := c1.Uint64(), c2.Uint64(), replay.Uint64()
		if v1 == vp {
			same1++
		}
		if v2 == vp {
			same2++
		}
		if v1 == v2 {
			same12++
		}
	}
	if same1 > 0 || same2 > 0 || same12 > 0 {
		t.Errorf("split streams collide: %d %d %d", same1, same2, same12)
	}
}

func TestRNGAtSplitAlignment(t *testing.T) {
	// At(i) must equal the (i+1)-th Split child of a fresh stream with the
	// same seeds: the indexed jump reproduces the sequential derivation, so
	// a parallel fan-out over At replays a serial Split loop exactly.
	splitter := NewRNG(42, 99)
	for i := 0; i < 20; i++ {
		want := splitter.Split()
		got := NewRNG(42, 99).At(i)
		for j := 0; j < 50; j++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("At(%d) diverges from split child %d at draw %d: %x != %x", i, i+1, j, g, w)
			}
		}
	}
}

func TestRNGAtPositionIndependence(t *testing.T) {
	// At must depend only on the seed identity, not on how much the parent
	// stream has been consumed or split.
	fresh := NewRNG(7, 8)
	used := NewRNG(7, 8)
	for i := 0; i < 1000; i++ {
		used.Uint64()
	}
	a, b := fresh.At(5), used.At(5)
	for j := 0; j < 50; j++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("At must not depend on the parent's position")
		}
	}
}

func TestRNGAtStability(t *testing.T) {
	// The indexed derivation is part of the reproducibility contract: these
	// first-draw values must never change across releases, or every
	// fixed-seed parallel experiment golden silently shifts.
	r := NewRNG(1, 2)
	golden := map[int]uint64{
		0: r.At(0).Uint64(),
		1: r.At(1).Uint64(),
		7: r.At(7).Uint64(),
	}
	for i, want := range golden {
		if got := NewRNG(1, 2).At(i).Uint64(); got != want {
			t.Errorf("At(%d) first draw %x, want %x", i, got, want)
		}
	}
	// Lock the derivation itself (seed mixing), independent of this run.
	if got := NewRNG(0, 0).At(0).s1; got != mix64(0^0x9e3779b97f4a7c15) {
		t.Errorf("At(0) seed derivation changed: s1 = %x", got)
	}
}

func TestRNGAtIndependence(t *testing.T) {
	// Statistical independence across indexed substreams: pairwise distinct
	// outputs, and the pooled first draws spread uniformly over [0, 1).
	const streams = 256
	base := NewRNG(1234, 5678)
	firsts := make([]float64, streams)
	seen := make(map[uint64]bool, streams*8)
	for i := 0; i < streams; i++ {
		r := base.At(i)
		firsts[i] = r.Float64()
		for j := 0; j < 8; j++ {
			v := r.Uint64()
			if seen[v] {
				t.Fatalf("collision across substreams at index %d", i)
			}
			seen[v] = true
		}
	}
	// Chi-squared uniformity over 16 bins: 99.9th percentile of chi2(15)
	// is ~37.7; far beyond that means the jump correlates nearby indices.
	bins := make([]int, 16)
	for _, f := range firsts {
		bins[int(f*16)]++
	}
	expected := float64(streams) / 16
	chi2 := 0.0
	for _, c := range bins {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 37.7 {
		t.Errorf("first draws of indexed substreams non-uniform: chi2 = %g", chi2)
	}
	// Serial correlation between adjacent indices' first draws.
	mean := 0.0
	for _, f := range firsts {
		mean += f
	}
	mean /= streams
	num, den := 0.0, 0.0
	for i := 0; i < streams-1; i++ {
		num += (firsts[i] - mean) * (firsts[i+1] - mean)
	}
	for _, f := range firsts {
		den += (f - mean) * (f - mean)
	}
	if r1 := num / den; r1 < -0.25 || r1 > 0.25 {
		t.Errorf("adjacent indexed substreams correlate: r1 = %g", r1)
	}
}

func TestRNGAtNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At(-1) must panic")
		}
	}()
	NewRNG(1, 1).At(-1)
}

func TestRNGSplitDeterminism(t *testing.T) {
	a := NewRNG(5, 6).Split()
	b := NewRNG(5, 6).Split()
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("splitting must be deterministic")
		}
	}
}

func TestBernoulliBounds(t *testing.T) {
	r := NewRNG(2, 3)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) must be false")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) must be true")
		}
	}
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("Bernoulli(0.3) hit fraction %g", frac)
	}
}
