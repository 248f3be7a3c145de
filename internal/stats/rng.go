// Package stats provides the probabilistic substrate shared by the model,
// the simulator, and the experiment harnesses: deterministic random-number
// streams, discrete and continuous distributions with exact log-space PMFs,
// descriptive statistics, and time-series utilities.
//
// All randomness flows through explicitly seeded RNG values so that every
// experiment in this repository is reproducible bit-for-bit.
//
// # Seeding discipline
//
// Every top-level experiment owns one root stream, seeded explicitly with
// NewRNG(s1, s2). Work fanned out from that root derives child streams in
// one of two ways:
//
//   - RNG.At(i) jumps directly to the i-th indexed substream. The child is
//     a pure function of the root's seed pair and the index — it does not
//     depend on how many values the root has produced, on any previous At
//     or Split call, or on which goroutine asks. Parallel engines
//     (internal/par) use At so that job i draws the same stream whether
//     the pool runs 1 worker or 64, in any completion order.
//   - RNG.Split() derives the next sequential child, advancing an internal
//     counter. It suits single-threaded loops that peel off one stream per
//     iteration.
//
// The two are aligned: At(i) on a stream equals the (i+1)-th Split child
// of a fresh stream with the same seeds. Because of that shared index
// space, a stream that hands out substreams should use either At or Split,
// not both; mixing them reuses children. Indexed derivation is stable
// across releases — it is part of the reproducibility contract relied on
// by the fixed-seed experiment goldens.
package stats

import (
	"math/bits"
	"math/rand/v2"
)

// RNG is a deterministic random-number stream. Streams are cheap to create
// and may be split into independent child streams, which lets concurrent
// simulation entities draw random numbers without sharing state.
//
// The generator is math/rand/v2's PCG, held concretely; the bounded
// integer, shuffle and float reductions on top of it are this package's
// own code (the algorithms of go1.24's rand.Rand on 64-bit platforms), so
// the draw stream behind every golden is pinned here — by
// TestRNGDrawsMatchMathRandV2 — and not by a standard-library version.
type RNG struct {
	pcg rand.PCG
	// seeds retained so the stream can be split deterministically.
	s1, s2  uint64
	nsplits uint64
}

// NewRNG returns a stream seeded with the pair (s1, s2). Equal seed pairs
// yield identical streams.
func NewRNG(s1, s2 uint64) *RNG {
	r := &RNG{s1: s1, s2: s2}
	r.pcg.Seed(s1, s2)
	return r
}

// Split derives a child stream that is statistically independent of the
// parent and of all previously split children. The parent remains usable.
func (r *RNG) Split() *RNG {
	r.nsplits++
	return r.At(int(r.nsplits - 1))
}

// At returns the i-th indexed substream of r. The result depends only on
// r's seed pair and i — not on r's current position, prior At or Split
// calls, or calling goroutine — so concurrent workers can derive their
// streams in any order and still reproduce a serial run exactly. At(i)
// equals the (i+1)-th Split child of a fresh stream with the same seeds;
// see the package comment for the seeding discipline. It panics if i is
// negative.
//
// At stays within the compiler's inlining budget, so the child is
// allocated in the caller: a loop that draws run i from r.At(i) and
// lets the stream go keeps it on its own stack.
func (r *RNG) At(i int) *RNG {
	if i < 0 {
		panic("stats: RNG.At requires i >= 0")
	}
	c := new(RNG)
	c.seedChild(r, uint64(i)+1)
	return c
}

// seedChild seeds c as the k-th derived stream (k >= 1) of parent's seed
// pair: a SplitMix64-style jump that multiplies the index by the 64-bit
// golden ratio and finalizes with mix64, so nearby indices land on
// distant, decorrelated seeds. c must be fresh.
func (c *RNG) seedChild(parent *RNG, k uint64) {
	g := k * 0x9e3779b97f4a7c15
	c.s1, c.s2 = mix64(parent.s1^g), mix64(parent.s2+g)
	c.pcg.Seed(c.s1, c.s2)
}

// mix64 is the SplitMix64 finalizer, a strong 64-bit mixing function.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1): one of the 1<<53 evenly
// spaced float64s there.
func (r *RNG) Float64() float64 { return float64(r.pcg.Uint64()<<11>>11) / (1 << 53) }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("stats: invalid argument to IntN")
	}
	return int(r.uint64n(uint64(n)))
}

// uint64n reduces one 64-bit draw to [0, n) exactly uniformly: a mask
// when n is a power of two, else the high word of draw*n (Lemire), with
// a redraw for the fewer than n of 2^64 products that would bias it.
func (r *RNG) uint64n(n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.pcg.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.pcg.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.pcg.Uint64(), n)
		}
	}
	return hi
}

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return r.pcg.Uint64() }

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// (Fisher–Yates from the top). It panics if n < 0.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("stats: invalid argument to Shuffle")
	}
	for i := n - 1; i > 0; i-- {
		swap(i, int(r.uint64n(uint64(i+1))))
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
