package core

import (
	"repro/internal/stats"
)

// Model is a Params set with every transition distribution precomputed:
// the Equation (1) trading-power curve, the potential-set binomial tables
// per piece count, and the Y1+Y2 connection-count convolutions per
// (current connections, allowed new slots) pair. Each distribution is
// held as its running sum, so a draw is one binary search. A Model is
// immutable after construction and safe for concurrent use.
type Model struct {
	p Params

	// power[x] = p_(x) for x = 0..B.
	power []float64
	// iDist[x] = Binomial(S, p_(x)), used when i > 0 and b+n = x.
	iDist []cdf
	// iInit = Binomial(S, PInit), used on joining.
	iInit cdf
	// nDist[n][m] = Bin(n, PR) + Bin(m, PN), n = 0..K, m = 0..K.
	nDist [][]cdf
	// free = Binomial(Seeds.Conns, Seeds.PServe), the pieces seeds
	// deliver per step; nil when the seeds deliver nothing.
	free cdf
}

// NewModel validates p and precomputes the transition tables.
func NewModel(p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Model{p: p}
	m.power = TradingPowerCurve(p.Phi)
	// The B+2 potential-set tables share N = S, so they share one
	// log-choose row; the K+1 distinct factors of each connection-count
	// convolution are tabulated once, not once per (n, slots) pair.
	logChooseS := stats.LogChooseRow(p.S)
	m.iDist = make([]cdf, p.B+1)
	for x := 0; x <= p.B; x++ {
		m.iDist[x] = runningSum(stats.Binomial{N: p.S, P: m.power[x]}.PMFTableFrom(logChooseS))
	}
	m.iInit = runningSum(stats.Binomial{N: p.S, P: p.PInit}.PMFTableFrom(logChooseS))
	y1 := make([][]float64, p.K+1)
	y2 := make([][]float64, p.K+1)
	for n := 0; n <= p.K; n++ {
		y1[n] = stats.Binomial{N: n, P: p.PR}.PMFTable()
		y2[n] = stats.Binomial{N: n, P: p.PN}.PMFTable()
	}
	m.nDist = make([][]cdf, p.K+1)
	for n := 0; n <= p.K; n++ {
		m.nDist[n] = make([]cdf, p.K+1)
		for slots := 0; slots <= p.K; slots++ {
			m.nDist[n][slots] = runningSum(convolvePMF(y1[n], y2[slots]))
		}
	}
	if sp := p.Seeds; sp.Conns > 0 && sp.PServe > 0 {
		m.free = runningSum(stats.Binomial{N: sp.Conns, P: sp.PServe}.PMFTable())
	}
	return m, nil
}

// Bytes returns the memory m's tables hold: every float and every
// slice header of the running sums and the trading-power curve. A cache
// of models charges each one this much against its budget.
func (m *Model) Bytes() int {
	const header = 24 // a slice header on a 64-bit machine
	floats, slices := len(m.power)+len(m.iInit)+len(m.free), 2+len(m.iDist)+len(m.nDist)
	for _, c := range m.iDist {
		floats += len(c)
	}
	for _, row := range m.nDist {
		slices += len(row)
		for _, c := range row {
			floats += len(c)
		}
	}
	return 8*floats + header*slices
}

// TradingPower returns the precomputed p_(x).
func (m *Model) TradingPower(x int) float64 {
	if x < 0 || x >= len(m.power) {
		return 0
	}
	return m.power[x]
}

// Step advances one state transition using the precomputed tables. The
// seed term is drawn last, after n', and only when seeds deliver, so a
// seedless model draws exactly the paper's chain.
func (m *Model) Step(r *stats.RNG, s State) State {
	p := &m.p
	bNext := F(p.B, s.N, s.B)

	// i' per Equation (2).
	var iNext int
	x := s.B + s.N
	switch {
	case s.B == p.B:
		iNext = 0
	case x == 0:
		iNext = m.iInit.index(r.Float64())
	case s.I == 0 && x == 1:
		if r.Bernoulli(p.Alpha) {
			iNext = 1
		}
	case s.I == 0:
		if r.Bernoulli(p.Gamma) {
			iNext = 1
		}
	default:
		iNext = m.iDist[clampIdx(x, p.B)].index(r.Float64())
	}

	// n' per Equation (3).
	var nNext int
	if x != 0 && s.B != p.B {
		capSlots := iNext
		if capSlots > p.K {
			capSlots = p.K
		}
		slots := capSlots - s.N
		if slots < 0 {
			slots = 0
		}
		nNext = m.nDist[s.N][slots].index(r.Float64())
	}
	if m.free != nil {
		bNext = min(bNext+m.free.index(r.Float64()), p.B)
	}
	return State{N: nNext, B: bNext, I: iNext}
}

// strands reports whether no run can finish from s. Without seeds, a
// peer with no connection at 1 ≤ b < B holds b for good when none can
// open: p_n = 0 draws n' = 0 whatever i' is, and an empty potential set
// whose escape probability (α at b = 1, γ above) is 0 stays empty, so
// every slot count is 0. Step then never moves b. n is tested first, so
// a run with live connections pays one comparison.
func (m *Model) strands(s State) bool {
	p := &m.p
	if s.N != 0 || m.free != nil || s.B < 1 || s.B >= p.B {
		return false
	}
	escape := p.Gamma
	if s.B == 1 {
		escape = p.Alpha
	}
	return p.PN == 0 || s.I == 0 && escape == 0
}

// iLaw writes into dst, of length S+1, the law Step draws i' from at
// (n, b, i), Equation (2): the probabilities its running sums assign, and
// for the waits those of its Bernoulli escape.
func (m *Model) iLaw(dst []float64, n, b, i int) []float64 {
	p := &m.p
	x := b + n
	clear(dst)
	switch {
	case b == p.B:
		dst[0] = 1
	case x == 0:
		m.iInit.probs(dst)
	case i == 0 && x == 1:
		dst[0], dst[1] = 1-p.Alpha, p.Alpha
	case i == 0:
		dst[0], dst[1] = 1-p.Gamma, p.Gamma
	default:
		m.iDist[clampIdx(x, p.B)].probs(dst)
	}
	return dst
}

// nLaw writes into dst, of length K+1, the law Step draws n' from at
// (n, b) given i', Equation (3).
func (m *Model) nLaw(dst []float64, n, b, iNext int) []float64 {
	clear(dst)
	if b+n == 0 || b == m.p.B {
		dst[0] = 1
		return dst
	}
	m.nDist[n][max(min(iNext, m.p.K)-n, 0)].probs(dst)
	return dst
}

func clampIdx(x, hi int) int {
	if x > hi {
		return hi
	}
	return x
}

// cdf is a distribution over 0..len-1 held as its running sum.
type cdf []float64

// runningSum turns pmf into its running sum in place. It adds left to
// right, so entry v is the float a linear inversion scan of pmf holds
// after adding entry v, and index draws exactly what that scan draws.
func runningSum(pmf []float64) cdf {
	acc := 0.0
	for v, p := range pmf {
		acc += p
		pmf[v] = acc
	}
	return pmf
}

// index inverts c at u: the first v with u < c[v], or the last index when
// no entry passes u (a sum that rounded below 1 keeps the linear scan's
// fallback). A running sum of non-negative entries never decreases, so
// this is a binary search.
func (c cdf) index(u float64) int {
	lo, hi := 0, len(c)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u < c[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// probs writes into dst the law index draws from for u uniform on [0, 1):
// P(v) = c[v] − c[v−1] with sums capped at 1, and the last entry takes
// every u past c[last−1].
func (c cdf) probs(dst []float64) {
	prev := 0.0
	for v, cv := range c[:len(c)-1] {
		cv = min(cv, 1)
		dst[v] = cv - prev
		prev = cv
	}
	dst[len(c)-1] = 1 - prev
}

// convolvePMF returns the distribution of the sum of two independent
// discrete variables given as dense PMF tables.
func convolvePMF(a, b []float64) []float64 {
	out := make([]float64, len(a)+len(b)-1)
	for i, pa := range a {
		if pa == 0 {
			continue
		}
		for j, pb := range b {
			if pb == 0 {
				continue
			}
			out[i+j] += pa * pb
		}
	}
	return out
}
