package stats

import (
	"errors"
	"math"
)

// ErrInvalidParam reports a distribution constructed with parameters outside
// its domain.
var ErrInvalidParam = errors.New("stats: invalid distribution parameter")

// LogChoose returns ln C(n, k), the natural log of the binomial coefficient.
// It returns -Inf when k < 0 or k > n, matching C(n,k) = 0.
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk1, _ := math.Lgamma(float64(k + 1))
	lnk1, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk1 - lnk1
}

// LogChooseRow returns ln C(n, k) for k = 0..n. Entry k is bit-equal to
// LogChoose(n, k): the same difference of the same three Lgamma values,
// each of which is computed once for the row instead of once per entry.
func LogChooseRow(n int) []float64 {
	lg := make([]float64, n+1) // lg[j] = ln j!
	for j := range lg {
		lg[j], _ = math.Lgamma(float64(j + 1))
	}
	row := make([]float64, n+1)
	for k := 1; k < n; k++ {
		row[k] = lg[n] - lg[k] - lg[n-k]
	}
	return row
}

// ChooseRatio returns C(a, m) / C(b, m) computed in log space, which stays
// finite for the large piece counts (B in the hundreds) used by the model.
// It returns 0 when C(a, m) = 0 and panics if C(b, m) = 0 with C(a, m) != 0.
func ChooseRatio(a, b, m int) float64 {
	la := LogChoose(a, m)
	lb := LogChoose(b, m)
	if math.IsInf(la, -1) {
		return 0
	}
	if math.IsInf(lb, -1) {
		panic("stats: ChooseRatio division by zero binomial coefficient")
	}
	return math.Exp(la - lb)
}

// Binomial is the distribution of successes in N independent trials each
// succeeding with probability P.
type Binomial struct {
	N int
	P float64
}

// LogPMF returns ln Pr(X = k).
func (b Binomial) LogPMF(k int) float64 {
	if k < 0 || k > b.N {
		return math.Inf(-1)
	}
	switch b.P {
	case 0:
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	case 1:
		if k == b.N {
			return 0
		}
		return math.Inf(-1)
	}
	return LogChoose(b.N, k) +
		float64(k)*math.Log(b.P) +
		float64(b.N-k)*math.Log1p(-b.P)
}

// PMF returns Pr(X = k).
func (b Binomial) PMF(k int) float64 { return math.Exp(b.LogPMF(k)) }

// PMFTable returns the full probability vector Pr(X = 0..N).
func (b Binomial) PMFTable() []float64 {
	return b.PMFTableFrom(LogChooseRow(b.N))
}

// PMFTableFrom is PMFTable given logChoose = LogChooseRow(b.N), for a
// caller tabulating many P at one N. Entry k is the expression PMF(k)
// evaluates, with the two logarithms taken once, so it is bit-equal to
// PMF(k).
func (b Binomial) PMFTableFrom(logChoose []float64) []float64 {
	out := make([]float64, b.N+1)
	switch b.P {
	case 0:
		out[0] = 1
		return out
	case 1:
		out[b.N] = 1
		return out
	}
	logP, log1mP := math.Log(b.P), math.Log1p(-b.P)
	for k := range out {
		out[k] = math.Exp(logChoose[k] +
			float64(k)*logP +
			float64(b.N-k)*log1mP)
	}
	return out
}

// Poisson is the distribution of event counts at rate Lambda.
type Poisson struct {
	Lambda float64
}

// NewPoisson validates the rate and returns the distribution.
func NewPoisson(lambda float64) (Poisson, error) {
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return Poisson{}, ErrInvalidParam
	}
	return Poisson{Lambda: lambda}, nil
}

// Mean returns λ.
func (p Poisson) Mean() float64 { return p.Lambda }

// Variance returns λ.
func (p Poisson) Variance() float64 { return p.Lambda }

// LogPMF returns ln Pr(X = k).
func (p Poisson) LogPMF(k int) float64 {
	if k < 0 {
		return math.Inf(-1)
	}
	if p.Lambda == 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	lk1, _ := math.Lgamma(float64(k + 1))
	return float64(k)*math.Log(p.Lambda) - p.Lambda - lk1
}

// PMF returns Pr(X = k).
func (p Poisson) PMF(k int) float64 { return math.Exp(p.LogPMF(k)) }

// Sample draws one variate. Small rates use sequential inversion; large
// rates are split recursively so the per-draw work stays bounded without
// losing exactness.
func (p Poisson) Sample(r *RNG) int {
	const splitThreshold = 30
	lambda := p.Lambda
	n := 0
	for lambda > splitThreshold {
		// Poisson(λ) = Poisson(λ/2) + Poisson(λ/2) independently.
		half := lambda / 2
		n += (Poisson{Lambda: half}).sampleSmall(r)
		lambda -= half
	}
	return n + (Poisson{Lambda: lambda}).sampleSmall(r)
}

func (p Poisson) sampleSmall(r *RNG) int {
	if p.Lambda <= 0 {
		return 0
	}
	// Knuth multiplication method: count exponential inter-arrivals.
	limit := math.Exp(-p.Lambda)
	k := 0
	prod := r.Float64()
	for prod > limit {
		k++
		prod *= r.Float64()
	}
	return k
}

// Exponential is the continuous distribution with the given Rate.
type Exponential struct {
	Rate float64
}

// Sample draws one variate by inversion.
func (e Exponential) Sample(r *RNG) float64 {
	// 1-U avoids ln(0); U in [0,1) so 1-U in (0,1].
	return -math.Log(1-r.Float64()) / e.Rate
}

// Geometric is the distribution of the number of Bernoulli(P) failures
// before the first success (support 0, 1, 2, ...).
type Geometric struct {
	P float64
}

// NewGeometric validates the success probability and returns the distribution.
func NewGeometric(p float64) (Geometric, error) {
	if p <= 0 || p > 1 || math.IsNaN(p) {
		return Geometric{}, ErrInvalidParam
	}
	return Geometric{P: p}, nil
}

// Mean returns (1−P)/P.
func (g Geometric) Mean() float64 { return (1 - g.P) / g.P }

// PMF returns Pr(X = k) = (1−P)^k · P.
func (g Geometric) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	return math.Exp(float64(k)*math.Log1p(-g.P)) * g.P
}

// Sample draws one variate by inversion.
func (g Geometric) Sample(r *RNG) int {
	if g.P >= 1 {
		return 0
	}
	u := 1 - r.Float64() // in (0, 1]
	return int(math.Floor(math.Log(u) / math.Log1p(-g.P)))
}
