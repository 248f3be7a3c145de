package stats

import "math"

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

// Exponential is the continuous distribution with the given Rate.
type Exponential struct {
	Rate float64
}

// Sample draws one variate by inversion.
func (e Exponential) Sample(r *RNG) float64 {
	// 1-U avoids ln(0); U in [0,1) so 1-U in (0,1].
	return -math.Log(1-r.Float64()) / e.Rate
}
