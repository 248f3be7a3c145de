package core

import (
	"repro/internal/stats"
)

// Outcome is one sparse entry of a single-variable transition distribution.
type Outcome struct {
	Value int
	P     float64
}

// F returns the deterministic next piece count b' of a B-piece download
// given the current state (Section 3.1):
//
//	b = 0           -> b' = 1              (first piece via seed/optimistic unchoke)
//	b >= 1          -> b' = min(b+n, B)    (each active connection delivers one piece)
func F(B, n, b int) int {
	if b == 0 {
		return 1
	}
	next := b + n
	if next > B {
		next = B
	}
	return next
}

// G returns the distribution of the next potential-set size i', Equation (2):
//
//	b = B                   -> i' = 0                       (departure)
//	b+n = 0                 -> i' ~ Binomial(s, p_init)     (joining)
//	b+n = 1, i = 0          -> i' = 1 w.p. α, else 0        (bootstrap wait)
//	b+n > 1, i = 0          -> i' = 1 w.p. γ, else 0        (last-phase wait)
//	b+n >= 1, i > 0         -> i' ~ Binomial(s, p_(b+n))    (efficient phase)
//
// The b = B clause takes precedence: a complete peer leaves the swarm.
func G(p Params, n, b, i int) []Outcome {
	x := b + n
	switch {
	case b == p.B:
		return []Outcome{{Value: 0, P: 1}}
	case x == 0:
		return binomialOutcomes(p.S, p.PInit)
	case i == 0 && x == 1:
		return waitOutcomes(p.Alpha)
	case i == 0: // x > 1
		return waitOutcomes(p.Gamma)
	default: // x >= 1, i > 0
		return binomialOutcomes(p.S, TradingPower(p.Phi, x))
	}
}

// H returns the distribution of the next connection count n' given the
// updated potential-set size i', Equation (3):
//
//	b+n = 0  -> n' = 0
//	b = B    -> n' = 0
//	else     -> n' = Y1 + Y2, Y1 ~ Binomial(n, p_r),
//	            Y2 ~ Binomial(max(min(i',k)−n, 0), p_n)
//
// Y1 counts surviving re-encounters; Y2 counts newly established
// connections into the slots the grown potential set allows.
func H(p Params, n, b, iNext int) []Outcome {
	if b+n == 0 || b == p.B {
		return []Outcome{{Value: 0, P: 1}}
	}
	cap := iNext
	if cap > p.K {
		cap = p.K
	}
	newTrials := cap - n
	if newTrials < 0 {
		newTrials = 0
	}
	y1 := stats.Binomial{N: n, P: p.PR}.PMFTable()
	y2 := stats.Binomial{N: newTrials, P: p.PN}.PMFTable()
	return outcomes(convolvePMF(y1, y2))
}

// binomialOutcomes tabulates a Binomial(n, q) distribution as outcomes.
func binomialOutcomes(n int, q float64) []Outcome {
	return outcomes(stats.Binomial{N: n, P: q}.PMFTable())
}

// outcomes lists a dense PMF table's non-zero entries.
func outcomes(pmf []float64) []Outcome {
	out := make([]Outcome, 0, len(pmf))
	for v, prob := range pmf {
		if prob > 0 {
			out = append(out, Outcome{Value: v, P: prob})
		}
	}
	return out
}

// waitOutcomes models the geometric wait for a tradable peer: stay at 0
// with probability 1−q, escape to 1 with probability q.
func waitOutcomes(q float64) []Outcome {
	return outcomes([]float64{1 - q, q})
}
