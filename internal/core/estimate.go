package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/trace"
)

// Download converts t to the trace format, one sample per step, in the
// shape of sim.PeerTrace.Download: T = step, Pieces = b, Potential = i,
// Conns = n and bytes = pieces × trace.DefaultPieceSize.
func (t Trajectory) Download(p Params) *trace.Download {
	d := &trace.Download{Meta: trace.Meta{
		Client: "core", Swarm: fmt.Sprintf("core-B%d-s%d", p.B, p.S), Pieces: p.B,
		PieceSize: trace.DefaultPieceSize, NeighborCap: p.S, ConnCap: p.K,
	}, Samples: make([]trace.Sample, 0, len(t))}
	for step, s := range t {
		d.Samples = append(d.Samples, trace.Sample{
			T: float64(step), Bytes: int64(s.B) * trace.DefaultPieceSize, Pieces: s.B, Potential: s.I, Conns: s.N,
		})
	}
	return d
}

// ErrNoTraces reports an Estimate input without a single sample pair.
var ErrNoTraces = errors.New("core: no traces to estimate from (no sample pairs)")

// ParamEstimate is one parameter read back from traces: its value, its
// standard error, and the number of sample pairs that informed it. A
// zero Count means the traces said nothing about it.
type ParamEstimate struct {
	Value, SE float64
	Count     int
}

// Level is p_(x) measured at one level x = b+n.
type Level struct {
	X int
	ParamEstimate
}

// Estimates are the chain's parameters estimated from Traces download
// traces holding Pairs sample pairs.
type Estimates struct {
	Traces, Pairs               int
	PInit, Alpha, Gamma, PR, PN ParamEstimate
	// Power is the measured Equation (1) curve: p_(x) at each level
	// x = min(b+n, B) a pair with i > 0 visited, in increasing x.
	Power []Level
	// Interval is the median positive time between samples (0 if none).
	Interval float64
	// OffStep is the share of pairs whose piece step is not F(B, n, b):
	// 0 when one pair is one chain step, as on the chain's own traces.
	OffStep float64
}

// Estimate inverts the chain. It reads each consecutive sample pair as one
// Model.Step from (n, b, i) to (n', b', i') and counts over the cases Step
// switches on: p_init from i' ~ Binomial(s, p_init) at b+n = 0; α and γ
// from whether i' > 0 at i = 0 with b+n = 1 and b+n > 1 (any n); p_(x)
// from i' ~ Binomial(s, p_(x)) at i > 0, per level x = b+n; and p_r, p_n
// by least squares on E[n'] = n·p_r + m·p_n, m = max(min(i', k) − n, 0),
// at b+n > 0. s is Meta.NeighborCap and k Meta.ConnCap: a trace without
// one informs nothing that needs it, and an i' above s counts as s. Pairs
// from b = B on are past absorption. Estimates are clamped to [0, 1].
func Estimate(traces []*trace.Download) (Estimates, error) {
	out := Estimates{Traces: len(traces)}
	var pInit, alpha, gamma binomial
	var conns []connPair
	var intervals []float64
	power, off := map[int]binomial{}, 0
	for j, d := range traces {
		if err := d.Validate(); err != nil {
			return Estimates{}, fmt.Errorf("core: trace %d: %w", j, err)
		}
		bMax, s, k := d.Meta.Pieces, d.Meta.NeighborCap, d.Meta.ConnCap
		for t := 1; t < len(d.Samples); t++ {
			cur, next := d.Samples[t-1], d.Samples[t]
			out.Pairs++
			if dt := next.T - cur.T; dt > 0 {
				intervals = append(intervals, dt)
			}
			n, b := cur.Conns, cur.Pieces
			if b >= bMax {
				continue
			}
			if next.Pieces != F(bMax, n, b) {
				off++
			}
			x := b + min(n, bMax-b)
			switch {
			case x == 0:
				pInit = pInit.plus(s, next.Potential)
			case cur.Potential == 0 && x == 1:
				alpha = alpha.plus(1, next.Potential)
			case cur.Potential == 0:
				gamma = gamma.plus(1, next.Potential)
			default:
				power[x] = power[x].plus(s, next.Potential)
			}
			if x > 0 && k > 0 {
				m := max(min(next.Potential, k)-n, 0)
				conns = append(conns, connPair{float64(n), float64(m), float64(next.Conns)})
			}
		}
	}
	if out.Pairs == 0 {
		return Estimates{}, ErrNoTraces
	}
	out.PInit, out.Alpha, out.Gamma = pInit.estimate(), alpha.estimate(), gamma.estimate()
	out.PR, out.PN = fitConns(conns)
	for x, c := range power {
		if c.trials > 0 {
			out.Power = append(out.Power, Level{x, c.estimate()})
		}
	}
	slices.SortFunc(out.Power, func(a, b Level) int { return cmp.Compare(a.X, b.X) })
	if len(intervals) > 0 {
		slices.Sort(intervals)
		out.Interval = intervals[len(intervals)/2]
	}
	out.OffStep = float64(off) / float64(out.Pairs)
	return out, nil
}

// binomial counts the Bernoulli trials of one case and their successes.
type binomial struct {
	pairs        int
	trials, hits float64
}

// plus is c with one more pair of `trials` trials that ended at
// potential-set size next: min(next, trials) successes. A pair of zero
// trials informs nothing.
func (c binomial) plus(trials, next int) binomial {
	if trials > 0 {
		c.pairs, c.trials, c.hits = c.pairs+1, c.trials+float64(trials), c.hits+float64(min(next, trials))
	}
	return c
}

func (c binomial) estimate() ParamEstimate {
	p := c.hits / c.trials
	return newEstimate(p, p*(1-p)/c.trials, c.pairs)
}

// connPair is one connection-count draw: n and m at the step, and n'.
type connPair struct{ n, m, next float64 }

// fitConns fits E[n'] = n·p_r + m·p_n by least squares, with the sandwich
// variance Σ e²·g² (e a pair's residual, g its row of (XᵀX)⁻¹Xᵀ), which
// holds however n' scatters. An all-zero column informs nothing; its b is
// 0 too, so a unit diagonal in its place leaves the other parameter be.
func fitConns(pairs []connPair) (pr, pn ParamEstimate) {
	var a, b, c, u, v float64 // XᵀX = [a b; b c], Xᵀy = (u, v)
	var cr, cn int
	for _, q := range pairs {
		a, b, c = a+q.n*q.n, b+q.n*q.m, c+q.m*q.m
		u, v = u+q.n*q.next, v+q.m*q.next
		cr, cn = cr+int(min(q.n, 1)), cn+int(min(q.m, 1))
	}
	a, c = cmp.Or(a, 1), cmp.Or(c, 1)
	det := a*c - b*b
	if !(det > 1e-9*a*c) {
		return // collinear columns: neither parameter separates
	}
	r, s := (c*u-b*v)/det, (a*v-b*u)/det
	var vr, vn float64
	for _, q := range pairs {
		e := q.next - q.n*r - q.m*s
		gr, gn := (c*q.n-b*q.m)/det, (a*q.m-b*q.n)/det
		vr, vn = vr+e*e*gr*gr, vn+e*e*gn*gn
	}
	return newEstimate(r, vr, cr), newEstimate(s, vn, cn)
}

// newEstimate clamps v to [0, 1]; no informing pair, or a non-finite
// value or variance, is no information.
func newEstimate(v, variance float64, count int) ParamEstimate {
	se := math.Sqrt(variance)
	if count == 0 || math.IsNaN(v) || math.IsNaN(se) || math.IsInf(se, 0) {
		return ParamEstimate{}
	}
	return ParamEstimate{Value: min(max(v, 0), 1), SE: se, Count: count}
}

// String prints the estimate, or "no information" when nothing informed it.
func (e ParamEstimate) String() string {
	if e.Count == 0 {
		return "no information"
	}
	return fmt.Sprintf("%.4g ± %.2g (%d pairs)", e.Value, e.SE, e.Count)
}

// String renders the estimates for CLI output, with at most ten levels
// of the p_(x) curve.
func (e Estimates) String() string {
	out := fmt.Sprintf("estimate over %d traces, %d sample pairs (median interval %.3g, off-step pairs %.1f%%):",
		e.Traces, e.Pairs, e.Interval, 100*e.OffStep)
	names := [...]string{"p_init", "alpha", "gamma", "p_r", "p_n"}
	for j, est := range [...]ParamEstimate{e.PInit, e.Alpha, e.Gamma, e.PR, e.PN} {
		out += fmt.Sprintf("\n  %-8s %s", names[j], est)
	}
	out += fmt.Sprintf("\n  p_(x)    %d levels informed", len(e.Power))
	for j := 0; j < len(e.Power); j += (len(e.Power) + 9) / 10 {
		out += fmt.Sprintf("\n    x=%-4d %s", e.Power[j].X, e.Power[j].ParamEstimate)
	}
	return out
}
