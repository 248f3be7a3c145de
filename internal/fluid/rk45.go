package fluid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/obs/trace"
)

// ErrDiverged tags solver failures caused by the integrated state rather
// than by the caller: a NaN/Inf in the vector field, an error estimate
// that cannot be controlled, or a step size driven below the resolvable
// minimum. Transports map the class to "bad request": divergence is a
// property of the requested parameters, not of the server.
var ErrDiverged = errors.New("fluid: integration diverged")

// Dormand–Prince 5(4) tableau (the DOPRI5 pair): a fifth-order solution
// with an embedded fourth-order error estimate, first-same-as-last. The
// coefficients are the exact rationals from Dormand & Prince (1980),
// evaluated in float64 once at package init — every solve uses the same
// constants, which is half of the determinism argument (the other half:
// the step loop below is strictly sequential IEEE-754 arithmetic with no
// data-dependent reassociation, so a given (f, y0, opts) always walks the
// identical step sequence, on any machine, at any -jobs setting).
var (
	dpC = [7]float64{0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1, 1}
	dpA = [7][6]float64{
		{},
		{1.0 / 5},
		{3.0 / 40, 9.0 / 40},
		{44.0 / 45, -56.0 / 15, 32.0 / 9},
		{19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
		{9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
		{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
	}
	// dpE is b5 − b4: the embedded error weights.
	dpE = [7]float64{
		71.0 / 57600, 0, -71.0 / 16695, 71.0 / 1920,
		-17253.0 / 339200, 22.0 / 525, -1.0 / 40,
	}
	// dpD are the dense-output weights of Hairer's contd5 continuous
	// extension (fourth-order accurate on the whole step).
	dpD = [7]float64{
		-12715105075.0 / 11282082432, 0, 87487479700.0 / 32700410799,
		-10690763975.0 / 1880347072, 701980252875.0 / 199316789632,
		-1453857185.0 / 822651844, 69997945.0 / 29380423,
	}
)

// stepBudget bounds accepted plus rejected steps of one Solve;
// exceeding it is an ErrDiverged.
const stepBudget = 1_000_000

// SolveOpts tunes an adaptive Solve. The zero value takes the documented
// defaults.
type SolveOpts struct {
	// RTol and ATol are the relative and absolute error tolerances of the
	// embedded estimate (defaults 1e-6 and 1e-9). A step is accepted when
	// the RMS of err_i / (ATol + RTol·max(|y_i|, |y'_i|)) is at most 1.
	RTol, ATol float64
	// OnStep, when non-nil, is called after every accepted step with the
	// step's end time and state (slice not retained). This is the serving
	// layer's streaming hook.
	OnStep func(t float64, y []float64)
}

// Solution is the result of an adaptive Solve.
type Solution struct {
	// T and Y hold the dense-output samples at the requested grid times
	// (nil when no grid was given).
	T []float64
	Y [][]float64
	// Final is the state at t1.
	Final []float64
	// Steps counts accepted steps, Rejected the error-controlled
	// rejections, FEvals the vector-field evaluations. All three are
	// deterministic in the inputs — they are part of served responses.
	Steps, Rejected, FEvals int
}

// rk45 carries one integration's scratch state.
type rk45 struct {
	f    Derivs
	n    int
	y    []float64
	k    [7][]float64
	tmp  []float64
	yNew []float64
	sol  *Solution
	opts SolveOpts
}

// Solve integrates y' = f(t, y) from t0 to t1 with the adaptive
// Dormand–Prince 5(4) scheme: embedded error control with a clamped
// PI-free step controller, NaN/Inf divergence guards, and fourth-order
// dense output onto grid, the times (non-decreasing, inside [t0, t1]) at
// which the solution is sampled without constraining step acceptance.
// A step may span the whole interval. The ctx is checked once per
// accepted step, so long solves abort cooperatively; pass
// context.Background() when cancellation is not needed.
//
// Determinism: the result — every accepted step, the sample values, and
// the step counters — is a pure function of (f, y0, t0, t1, grid,
// opts). The solver allocates its scratch up front and then runs
// straight-line float64 arithmetic; there is no randomness, no map
// iteration, and no concurrency, so repeated solves are bit-identical
// across runs, machines, and -jobs settings.
func Solve(ctx context.Context, f Derivs, y0 []float64, t0, t1 float64, grid []float64, opts SolveOpts) (*Solution, error) {
	if len(y0) == 0 {
		return nil, errors.New("fluid: empty state")
	}
	if math.IsNaN(t0) || math.IsNaN(t1) || t1 < t0 {
		return nil, fmt.Errorf("fluid: bad interval [%g, %g]", t0, t1)
	}
	if opts.RTol == 0 {
		opts.RTol = 1e-6
	}
	if opts.ATol == 0 {
		opts.ATol = 1e-9
	}
	if opts.RTol < 0 || opts.ATol < 0 || math.IsNaN(opts.RTol) || math.IsNaN(opts.ATol) ||
		(opts.RTol == 0 && opts.ATol == 0) {
		return nil, fmt.Errorf("fluid: tolerances rtol=%g atol=%g out of range", opts.RTol, opts.ATol)
	}
	for i, tg := range grid {
		if math.IsNaN(tg) || tg < t0 || tg > t1 || (i > 0 && tg < grid[i-1]) {
			return nil, fmt.Errorf("fluid: grid[%d] = %g outside ordered [%g, %g]", i, tg, t0, t1)
		}
	}

	_, sp := trace.Start(ctx, "fluid.solve")
	start := time.Now()
	defer func() {
		sp.End()
		observeSolveMS(time.Since(start))
	}()

	n := len(y0)
	s := &rk45{f: f, n: n, opts: opts, sol: &Solution{}}
	s.y = append([]float64(nil), y0...)
	for i := range s.k {
		s.k[i] = make([]float64, n)
	}
	s.tmp = make([]float64, n)
	s.yNew = make([]float64, n)
	err := s.run(ctx, t0, t1, grid)
	if sp != nil {
		sp.AnnotateInt("steps", s.sol.Steps)
		sp.AnnotateInt("rejected", s.sol.Rejected)
		if err != nil {
			sp.Annotate("outcome", "error")
		}
	}
	countSteps(s.sol.Steps, s.sol.Rejected)
	if err != nil {
		return nil, err
	}
	s.sol.Final = s.y
	return s.sol, nil
}

func (s *rk45) run(ctx context.Context, t0, t1 float64, grid []float64) error {
	gi := 0
	// Grid points at exactly t0 sample the initial state.
	for gi < len(grid) && grid[gi] == t0 {
		s.sample(grid[gi], s.y)
		gi++
	}
	if t1 == t0 {
		for gi < len(grid) {
			s.sample(grid[gi], s.y)
			gi++
		}
		return nil
	}

	s.f(t0, s.y, s.k[0])
	s.sol.FEvals++
	if !allFinite(s.k[0]) {
		return fmt.Errorf("%w: vector field not finite at t0", ErrDiverged)
	}
	h := s.initialStep(t0, t1)
	t := t0
	for t < t1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.sol.Steps+s.sol.Rejected >= stepBudget {
			return fmt.Errorf("%w: step budget %d exhausted at t=%g", ErrDiverged, stepBudget, t)
		}
		if h > t1-t0 {
			h = t1 - t0
		}
		last := false
		if t+h >= t1 {
			h = t1 - t
			last = true
		}
		if h <= 0 || t+h == t {
			return fmt.Errorf("%w: step underflow at t=%g", ErrDiverged, t)
		}
		errNorm, ok := s.step(t, h)
		if !ok || errNorm > 1 {
			// Rejected: shrink and retry. A non-finite stage (ok == false)
			// shrinks by the maximum factor; persistent rejection drives h
			// under the resolvable minimum and errors out.
			s.sol.Rejected++
			factor := 0.2
			if ok {
				factor = math.Max(0.2, 0.9*math.Pow(errNorm, -0.25))
				if factor > 1 {
					factor = 1
				}
			}
			h *= factor
			if h < minStep(t) {
				return fmt.Errorf("%w: step size underflow at t=%g", ErrDiverged, t)
			}
			continue
		}
		// Accepted. Serve grid points inside (t, t+h] through the dense
		// interpolant before the state advances.
		tNew := t + h
		if last {
			tNew = t1
		}
		for gi < len(grid) && grid[gi] <= tNew {
			s.dense(t, h, grid[gi])
			gi++
		}
		s.y, s.yNew = s.yNew, s.y
		// FSAL: stage 7 of the accepted step is stage 1 of the next.
		s.k[0], s.k[6] = s.k[6], s.k[0]
		t = tNew
		s.sol.Steps++
		if s.opts.OnStep != nil {
			s.opts.OnStep(t, s.y)
		}
		// Grow for the next step, clamped to [0.2, 5]×.
		factor := 5.0
		if errNorm > 0 {
			factor = math.Min(5, math.Max(0.2, 0.9*math.Pow(errNorm, -0.2)))
		}
		h *= factor
	}
	// Trailing grid points exactly at t1 (float comparisons above already
	// consumed them when tNew == t1, so this is belt and braces).
	for gi < len(grid) {
		s.sample(grid[gi], s.y)
		gi++
	}
	return nil
}

// step evaluates one Dormand–Prince step of size h from t, filling yNew
// and k[1..6]. It returns the scaled RMS error norm and whether every
// stage stayed finite.
func (s *rk45) step(t, h float64) (float64, bool) {
	n := s.n
	for stage := 1; stage < 7; stage++ {
		a := &dpA[stage]
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < stage; j++ {
				sum += a[j] * s.k[j][i]
			}
			s.tmp[i] = s.y[i] + h*sum
		}
		if stage == 6 {
			// Stage 7 is evaluated at y1 itself (FSAL): tmp currently holds
			// the fifth-order solution because dpA[6] == b5.
			copy(s.yNew, s.tmp)
		}
		s.f(t+dpC[stage]*h, s.tmp, s.k[stage])
		s.sol.FEvals++
		if !allFinite(s.k[stage]) {
			return 0, false
		}
	}
	if !allFinite(s.yNew) {
		return 0, false
	}
	// Scaled RMS of the embedded estimate.
	sum := 0.0
	for i := 0; i < n; i++ {
		e := 0.0
		for j := 0; j < 7; j++ {
			e += dpE[j] * s.k[j][i]
		}
		e *= h
		sc := s.opts.ATol + s.opts.RTol*math.Max(math.Abs(s.y[i]), math.Abs(s.yNew[i]))
		sum += (e / sc) * (e / sc)
	}
	norm := math.Sqrt(sum / float64(n))
	if math.IsNaN(norm) || math.IsInf(norm, 0) {
		return 0, false
	}
	return norm, true
}

// dense samples the continuous extension of the step [t, t+h] at tg,
// recording the sample in the solution. Requires k[0..6] of the step and
// y (start state) plus yNew (end state) to be current.
func (s *rk45) dense(t, h, tg float64) {
	theta := (tg - t) / h
	if theta < 0 {
		theta = 0
	}
	if theta > 1 {
		theta = 1
	}
	th1 := 1 - theta
	out := make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		ydiff := s.yNew[i] - s.y[i]
		bspl := h*s.k[0][i] - ydiff
		r5 := 0.0
		for j := 0; j < 7; j++ {
			r5 += dpD[j] * s.k[j][i]
		}
		r5 *= h
		r4 := ydiff - h*s.k[6][i] - bspl
		out[i] = s.y[i] + theta*(ydiff+th1*(bspl+theta*(r4+th1*r5)))
	}
	s.sol.T = append(s.sol.T, tg)
	s.sol.Y = append(s.sol.Y, out)
}

// sample records a grid sample of the current state verbatim.
func (s *rk45) sample(tg float64, y []float64) {
	s.sol.T = append(s.sol.T, tg)
	s.sol.Y = append(s.sol.Y, append([]float64(nil), y...))
}

// initialStep picks the first step size with the standard two-evaluation
// heuristic (Hairer, Nørsett & Wanner II.4), clamped to the interval.
func (s *rk45) initialStep(t0, t1 float64) float64 {
	span := t1 - t0
	d0, d1 := 0.0, 0.0
	for i := 0; i < s.n; i++ {
		sc := s.opts.ATol + s.opts.RTol*math.Abs(s.y[i])
		d0 += (s.y[i] / sc) * (s.y[i] / sc)
		d1 += (s.k[0][i] / sc) * (s.k[0][i] / sc)
	}
	d0 = math.Sqrt(d0 / float64(s.n))
	d1 = math.Sqrt(d1 / float64(s.n))
	h0 := 1e-6 * span
	if d0 >= 1e-5 && d1 >= 1e-5 {
		h0 = 0.01 * d0 / d1
	}
	if h0 > span {
		h0 = span
	}
	// One explicit Euler probe bounds the second derivative.
	for i := 0; i < s.n; i++ {
		s.tmp[i] = s.y[i] + h0*s.k[0][i]
	}
	s.f(t0+h0, s.tmp, s.k[1])
	s.sol.FEvals++
	d2 := 0.0
	for i := 0; i < s.n; i++ {
		sc := s.opts.ATol + s.opts.RTol*math.Abs(s.y[i])
		d := (s.k[1][i] - s.k[0][i]) / sc
		d2 += d * d
	}
	d2 = math.Sqrt(d2/float64(s.n)) / h0
	h1 := span
	if m := math.Max(d1, d2); m > 1e-15 {
		h1 = math.Pow(0.01/m, 0.2)
	}
	h := math.Min(math.Min(100*h0, h1), span)
	if h <= 0 || math.IsNaN(h) {
		h = 1e-6 * span
	}
	return h
}

// minStep is the smallest step distinguishable from t in float64, times
// a safety margin.
func minStep(t float64) float64 {
	return 16 * math.Max(math.Nextafter(math.Abs(t), math.Inf(1))-math.Abs(t), 1e-300)
}

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
