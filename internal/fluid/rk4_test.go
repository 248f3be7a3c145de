package fluid

import (
	"errors"
	"fmt"
	"math"
)

// RK4 is the fixed-step reference the adaptive solver's accuracy and
// grid tests compare against; it is not part of the package API. It
// integrates y' = f(t, y) from t0 to t1 with fixed step dt using the
// classical fourth-order Runge–Kutta scheme. observe, when non-nil, is
// called after every step (and once at t0) with the current time and
// state; the state slice must not be retained.
//
// Step times are computed from an integer step index — t_i = t0 + i·dt
// by one multiplication, never by accumulation — so the observe grid is
// exact: observed time i equals t0 + i·dt bit-for-bit, independent of
// the horizon (integrating to 10 or to 1000 yields the identical time
// stamps over the shared prefix). The final step is the partial h that
// lands exactly on t1.
func RK4(f Derivs, y0 []float64, t0, t1, dt float64, observe func(t float64, y []float64)) ([]float64, error) {
	if dt <= 0 || math.IsNaN(dt) {
		return nil, fmt.Errorf("fluid: step %g must be positive", dt)
	}
	if t1 < t0 {
		return nil, fmt.Errorf("fluid: t1 %g before t0 %g", t1, t0)
	}
	n := len(y0)
	if n == 0 {
		return nil, errors.New("fluid: empty state")
	}
	y := append([]float64(nil), y0...)
	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	tmp := make([]float64, n)

	if observe != nil {
		observe(t0, y)
	}
	for i := 1; t1 > t0; i++ {
		t := t0 + float64(i-1)*dt
		tNext := t0 + float64(i)*dt
		last := tNext >= t1
		if last {
			tNext = t1
		}
		h := tNext - t
		if h <= 0 && !last {
			return nil, fmt.Errorf("fluid: step %g vanishes at t=%g", dt, t)
		}
		if h > 0 {
			f(t, y, k1)
			axpy(tmp, y, k1, h/2)
			f(t+h/2, tmp, k2)
			axpy(tmp, y, k2, h/2)
			f(t+h/2, tmp, k3)
			axpy(tmp, y, k3, h)
			f(t+h, tmp, k4)
			for j := 0; j < n; j++ {
				y[j] += h / 6 * (k1[j] + 2*k2[j] + 2*k3[j] + k4[j])
				if math.IsNaN(y[j]) || math.IsInf(y[j], 0) {
					return nil, fmt.Errorf("fluid: state diverged at t=%g", tNext)
				}
			}
			if observe != nil {
				observe(tNext, y)
			}
		}
		if last {
			break
		}
	}
	return y, nil
}

// axpy computes dst = base + s·v.
func axpy(dst, base, v []float64, s float64) {
	for i := range dst {
		dst[i] = base[i] + s*v[i]
	}
}
