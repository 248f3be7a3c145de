package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/stats"
)

func solveOrFatal(t *testing.T, e EfficiencyParams) EfficiencyResult {
	t.Helper()
	res, err := SolveEfficiency(e, 1e-10, 200000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEfficiencyValidation(t *testing.T) {
	if _, err := SolveEfficiency(EfficiencyParams{K: 0, PR: 0.5}, 1e-9, 100); err == nil {
		t.Error("K = 0 must be rejected")
	}
	if _, err := SolveEfficiency(EfficiencyParams{K: 2, PR: 1.5}, 1e-9, 100); err == nil {
		t.Error("PR out of range must be rejected")
	}
	if _, err := SolveEfficiency(EfficiencyParams{K: 2, PR: 0.5}, 0, 100); err == nil {
		t.Error("non-positive tolerance must be rejected")
	}
}

func TestEfficiencyMassConserved(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		for _, pr := range []float64{0.3, 0.6, 0.9} {
			res := solveOrFatal(t, EfficiencyParams{K: k, PR: pr})
			sum := 0.0
			for _, v := range res.X {
				if v < -1e-12 {
					t.Fatalf("k=%d pr=%g: negative mass %g", k, pr, v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("k=%d pr=%g: mass %g, want 1", k, pr, sum)
			}
			if res.Eta < 0 || res.Eta > 1 {
				t.Errorf("k=%d pr=%g: eta %g out of [0,1]", k, pr, res.Eta)
			}
		}
	}
}

func TestEfficiencyClosedFormK1(t *testing.T) {
	// For k = 1 the fixed point solves (1-pr)·x1 = (1-x1)², so
	// x1 = ((2-pr) - sqrt((2-pr)² - 4)) / 2 ... using x1²-(3-pr... derive:
	// (1-pr)x1 = (1-x1)^2  =>  x1^2 - (3-pr)... expand: 1 - 2x1 + x1^2
	// => x1^2 - (2+(1-pr))x1 + 1 = 0 with a = 1, b = -(3-pr)? No:
	// x1^2 - 2x1 + 1 - (1-pr)x1 = 0 => x1^2 - (3-pr)x1 + 1 = 0.
	for _, pr := range []float64{0.3, 0.45, 0.7, 0.9} {
		bq := 3 - pr
		want := (bq - math.Sqrt(bq*bq-4)) / 2
		res := solveOrFatal(t, EfficiencyParams{K: 1, PR: pr})
		if math.Abs(res.Eta-want) > 1e-6 {
			t.Errorf("pr=%g: eta %g, want closed form %g", pr, res.Eta, want)
		}
	}
}

func TestEfficiencyMonotoneInPR(t *testing.T) {
	prev := -1.0
	for _, pr := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		res := solveOrFatal(t, EfficiencyParams{K: 4, PR: pr})
		if res.Eta <= prev {
			t.Fatalf("eta not increasing in pr: %g at pr=%g after %g", res.Eta, pr, prev)
		}
		prev = res.Eta
	}
}

func TestEfficiencyDegeneratePR(t *testing.T) {
	// PR = 1: connections never fail; everyone climbs to k. The balance
	// flows shrink quadratically as x_k -> 1 (both residual terms vanish
	// together), so use a looser tolerance than the contractive cases.
	res, err := SolveEfficiency(EfficiencyParams{K: 3, PR: 1}, 1e-7, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Eta < 0.999 {
		t.Errorf("pr=1 eta = %g, want ~1", res.Eta)
	}
	// PR = 0: every connection dies each round; with the sequential
	// upper-bound sweep mass still climbs within a round, but equilibrium
	// efficiency must be far below the pr=1 case.
	res0 := solveOrFatal(t, EfficiencyParams{K: 3, PR: 0})
	if res0.Eta >= res.Eta {
		t.Errorf("pr=0 eta %g must be below pr=1 eta %g", res0.Eta, res.Eta)
	}
}

// Figure 4(a): with the calibrated persistence curve, efficiency jumps
// sharply from k = 1 to k = 2 and then plateaus.
func TestEfficiencyFig4aShape(t *testing.T) {
	etas := make([]float64, 9)
	for k := 1; k <= 8; k++ {
		res := solveOrFatal(t, EfficiencyParams{K: k, PR: CalibratedPR(k)})
		etas[k] = res.Eta
	}
	if gain12 := etas[2] - etas[1]; gain12 < 0.2 {
		t.Errorf("k=1->2 efficiency gain %g, want >= 0.2 (eta1=%g eta2=%g)",
			gain12, etas[1], etas[2])
	}
	for k := 3; k <= 8; k++ {
		if d := math.Abs(etas[k] - etas[k-1]); d > 0.06 {
			t.Errorf("plateau violated at k=%d: |%g - %g| = %g",
				k, etas[k], etas[k-1], d)
		}
	}
	if etas[2] < 0.75 {
		t.Errorf("eta at k=2 = %g, want high (> 0.75)", etas[2])
	}
}

func TestMeanFieldAgreesQualitatively(t *testing.T) {
	for k := 1; k <= 8; k++ {
		pr := CalibratedPR(k)
		up, err := SolveEfficiency(EfficiencyParams{K: k, PR: pr}, 1e-10, 200000)
		if err != nil {
			t.Fatal(err)
		}
		mf, err := solveEfficiencyMeanField(EfficiencyParams{K: k, PR: pr}, 1e-12, 200000)
		if err != nil {
			t.Fatal(err)
		}
		// The two formulations are independent discretizations of the
		// same migration process: near-identical at high persistence,
		// within ~0.15 at low persistence (the mean-field chain exposes a
		// new connection to same-round failure, the sweep does not).
		tolEta := 0.02
		if pr < 0.9 {
			tolEta = 0.15
		}
		if math.Abs(mf.Eta-up.Eta) > tolEta {
			t.Errorf("k=%d: mean-field eta %g far from sweep eta %g", k, mf.Eta, up.Eta)
		}
		sum := 0.0
		for _, v := range mf.X {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("k=%d: mean-field mass %g", k, sum)
		}
	}
}

func TestCalibratedPRShape(t *testing.T) {
	if CalibratedPR(1) >= CalibratedPR(2) {
		t.Error("persistence must jump from k=1 to k=2")
	}
	prev := CalibratedPR(2)
	for k := 3; k <= 10; k++ {
		cur := CalibratedPR(k)
		if cur < prev {
			t.Errorf("CalibratedPR not non-decreasing at k=%d", k)
		}
		if cur > 1 {
			t.Errorf("CalibratedPR(%d) = %g > 1", k, cur)
		}
		prev = cur
	}
}

// referenceFailureTables precomputes w^i_l = C(i,l)(1-pr)^l pr^(i-l), the
// probability that l of i connections fail in one step, for i, l = 0..k,
// one Lgamma triple and two Pow calls per entry.
func referenceFailureTables(k int, pr float64) [][]float64 {
	out := make([][]float64, k+1)
	for i := 0; i <= k; i++ {
		row := make([]float64, i+1)
		for l := 0; l <= i; l++ {
			row[l] = math.Exp(stats.LogChoose(i, l)) *
				math.Pow(1-pr, float64(l)) * math.Pow(pr, float64(i-l))
		}
		out[i] = row
	}
	return out
}

// referenceSolveEfficiency is the solver as it stood before the failure
// table was flattened: one slice per table row, lossP re-summed every
// round and each down[i] gathered behind a single accumulator. It is the
// oracle SolveEfficiency must match bit for bit.
func referenceSolveEfficiency(e EfficiencyParams, tol float64, maxIter int) (EfficiencyResult, error) {
	if err := e.Validate(); err != nil {
		return EfficiencyResult{}, err
	}
	if tol <= 0 {
		return EfficiencyResult{}, errors.New("core: tolerance must be positive")
	}
	k := e.K
	x := make([]float64, k+1)
	x[0] = 1
	failPMF := referenceFailureTables(k, e.PR)
	const damping = 0.5

	down := make([]float64, k+1)
	up := make([]float64, k+1)
	y := make([]float64, k+1)
	for it := 1; it <= maxIter; it++ {
		for i := 0; i <= k; i++ {
			lossP := 0.0
			for l := 1; l <= i; l++ {
				lossP += failPMF[i][l]
			}
			v := -x[i] * lossP
			for l := i + 1; l <= k; l++ {
				v += failPMF[l][l-i] * x[l]
			}
			down[i] = v
		}
		copy(y, x)
		for i := 0; i < k; i++ {
			if y[i] <= 0 {
				continue
			}
			succ := 1 - y[k]
			if succ <= 0 {
				continue
			}
			moved := y[i] * succ
			y[i] -= moved
			y[i+1] += moved
		}
		for i := range up {
			up[i] = y[i] - x[i]
		}
		delta := 0.0
		for i := range x {
			d := damping * (down[i] + up[i])
			x[i] += d
			if x[i] < 0 {
				x[i] = 0
			}
			delta += math.Abs(d)
		}
		normalize(x)
		if delta < tol {
			return EfficiencyResult{X: snapshot(x), Eta: eta(x, k), Iterations: it}, nil
		}
	}
	return EfficiencyResult{}, fmt.Errorf("core: efficiency iteration did not converge in %d rounds", maxIter)
}

// TestSolveEfficiencyMatchesReference pins the contract the flat table
// was built under: the response bytes of an efficiency query (x, eta and
// the iteration count) are those of the reference sweep, bit for bit, and
// the two fail on the same inputs.
func TestSolveEfficiencyMatchesReference(t *testing.T) {
	check := func(label string, e EfficiencyParams, maxIter int) {
		t.Helper()
		got, gotErr := SolveEfficiency(e, 1e-9, maxIter)
		want, wantErr := referenceSolveEfficiency(e, 1e-9, maxIter)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: err = %v, reference err = %v", label, gotErr, wantErr)
		}
		if got.Iterations != want.Iterations ||
			math.Float64bits(got.Eta) != math.Float64bits(want.Eta) || len(got.X) != len(want.X) {
			t.Fatalf("%s: (eta %v, %d iterations, %d classes), reference (%v, %d, %d)", label,
				got.Eta, got.Iterations, len(got.X), want.Eta, want.Iterations, len(want.X))
		}
		for i := range got.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
				t.Fatalf("%s: X[%d] = %v, reference %v", label, i, got.X[i], want.X[i])
			}
		}
	}
	for k := 1; k <= 100; k++ {
		check(fmt.Sprintf("calibrated k=%d", k), EfficiencyParams{K: k, PR: CalibratedPR(k)}, 500000)
	}
	// p_r = 1 converges only quadratically; the budget below exhausts at
	// large k, and then both solvers must fail alike.
	r := stats.NewRNG(20, 5)
	for n := 0; n < 320; n++ {
		k, pr := 1+r.IntN(40), r.Float64()
		switch n % 16 {
		case 0:
			pr = 0
		case 1:
			pr = 1
		}
		check(fmt.Sprintf("draw %d (k=%d pr=%v)", n, k, pr), EfficiencyParams{K: k, PR: pr}, 20000)
	}
	// An exhausted budget is an error from both, never a half-converged X.
	for _, k := range []int{1, 8, 65} {
		e := EfficiencyParams{K: k, PR: CalibratedPR(k)}
		got, err := SolveEfficiency(e, 1e-9, 10)
		if err == nil || got.X != nil || got.Iterations != 0 {
			t.Fatalf("k=%d: 10 rounds returned (%+v, %v), want a bare error", k, got, err)
		}
		check(fmt.Sprintf("exhausted k=%d", k), e, 10)
	}
}

// TestSolveEfficiencyAllocs: a solve allocates its scratch block and the
// returned X, nothing per row and nothing per round.
func TestSolveEfficiencyAllocs(t *testing.T) {
	for _, k := range []int{8, 65} {
		e := EfficiencyParams{K: k, PR: CalibratedPR(k)}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := SolveEfficiency(e, 1e-9, 500000); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("k=%d: %v allocations per solve, want <= 2", k, allocs)
		}
	}
}

// TestSolveEfficiencyCtxCancelled: p_r = 1 at k = 100 runs 136 352
// rounds; a cancelled context must cut that short at the next poll.
func TestSolveEfficiencyCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := SolveEfficiencyCtx(ctx, EfficiencyParams{K: 100, PR: 1}, 1e-9, 500000)
	if !errors.Is(err, context.Canceled) || res.X != nil {
		t.Fatalf("cancelled solve returned (%+v, %v), want context.Canceled", res, err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("cancelled solve took %v, want < 50ms", d)
	}
}

var sinkEfficiency EfficiencyResult

// BenchmarkSolveEfficiency times one solve at the calibrated p_r, serving
// tolerance and budget. The table build dominates at k = 8 and the
// O(k²) sweep from k = 32 up; serve_cold draws k from 2..65.
func BenchmarkSolveEfficiency(b *testing.B) {
	for _, k := range []int{8, 32, 65, 100} {
		e := EfficiencyParams{K: k, PR: CalibratedPR(k)}
		for _, s := range []struct {
			name  string
			solve func(EfficiencyParams, float64, int) (EfficiencyResult, error)
		}{{"", SolveEfficiency}, {"/reference", referenceSolveEfficiency}} {
			b.Run(fmt.Sprintf("k=%d%s", k, s.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := s.solve(e, 1e-9, 500000)
					if err != nil {
						b.Fatal(err)
					}
					sinkEfficiency = res
				}
				b.ReportMetric(float64(sinkEfficiency.Iterations), "iterations")
			})
		}
	}
}

// solveEfficiencyMeanField computes the steady state of the same migration
// process via a self-consistent per-peer Markov chain: each step a peer
// with an open slot gains a connection with probability equal to the
// fraction of peers that also have an open slot, then each connection
// independently survives with probability PR. The population distribution
// is the stationary law of that chain, solved by fixed-point iteration.
// This is an independent cross-check of SolveEfficiency.
func solveEfficiencyMeanField(e EfficiencyParams, tol float64, maxIter int) (EfficiencyResult, error) {
	if err := e.Validate(); err != nil {
		return EfficiencyResult{}, err
	}
	k := e.K
	failPMF := referenceFailureTables(k, e.PR)
	x := make([]float64, k+1)
	x[0] = 1
	for it := 1; it <= maxIter; it++ {
		open := 1 - x[k]
		next := make([]float64, k+1)
		for i := 0; i <= k; i++ {
			if x[i] == 0 {
				continue
			}
			// Gain phase: i -> i+1 with probability `open` when i < k.
			gainTo := i
			pGain := 0.0
			if i < k {
				pGain = open
				gainTo = i + 1
			}
			// Failure phase applied to the post-gain count.
			scatter(next, gainTo, x[i]*pGain, failPMF)
			scatter(next, i, x[i]*(1-pGain), failPMF)
		}
		delta := 0.0
		for i := range x {
			delta += math.Abs(next[i] - x[i])
		}
		copy(x, next)
		if delta < tol {
			return EfficiencyResult{X: snapshot(x), Eta: eta(x, k), Iterations: it}, nil
		}
	}
	return EfficiencyResult{}, fmt.Errorf("core: mean-field iteration did not converge in %d rounds", maxIter)
}

// scatter distributes mass from a class with c connections over the
// failure outcomes: l failures land the peer in class c-l.
func scatter(dst []float64, c int, mass float64, failPMF [][]float64) {
	if mass == 0 {
		return
	}
	for l := 0; l <= c; l++ {
		dst[c-l] += mass * failPMF[c][l]
	}
}
