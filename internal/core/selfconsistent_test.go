package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/par"
	"repro/internal/stats"
)

func TestSelfConsistentPhiValidation(t *testing.T) {
	p := testParams()
	r := stats.NewRNG(1, 1)
	if _, err := SelfConsistentPhi(p, r, 0, 5, 0.5, 0.01); err == nil {
		t.Error("zero runs must be rejected")
	}
	if _, err := SelfConsistentPhi(p, r, 10, 0, 0.5, 0.01); err == nil {
		t.Error("zero iters must be rejected")
	}
	if _, err := SelfConsistentPhi(p, r, 10, 5, 0, 0.01); err == nil {
		t.Error("zero damping must be rejected")
	}
	if _, err := SelfConsistentPhi(p, r, 10, 5, 0.5, 0); err == nil {
		t.Error("zero tol must be rejected")
	}
	bad := p
	bad.B = 0
	if _, err := SelfConsistentPhi(bad, r, 10, 5, 0.5, 0.01); err == nil {
		t.Error("bad params must be rejected")
	}
}

func TestSelfConsistentPhiConverges(t *testing.T) {
	p := DefaultParams(15)
	p.B = 30
	p.Phi = UniformPhi(30)
	res, err := SelfConsistentPhi(p, stats.NewRNG(11, 12), 300, 15, 0.7, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phi == nil || res.Iterations < 1 {
		t.Fatal("empty result")
	}
	// The fixed point is a probability distribution over 1..B-1.
	sum := 0.0
	for j := 1; j <= 30; j++ {
		v := res.Phi.At(j)
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("phi(%d) = %g", j, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("phi sums to %g", sum)
	}
	// Section 6: trading pushes the distribution far from degenerate.
	if res.Entropy < 0.6 {
		t.Errorf("fixed-point entropy %g, want > 0.6", res.Entropy)
	}
}

func TestSelfConsistentPhiStartIndependent(t *testing.T) {
	// The same fixed point (by entropy and mid-range mass) must emerge
	// from a uniform and from a heavily skewed starting ϕ.
	base := DefaultParams(15)
	base.B = 30

	pUniform := base
	pUniform.Phi = UniformPhi(30)
	resU, err := SelfConsistentPhi(pUniform, stats.NewRNG(21, 22), 300, 15, 0.7, 0.03)
	if err != nil {
		t.Fatal(err)
	}

	skew, err := GeometricPhi(30, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	pSkew := base
	pSkew.Phi = skew
	resS, err := SelfConsistentPhi(pSkew, stats.NewRNG(23, 24), 300, 15, 0.7, 0.03)
	if err != nil {
		t.Fatal(err)
	}

	if d := math.Abs(resU.Entropy - resS.Entropy); d > 0.08 {
		t.Errorf("fixed points diverge: entropy %g vs %g", resU.Entropy, resS.Entropy)
	}
	// Mid-range mass agreement.
	midU, midS := 0.0, 0.0
	for j := 10; j < 20; j++ {
		midU += resU.Phi.At(j)
		midS += resS.Phi.At(j)
	}
	if d := math.Abs(midU - midS); d > 0.1 {
		t.Errorf("mid-range mass diverges: %g vs %g", midU, midS)
	}
}

func TestOccupancyNormalizes(t *testing.T) {
	m, err := NewModel(testParams())
	if err != nil {
		t.Fatal(err)
	}
	occ, err := occupancy(m, stats.NewRNG(31, 32), 50)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for j := 1; j < testParams().B; j++ {
		sum += occ[j]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("occupancy sums to %g", sum)
	}
	if occ[0] != 0 || occ[testParams().B] != 0 {
		t.Error("occupancy must exclude empty and complete states")
	}
}

// serialOccupancy is occupancy as a serial loop over materialised
// trajectories, run i on the i-th r.Split(): the reference the ensemble
// form must match bit for bit.
func serialOccupancy(m *Model, r *stats.RNG, runs int) []float64 {
	b := m.p.B
	counts := make([]float64, b+1)
	for i := 0; i < runs; i++ {
		for _, s := range m.SampleTrajectory(r.Split()) {
			if s.B >= 1 && s.B < b {
				counts[s.B]++
			}
		}
	}
	total := 0.0
	for j := 1; j < b; j++ {
		total += counts[j]
	}
	for j := 1; j < b; j++ {
		counts[j] /= total
	}
	counts[b] = 0
	return counts
}

// TestOccupancyMatchesSerial holds occupancy, and so SelfConsistentPhi,
// bit-equal to the serial reference at one and two workers. The γ = 0
// row strands some runs in the last phase, so the state at the step cap
// is counted too.
func TestOccupancyMatchesSerial(t *testing.T) {
	defer par.SetDefaultJobs(0) //nolint:errcheck // 0 is always accepted
	noGamma := testParams()
	noGamma.Gamma = 0
	for _, c := range []struct {
		name   string
		p      Params
		runs   int
		capped bool
	}{
		{"testParams", testParams(), 200, false},
		{"DefaultParams(40)", DefaultParams(40), 100, false},
		{"gamma=0", noGamma, 200, true},
	} {
		m, err := NewModel(c.p)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := m.SampleRuns(context.Background(), stats.NewRNG(31, 32), 0, c.runs)
		if err != nil {
			t.Fatal(err)
		}
		if (acc.Truncated > 0) != c.capped {
			t.Fatalf("%s: %d runs at the step cap, want capped = %v", c.name, acc.Truncated, c.capped)
		}
		want := serialOccupancy(m, stats.NewRNG(31, 32), c.runs)
		var phi SelfConsistentResult
		for _, jobs := range []int{1, 2} {
			if err := par.SetDefaultJobs(jobs); err != nil {
				t.Fatal(err)
			}
			got, err := occupancy(m, stats.NewRNG(31, 32), c.runs)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s jobs %d: occupancy differs from the serial loop", c.name, jobs)
			}
			res, err := SelfConsistentPhi(c.p, stats.NewRNG(5, 6), c.runs, 3, 0.7, 1e-9)
			if err != nil {
				t.Fatal(err)
			}
			if jobs == 1 {
				phi = res
			} else if !reflect.DeepEqual(res, phi) {
				t.Errorf("%s: SelfConsistentPhi at jobs 2 differs from jobs 1", c.name)
			}
		}
	}
}
