package core

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestSelfConsistentPhiValidation(t *testing.T) {
	bad := testParams()
	bad.B = 0
	if _, err := SelfConsistentPhi(bad); err == nil {
		t.Error("bad params must be rejected")
	}
}

// btmodelParams is the configuration btmodel's pinned golden runs at:
// -B 20 -k 3 -s 8 with the command's default probabilities.
func btmodelParams() Params {
	return Params{
		B: 20, K: 3, S: 8,
		PInit: 0.5, Alpha: 0.1, Gamma: 0.1, PR: 0.9, PN: 0.8,
		Phi: UniformPhi(20),
	}
}

// TestSelfConsistentPhiConverges: the iteration meets its tolerance
// within phiMaxIter, at a fixed point that is a distribution over 1..B-1
// far from degenerate. The B = 50 row oscillates at damping 0.7 (an L1
// change near 0.38 after 300 iterations) and settles in 45 at 0.5.
func TestSelfConsistentPhiConverges(t *testing.T) {
	b30 := DefaultParams(15)
	b30.B = 30
	b30.Phi = UniformPhi(30)
	stiff := Params{
		B: 50, K: 3, S: 3,
		PInit: 0.5, Alpha: 0.1, Gamma: 0.01, PR: 0.1, PN: 0.8,
		Phi: UniformPhi(50),
	}
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"B=30 s=15", b30},
		{"btmodel", btmodelParams()},
		{"B=50 k=3 s=3 gamma=0.01 p_r=0.1", stiff},
	} {
		res, err := SelfConsistentPhi(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !(res.FinalDelta < phiTol) {
			t.Errorf("%s: %d iterations, final delta %g, want < %g", c.name, res.Iterations, res.FinalDelta, phiTol)
		}
		// The fixed point is a probability distribution over 1..B-1.
		sum := 0.0
		for j := 1; j <= c.p.B; j++ {
			v := res.Phi.At(j)
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("%s: phi(%d) = %g", c.name, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: phi sums to %g", c.name, sum)
		}
		// Section 6: trading pushes the distribution far from degenerate.
		if res.Entropy < 0.6 {
			t.Errorf("%s: fixed-point entropy %g, want > 0.6", c.name, res.Entropy)
		}
	}
}

// TestSelfConsistentPhiStartIndependent: a uniform and a heavily skewed
// starting ϕ reach the same fixed point, level by level.
func TestSelfConsistentPhiStartIndependent(t *testing.T) {
	base := DefaultParams(15)
	base.B = 30
	skew, err := GeometricPhi(30, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	var res [2]SelfConsistentResult
	for j, phi := range []PieceDist{UniformPhi(30), skew} {
		p := base
		p.Phi = phi
		if res[j], err = SelfConsistentPhi(p); err != nil {
			t.Fatal(err)
		}
	}
	for j := 1; j < base.B; j++ {
		if d := math.Abs(res[0].Phi.At(j) - res[1].Phi.At(j)); d > 1e-8 {
			t.Errorf("phi(%d): %g from uniform vs %g from skewed", j, res[0].Phi.At(j), res[1].Phi.At(j))
		}
	}
}

func TestOccupancyNormalizes(t *testing.T) {
	occ, err := occupancy(testParams())
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

// serialOccupancy is the sampler's estimate of occupancy: the states runs
// visit at each level 1..B-1 over all states they visit there, run i on
// the i-th r.Split(), with each share's standard error as a ratio
// estimator's, √Σ(c_j − occ_j·c)² / Σc over runs with c_j visits to level
// j and c in all, expanded into the sums Σc_j², Σc_j·c and Σc².
func serialOccupancy(m *Model, r *stats.RNG, runs int) (occ, se []float64) {
	b := m.p.B
	occ, se = make([]float64, b+1), make([]float64, b+1)
	cross := make([]float64, b+1) // Σ c_j·c
	run := make([]float64, b+1)
	total, squares := 0.0, 0.0
	for range runs {
		clear(run)
		c := 0.0
		for _, s := range m.SampleTrajectory(r.Split()) {
			if s.B >= 1 && s.B < b {
				run[s.B]++
				c++
			}
		}
		for j := 1; j < b; j++ {
			occ[j] += run[j]
			se[j] += run[j] * run[j]
			cross[j] += run[j] * c
		}
		total += c
		squares += c * c
	}
	for j := 1; j < b; j++ {
		occ[j] /= total
		se[j] = math.Sqrt(max(se[j]-2*occ[j]*cross[j]+occ[j]*occ[j]*squares, 0)) / total
	}
	return occ, se
}

// TestOccupancyMatchesSerial holds the exact occupancy, and so every
// step of SelfConsistentPhi, to the sampler's within 4 standard errors at
// every level, plus one visit in the whole sample, the resolution of a
// share no run reached. A γ = 0 chain strands runs in the last phase, so
// it has no finite occupancy and both must say so.
func TestOccupancyMatchesSerial(t *testing.T) {
	const runs = 20000
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"testParams", testParams()},
		{"DefaultParams(40)", DefaultParams(40)},
		{"s=20 seeds 2x0.5", seededParams(20, 2, 0.5)},
	} {
		m, err := NewModel(c.p)
		if err != nil {
			t.Fatal(err)
		}
		want, se := serialOccupancy(m, stats.NewRNG(31, 32), runs)
		got, err := occupancy(c.p)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < c.p.B; j++ {
			if d := math.Abs(got[j] - want[j]); d > 4*se[j]+1.0/runs {
				t.Errorf("%s level %d: exact %.5g vs MC %.5g ± %.2g", c.name, j, got[j], want[j], se[j])
			}
		}
	}
	noGamma := testParams()
	noGamma.Gamma = 0
	if occ, err := occupancy(noGamma); err == nil {
		t.Errorf("gamma=0: occupancy %v, want an error", occ)
	}
	if res, err := SelfConsistentPhi(noGamma); err == nil {
		t.Errorf("gamma=0: SelfConsistentPhi %+v, want an error", res)
	}
}
