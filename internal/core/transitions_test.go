package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func testParams() Params {
	return Params{
		B: 20, K: 3, S: 8,
		PInit: 0.5, Alpha: 0.2, Gamma: 0.3, PR: 0.8, PN: 0.7,
		Phi: UniformPhi(20),
	}
}

func outcomesSum(outs []Outcome) float64 {
	s := 0.0
	for _, o := range outs {
		s += o.P
	}
	return s
}

func TestF(t *testing.T) {
	p := testParams()
	cases := []struct{ n, b, want int }{
		{0, 0, 1},   // joining: first piece
		{3, 0, 1},   // b = 0 dominates
		{0, 5, 5},   // no connections: no progress
		{2, 5, 7},   // each connection delivers a piece
		{3, 19, 20}, // clamped at B
		{0, 20, 20}, // complete stays complete
	}
	for _, c := range cases {
		if got := F(p.B, c.n, c.b); got != c.want {
			t.Errorf("F(n=%d, b=%d) = %d, want %d", c.n, c.b, got, c.want)
		}
	}
}

func TestGCases(t *testing.T) {
	p := testParams()

	// Joining (b+n = 0): Binomial(S, PInit).
	outs := G(p, 0, 0, 0)
	if math.Abs(outcomesSum(outs)-1) > 1e-9 {
		t.Errorf("join G sums to %g", outcomesSum(outs))
	}
	wantMean := float64(p.S) * p.PInit
	mean := 0.0
	for _, o := range outs {
		mean += float64(o.Value) * o.P
	}
	if math.Abs(mean-wantMean) > 1e-9 {
		t.Errorf("join G mean %g, want %g", mean, wantMean)
	}

	// Bootstrap wait (b+n = 1, i = 0): α-escape.
	outs = G(p, 0, 1, 0)
	if len(outs) != 2 {
		t.Fatalf("bootstrap G has %d outcomes, want 2", len(outs))
	}
	for _, o := range outs {
		switch o.Value {
		case 0:
			if math.Abs(o.P-(1-p.Alpha)) > 1e-12 {
				t.Errorf("stay prob %g, want %g", o.P, 1-p.Alpha)
			}
		case 1:
			if math.Abs(o.P-p.Alpha) > 1e-12 {
				t.Errorf("escape prob %g, want %g", o.P, p.Alpha)
			}
		default:
			t.Errorf("unexpected bootstrap outcome %d", o.Value)
		}
	}

	// Last-phase wait (b+n > 1, i = 0): γ-escape.
	outs = G(p, 0, 7, 0)
	escape := 0.0
	for _, o := range outs {
		if o.Value == 1 {
			escape = o.P
		}
	}
	if math.Abs(escape-p.Gamma) > 1e-12 {
		t.Errorf("gamma escape prob %g, want %g", escape, p.Gamma)
	}

	// Efficient phase (b+n >= 1, i > 0): Binomial(S, p_(b+n)).
	outs = G(p, 1, 7, 4)
	if math.Abs(outcomesSum(outs)-1) > 1e-9 {
		t.Errorf("efficient G sums to %g", outcomesSum(outs))
	}
	wantP := TradingPower(p.Phi, 8)
	mean = 0
	for _, o := range outs {
		mean += float64(o.Value) * o.P
	}
	if math.Abs(mean-float64(p.S)*wantP) > 1e-9 {
		t.Errorf("efficient G mean %g, want %g", mean, float64(p.S)*wantP)
	}

	// Departure (b = B): potential set collapses.
	outs = G(p, 2, 20, 5)
	if len(outs) != 1 || outs[0].Value != 0 || outs[0].P != 1 {
		t.Errorf("departure G = %v, want {0,1}", outs)
	}
}

func TestHCases(t *testing.T) {
	p := testParams()

	// Joining: no pieces, no connections.
	outs := H(p, 0, 0, 5)
	if len(outs) != 1 || outs[0].Value != 0 {
		t.Errorf("join H = %v, want deterministic 0", outs)
	}

	// Departure.
	outs = H(p, 2, 20, 0)
	if len(outs) != 1 || outs[0].Value != 0 {
		t.Errorf("departure H = %v, want deterministic 0", outs)
	}

	// Trading: Y1 + Y2 with i' = 2 < k = 3, n = 1:
	// Y1 ~ Bin(1, PR), Y2 ~ Bin(min(2,3)-1, PN) = Bin(1, PN).
	outs = H(p, 1, 5, 2)
	if math.Abs(outcomesSum(outs)-1) > 1e-9 {
		t.Errorf("H sums to %g", outcomesSum(outs))
	}
	mean := 0.0
	maxV := 0
	for _, o := range outs {
		mean += float64(o.Value) * o.P
		if o.Value > maxV {
			maxV = o.Value
		}
	}
	if want := p.PR + p.PN; math.Abs(mean-want) > 1e-9 {
		t.Errorf("H mean %g, want %g", mean, want)
	}
	if maxV != 2 {
		t.Errorf("H max %d, want 2", maxV)
	}

	// Potential set dropped below current connections: no new trials,
	// only survivals.
	outs = H(p, 3, 5, 1)
	maxV = 0
	for _, o := range outs {
		if o.Value > maxV {
			maxV = o.Value
		}
	}
	if maxV != 3 {
		t.Errorf("shrunken-i' H max %d, want 3 (Y1 only)", maxV)
	}

	// i' larger than k: trials capped at k - n.
	outs = H(p, 0, 5, 100)
	maxV = 0
	for _, o := range outs {
		if o.Value > maxV {
			maxV = o.Value
		}
	}
	if maxV != p.K {
		t.Errorf("capped H max %d, want k = %d", maxV, p.K)
	}
}

func TestTransitionDistributionsAreStochastic(t *testing.T) {
	p := testParams()
	f := func(nRaw, bRaw, iRaw uint8) bool {
		n := int(nRaw) % (p.K + 1)
		b := int(bRaw) % (p.B + 1)
		i := int(iRaw) % (p.S + 1)
		g := G(p, n, b, i)
		if math.Abs(outcomesSum(g)-1) > 1e-9 {
			return false
		}
		for _, gi := range g {
			h := H(p, n, b, gi.Value)
			if math.Abs(outcomesSum(h)-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestModelStepMatchesTransitionFunctions holds the laws Model.Step draws
// from, which the exact tier reads as its kernel, to Equations (2) and (3)
// at every state: each i' row must equal G's outcome and each n' row H's,
// entry by entry, and each must sum to 1 within 1e-12. An entry may
// differ by a few ulps (worst 3.9e-15 at DefaultParams(5)): Model takes
// p_(x) from TradingPowerCurve's closed form, within 9e-16 of Equation
// (1)'s sum, and a running sum that ends short of 1 gives the rest to its
// last value (cdf.index's fallback), up to 1.3e-15 here.
func TestModelStepMatchesTransitionFunctions(t *testing.T) {
	for _, p := range []Params{testParams(), DefaultParams(5)} {
		m, err := NewModel(p)
		if err != nil {
			t.Fatal(err)
		}
		iRow := make([]float64, p.S+1)
		nRow := make([]float64, p.K+1)
		check := func(got []float64, want []Outcome, format string, args ...any) {
			t.Helper()
			what := func() string { return fmt.Sprintf(format, args...) }
			dense := make([]float64, len(got))
			for _, o := range want {
				dense[o.Value] = o.P
			}
			sum := 0.0
			for v, pv := range got {
				sum += pv
				if math.Abs(pv-dense[v]) > 1e-14 {
					t.Fatalf("B=%d %s: P(%d) = %.17g, Equation gives %.17g", p.B, what(), v, pv, dense[v])
				}
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("B=%d %s: row sums to %.17g", p.B, what(), sum)
			}
		}
		for n := 0; n <= p.K; n++ {
			for b := 0; b <= p.B; b++ {
				for i := 0; i <= p.S; i++ {
					check(m.iLaw(iRow, n, b, i), G(p, n, b, i), "i' at (%d,%d,%d)", n, b, i)
				}
				for iNext := 0; iNext <= p.S; iNext++ {
					check(m.nLaw(nRow, n, b, iNext), H(p, n, b, iNext), "n' at (%d,%d) given i'=%d", n, b, iNext)
				}
			}
		}
	}
}

func TestModelValidation(t *testing.T) {
	p := testParams()
	p.B = -1
	if _, err := NewModel(p); err == nil {
		t.Error("invalid params must be rejected")
	}
}
