package core

import (
	"math"
	"testing"
)

func phiSum(d PieceDist) float64 {
	sum := 0.0
	for j := 1; j <= d.MaxPieces(); j++ {
		sum += d.At(j)
	}
	return sum
}

func TestUniformPhi(t *testing.T) {
	d := UniformPhi(10)
	if d.MaxPieces() != 10 {
		t.Errorf("MaxPieces = %d, want 10", d.MaxPieces())
	}
	if got := d.At(3); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("At(3) = %g, want 0.1", got)
	}
	if d.At(0) != 0 || d.At(11) != 0 || d.At(-1) != 0 {
		t.Error("out-of-support must be 0")
	}
	if s := phiSum(d); math.Abs(s-1) > 1e-12 {
		t.Errorf("sum = %g, want 1", s)
	}

	// UniformPhi is a closed form; the table it replaced is the reference.
	// Every value, on and off the support, and the trading-power curve
	// built from it must match bit for bit.
	table := func(b int) PieceDist {
		p := make([]float64, b+1)
		for j := 1; j <= b; j++ {
			p[j] = 1 / float64(b)
		}
		return tableDist{p: p}
	}
	for _, b := range []int{1, 2, 3, 100, 2000} {
		got, want := UniformPhi(b), table(b)
		if got.MaxPieces() != want.MaxPieces() {
			t.Fatalf("B = %d: MaxPieces = %d, want %d", b, got.MaxPieces(), want.MaxPieces())
		}
		for j := -1; j <= b+1; j++ {
			if g, w := got.At(j), want.At(j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("B = %d: At(%d) = %x, table holds %x", b, j, math.Float64bits(g), math.Float64bits(w))
			}
		}
		gc, wc := TradingPowerCurve(got), TradingPowerCurve(want)
		for x := range wc {
			if math.Float64bits(gc[x]) != math.Float64bits(wc[x]) {
				t.Fatalf("B = %d: p_(%d) = %v, table gives %v", b, x, gc[x], wc[x])
			}
		}
	}
}

func TestGeometricPhi(t *testing.T) {
	d, err := GeometricPhi(5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s := phiSum(d); math.Abs(s-1) > 1e-12 {
		t.Errorf("sum = %g, want 1", s)
	}
	// Monotonically decreasing mass.
	for j := 2; j <= 5; j++ {
		if d.At(j) >= d.At(j-1) {
			t.Errorf("geometric phi not decreasing at %d", j)
		}
	}
	if _, err := GeometricPhi(5, 0); err == nil {
		t.Error("ratio 0 must be rejected")
	}
	if _, err := GeometricPhi(5, 1); err == nil {
		t.Error("ratio 1 must be rejected")
	}
}

func TestEmpiricalPhi(t *testing.T) {
	d, err := EmpiricalPhi([]int{99, 2, 0, 6})
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxPieces() != 3 {
		t.Errorf("MaxPieces = %d, want 3", d.MaxPieces())
	}
	if got := d.At(1); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("At(1) = %g, want 0.25 (counts[0] must be ignored)", got)
	}
	if got := d.At(3); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("At(3) = %g, want 0.75", got)
	}
	if _, err := EmpiricalPhi([]int{5}); err == nil {
		t.Error("too-short counts must be rejected")
	}
	if _, err := EmpiricalPhi([]int{0, 0, 0}); err == nil {
		t.Error("zero-mass counts must be rejected")
	}
	if _, err := EmpiricalPhi([]int{0, -1, 2}); err == nil {
		t.Error("negative counts must be rejected")
	}
}

func TestPhiEntropy(t *testing.T) {
	if got := PhiEntropy(UniformPhi(20)); math.Abs(got-1) > 1e-12 {
		t.Errorf("uniform entropy = %g, want 1", got)
	}
	point, err := EmpiricalPhi([]int{0, 10, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := PhiEntropy(point); got != 0 {
		t.Errorf("point-mass entropy = %g, want 0", got)
	}
	sk, err := GeometricPhi(20, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if e := PhiEntropy(sk); e <= 0 || e >= 1 {
		t.Errorf("skewed entropy = %g, want in (0,1)", e)
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams(40)
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	cases := []func(*Params){
		func(p *Params) { p.B = 0 },
		func(p *Params) { p.K = 0 },
		func(p *Params) { p.S = 0 },
		func(p *Params) { p.PInit = -0.1 },
		func(p *Params) { p.Alpha = 1.2 },
		func(p *Params) { p.Gamma = math.NaN() },
		func(p *Params) { p.PR = 2 },
		func(p *Params) { p.PN = -1 },
		func(p *Params) { p.Phi = nil },
		func(p *Params) { p.Phi = UniformPhi(5) }, // B mismatch
	}
	for i, mutate := range cases {
		p := DefaultParams(40)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestAlphaFromSwarm(t *testing.T) {
	// α = λws/N
	if got := AlphaFromSwarm(2, 0.5, 40, 1000); math.Abs(got-0.04) > 1e-12 {
		t.Errorf("alpha = %g, want 0.04", got)
	}
	if got := AlphaFromSwarm(100, 1, 50, 10); got != 1 {
		t.Errorf("alpha must clamp to 1, got %g", got)
	}
	if got := AlphaFromSwarm(-1, 1, 50, 10); got != 0 {
		t.Errorf("alpha must clamp to 0, got %g", got)
	}
	if got := AlphaFromSwarm(1, 1, 1, 0); got != 1 {
		t.Errorf("empty swarm alpha = %g, want 1", got)
	}
}
