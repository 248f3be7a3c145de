package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestLogChoose(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1},
		{5, 0, 1},
		{5, 5, 1},
		{5, 2, 10},
		{10, 3, 120},
		{52, 5, 2598960},
	}
	for _, c := range cases {
		got := math.Exp(LogChoose(c.n, c.k))
		if !almostEqual(got, c.want, c.want*1e-9) {
			t.Errorf("C(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
	if !math.IsInf(LogChoose(5, 6), -1) {
		t.Error("C(5,6) should be log-zero")
	}
	if !math.IsInf(LogChoose(5, -1), -1) {
		t.Error("C(5,-1) should be log-zero")
	}
}

func TestLogChoosePascalProperty(t *testing.T) {
	// C(n,k) = C(n-1,k-1) + C(n-1,k) for 1 <= k <= n-1.
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%60) + 2
		k := int(kRaw)%(n-1) + 1
		lhs := math.Exp(LogChoose(n, k))
		rhs := math.Exp(LogChoose(n-1, k-1)) + math.Exp(LogChoose(n-1, k))
		return almostEqual(lhs, rhs, rhs*1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChooseRatio(t *testing.T) {
	// C(4,2)/C(6,2) = 6/15 = 0.4
	if got := ChooseRatio(4, 6, 2); !almostEqual(got, 0.4, 1e-12) {
		t.Errorf("ChooseRatio(4,6,2) = %g, want 0.4", got)
	}
	if got := ChooseRatio(1, 6, 2); got != 0 {
		t.Errorf("ChooseRatio(1,6,2) = %g, want 0", got)
	}
	// Large arguments must not overflow.
	if got := ChooseRatio(150, 200, 100); got <= 0 || got >= 1 {
		t.Errorf("ChooseRatio(150,200,100) = %g, want in (0,1)", got)
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	f := func(nRaw uint8, pRaw uint16) bool {
		n := int(nRaw % 80)
		p := float64(pRaw) / 65535
		b := Binomial{N: n, P: p}
		sum := 0.0
		for k := 0; k <= n; k++ {
			sum += b.PMF(k)
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBinomialPMFTableBitEqualsPMF pins the table kernel to the scalar
// one: hoisting the logarithms and sharing the Lgamma row must not move
// a single bit, or every transition table in core — and every golden
// sampled from them — moves with it.
func TestBinomialPMFTableBitEqualsPMF(t *testing.T) {
	ps := []float64{0, 1, 1e-9, 0.9999, 0.5, 0.1, 0.3, 0.8, 0.9, 1 - 1e-12, math.SmallestNonzeroFloat64}
	for i := 1; i < 64; i++ {
		ps = append(ps, float64(i)/64)
	}
	for n := 0; n <= 60; n++ {
		row := LogChooseRow(n)
		for k := 0; k <= n; k++ {
			if math.Float64bits(row[k]) != math.Float64bits(LogChoose(n, k)) {
				t.Fatalf("LogChooseRow(%d)[%d] = %v, LogChoose = %v", n, k, row[k], LogChoose(n, k))
			}
		}
		for _, p := range ps {
			b := Binomial{N: n, P: p}
			table := b.PMFTable()
			if len(table) != n+1 {
				t.Fatalf("N=%d P=%g: table has %d entries", n, p, len(table))
			}
			for k, got := range table {
				if want := b.PMF(k); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("N=%d P=%g: PMFTable()[%d] = %v, PMF = %v", n, p, k, got, want)
				}
			}
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	if (Binomial{N: 10, P: 0}).PMF(0) != 1 {
		t.Error("P=0 PMF(0) must be 1")
	}
	if (Binomial{N: 10, P: 1}).PMF(10) != 1 {
		t.Error("P=1 PMF(N) must be 1")
	}
}

func TestExponentialSampling(t *testing.T) {
	e := Exponential{Rate: 2}
	r := NewRNG(9, 10)
	var acc Accumulator
	for i := 0; i < 30000; i++ {
		x := e.Sample(r)
		if x < 0 {
			t.Fatal("exponential sample must be non-negative")
		}
		acc.Add(x)
	}
	if !almostEqual(acc.Mean(), 0.5, 0.01) {
		t.Errorf("Exponential(2) sample mean %g, want ~0.5", acc.Mean())
	}
}
