package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestEntropy(t *testing.T) {
	cases := []struct {
		degrees []int
		want    float64
	}{
		{[]int{5, 5, 5}, 1},
		{[]int{1, 2, 4}, 0.25},
		{[]int{0, 10}, 0},
		{[]int{7}, 1},
		{nil, 0},
		{[]int{0, 0}, 0},
	}
	for _, c := range cases {
		if got := Entropy(c.degrees); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Entropy(%v) = %g, want %g", c.degrees, got, c.want)
		}
	}
}

func TestEntropyBoundsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		degrees := make([]int, len(raw))
		for i, v := range raw {
			degrees[i] = int(v)
		}
		e := Entropy(degrees)
		return e >= 0 && e <= 1 && !math.IsNaN(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAssessStability(t *testing.T) {
	times := []float64{0, 1, 2, 3, 4}
	up := []float64{0.2, 0.4, 0.6, 0.8, 0.95}
	down := []float64{0.9, 0.7, 0.5, 0.3, 0.1}

	a, err := AssessStability(times, up)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Stable || a.Trend <= 0 {
		t.Errorf("rising entropy must assess stable: %+v", a)
	}

	a, err = AssessStability(times, down)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stable || a.Trend >= 0 {
		t.Errorf("decaying entropy must assess unstable: %+v", a)
	}

	if _, err := AssessStability([]float64{1}, []float64{1}); !errors.Is(err, ErrShortSeries) {
		t.Errorf("short series: got %v", err)
	}
	if _, err := AssessStability(times, up[:3]); !errors.Is(err, ErrShortSeries) {
		t.Errorf("length mismatch: got %v", err)
	}
}

func TestAssessStabilitySteadyHigh(t *testing.T) {
	// Entropy hovering near 1 with zero trend is stable.
	times := []float64{0, 1, 2, 3}
	flat := []float64{0.97, 0.96, 0.97, 0.96}
	a, err := AssessStability(times, flat)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Stable {
		t.Errorf("flat-high entropy must be stable: %+v", a)
	}
}

func TestPhaseWaits(t *testing.T) {
	p := testParams()
	if got := ExpectedBootstrapWait(p); math.Abs(got-5) > 1e-12 {
		t.Errorf("bootstrap wait = %g, want 5", got)
	}
	if got := ExpectedLastPhaseWait(p); math.Abs(got-1/0.3) > 1e-12 {
		t.Errorf("last wait = %g, want %g", got, 1/0.3)
	}
	p.Alpha = 0
	if !math.IsInf(ExpectedBootstrapWait(p), 1) {
		t.Error("alpha = 0 wait must be +Inf")
	}
}

func TestClassifyPhases(t *testing.T) {
	p := testParams()
	traj := Trajectory{
		{},                  // join
		{N: 0, B: 1, I: 0},  // bootstrap wait
		{N: 0, B: 1, I: 0},  // bootstrap wait
		{N: 0, B: 1, I: 1},  // escapes: efficient
		{N: 2, B: 1, I: 3},  // efficient
		{N: 2, B: 3, I: 4},  // efficient
		{N: 0, B: 5, I: 0},  // last-phase wait
		{N: 0, B: 5, I: 0},  // last-phase wait
		{N: 1, B: 5, I: 1},  // efficient again
		{N: 0, B: 20, I: 0}, // completion step (i=0 but b=B)
	}
	pb := ClassifyPhases(p, traj)
	if pb.Bootstrap != 2 {
		t.Errorf("bootstrap = %d, want 2", pb.Bootstrap)
	}
	if pb.Last != 2 {
		t.Errorf("last = %d, want 2", pb.Last)
	}
	if pb.Efficient != 5 {
		t.Errorf("efficient = %d, want 5", pb.Efficient)
	}
}

func TestPhaseSummaryAggregation(t *testing.T) {
	var acc phaseAccumulator
	acc.add(PhaseBreakdown{Bootstrap: 4, Efficient: 10, Last: 0})
	acc.add(PhaseBreakdown{Bootstrap: 1, Efficient: 10, Last: 6})
	s := acc.summary(2)
	if s.Runs != 2 {
		t.Errorf("runs = %d", s.Runs)
	}
	if s.MeanBootstrap != 2.5 || s.MeanLast != 3 {
		t.Errorf("means = %g/%g", s.MeanBootstrap, s.MeanLast)
	}
	if s.FracStuckBootstrap != 0.5 {
		t.Errorf("stuck frac = %g, want 0.5", s.FracStuckBootstrap)
	}
	if s.FracLastPhase != 0.5 {
		t.Errorf("last frac = %g, want 0.5", s.FracLastPhase)
	}
	var empty phaseAccumulator
	if empty.summary(0) != (PhaseSummary{}) {
		t.Error("empty accumulator must produce zero summary")
	}
}
