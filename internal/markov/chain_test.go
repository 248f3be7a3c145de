package markov

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// twoState builds the chain 0 -(p)-> 1, 0 -(1-p)-> 0; 1 absorbing.
func twoState(t *testing.T, p float64) *Chain {
	t.Helper()
	b := NewBuilder(2)
	if err := b.Add(0, 1, p); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(0, 0, 1-p); err != nil {
		t.Fatal(err)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder(2)
	if err := b.Add(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); !errors.Is(err, ErrNotStochastic) {
		t.Errorf("underweight row: got %v, want ErrNotStochastic", err)
	}

	b2 := NewBuilder(2)
	if err := b2.Add(0, 5, 1); !errors.Is(err, ErrBadState) {
		t.Errorf("out of range: got %v, want ErrBadState", err)
	}
	if err := b2.Add(0, 1, -0.1); err == nil {
		t.Error("negative probability must be rejected")
	}
	if err := b2.Add(0, 1, math.NaN()); err == nil {
		t.Error("NaN probability must be rejected")
	}
}

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(2)
	_ = b.Add(0, 1, 0.3)
	_ = b.Add(0, 1, 0.3)
	_ = b.Add(0, 0, 0.4)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	row := c.rows[0]
	if len(row) != 2 {
		t.Fatalf("row has %d entries, want 2 (merged)", len(row))
	}
	// Merged in target order, whatever order the entries were added in.
	if row[0].To != 0 || row[1].To != 1 || math.Abs(row[1].P-0.6) > 1e-15 {
		t.Errorf("row = %+v, want [{0 0.4} {1 0.6}]", row)
	}
}

func TestEmptyRowIsAbsorbing(t *testing.T) {
	b := NewBuilder(3)
	_ = b.Add(0, 1, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsAbsorbing(1) || !c.IsAbsorbing(2) {
		t.Error("empty rows must be absorbing")
	}
	if c.IsAbsorbing(0) {
		t.Error("state 0 is not absorbing")
	}
}

func TestStepConservesMass(t *testing.T) {
	c := twoState(t, 0.25)
	dist := []float64{1, 0}
	for i := 0; i < 10; i++ {
		dist = c.Step(dist)
		sum := dist[0] + dist[1]
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("mass leaked at step %d: %g", i, sum)
		}
	}
	// Geometric absorption: Pr(still in 0 after n steps) = 0.75^n.
	want := math.Pow(0.75, 10)
	if math.Abs(dist[0]-want) > 1e-12 {
		t.Errorf("dist[0] = %g, want %g", dist[0], want)
	}
}

func TestEvolveObserve(t *testing.T) {
	c := twoState(t, 0.5)
	var steps []int
	c.Evolve([]float64{1, 0}, 3, func(s int, d []float64) {
		steps = append(steps, s)
	})
	if len(steps) != 3 || steps[0] != 1 || steps[2] != 3 {
		t.Errorf("observe steps = %v", steps)
	}
}

func TestAbsorptionTimeGeometric(t *testing.T) {
	// Expected steps to absorb from 0 with escape prob p is 1/p.
	for _, p := range []float64{0.1, 0.5, 0.9} {
		c := twoState(t, p)
		tm, err := c.AbsorptionTime(1e-12, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tm[0]-1/p) > 1e-6 {
			t.Errorf("p=%g: absorption time %g, want %g", p, tm[0], 1/p)
		}
		if tm[1] != 0 {
			t.Error("absorbing state must report 0")
		}
	}
}

func TestAbsorptionTimeChainOfStates(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 deterministic: times are 3, 2, 1, 0.
	b := NewBuilder(4)
	for i := 0; i < 3; i++ {
		_ = b.Add(i, i+1, 1)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tm, err := c.AbsorptionTime(1e-12, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{3, 2, 1, 0} {
		if math.Abs(tm[i]-want) > 1e-9 {
			t.Errorf("t[%d] = %g, want %g", i, tm[i], want)
		}
	}
}

func TestAbsorptionTimeNoAbsorbing(t *testing.T) {
	b := NewBuilder(2)
	_ = b.Add(0, 1, 1)
	_ = b.Add(1, 0, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AbsorptionTime(1e-9, 100); err == nil {
		t.Error("chain without absorbing states must error")
	}
}

func TestRowsAreStochasticProperty(t *testing.T) {
	// Random chains built from random masses, normalized, must pass Build
	// and conserve mass under Step.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%8) + 2
		r := stats.NewRNG(seed, seed^0xabcdef)
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			weights := make([]float64, n)
			sum := 0.0
			for j := range weights {
				weights[j] = r.Float64()
				sum += weights[j]
			}
			for j := range weights {
				if err := b.Add(i, j, weights[j]/sum); err != nil {
					return false
				}
			}
		}
		c, err := b.Build()
		if err != nil {
			return false
		}
		dist := make([]float64, n)
		dist[0] = 1
		dist = c.Evolve(dist, 5, nil)
		total := 0.0
		for _, p := range dist {
			total += p
		}
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
