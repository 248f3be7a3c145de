package markov

import (
	"math"
	"testing"
)

func TestExpectedVisitsGeometric(t *testing.T) {
	// 0 self-loops with prob 1-p and escapes to absorbing 1 with prob p:
	// expected visits to 0 is 1/p.
	for _, p := range []float64{0.1, 0.5, 0.9} {
		c := twoState(t, p)
		v, err := c.ExpectedVisits(0, 1e-12, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v[0]-1/p) > 1e-6 {
			t.Errorf("p=%g: visits %g, want %g", p, v[0], 1/p)
		}
		if v[1] != 0 {
			t.Error("absorbing state must report 0 visits")
		}
	}
}

func TestExpectedVisitsChain(t *testing.T) {
	// 0 -> 1 -> 2 (absorbing), each deterministic: one visit each.
	b := NewBuilder(3)
	_ = b.Add(0, 1, 1)
	_ = b.Add(1, 2, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.ExpectedVisits(0, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[0]-1) > 1e-9 || math.Abs(v[1]-1) > 1e-9 {
		t.Errorf("visits = %v, want [1 1 0]", v)
	}
	// Starting from 1: state 0 never visited.
	v1, err := c.ExpectedVisits(1, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if v1[0] != 0 || math.Abs(v1[1]-1) > 1e-9 {
		t.Errorf("visits from 1 = %v", v1)
	}
}

func TestExpectedVisitsMatchesAbsorptionTime(t *testing.T) {
	// Sum of expected visits over transient states equals the expected
	// absorption time (each step is one visit).
	b := NewBuilder(4)
	_ = b.Add(0, 0, 0.3)
	_ = b.Add(0, 1, 0.5)
	_ = b.Add(0, 2, 0.2)
	_ = b.Add(1, 0, 0.25)
	_ = b.Add(1, 2, 0.5)
	_ = b.Add(1, 3, 0.25)
	_ = b.Add(2, 3, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	times, err := c.AbsorptionTime(1e-12, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.ExpectedVisits(0, 1e-12, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sum := v[0] + v[1] + v[2]
	if math.Abs(sum-times[0]) > 1e-6 {
		t.Errorf("visit sum %g != absorption time %g", sum, times[0])
	}
}

func TestExpectedVisitsFromAbsorbing(t *testing.T) {
	c := twoState(t, 0.5)
	v, err := c.ExpectedVisits(1, 1e-12, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range v {
		if x != 0 {
			t.Error("visits from an absorbing start must be all zero")
		}
	}
	if _, err := c.ExpectedVisits(7, 1e-9, 10); err == nil {
		t.Error("bad start must error")
	}
}

func TestExpectedVisitsNoAbsorbing(t *testing.T) {
	b := NewBuilder(2)
	_ = b.Add(0, 1, 1)
	_ = b.Add(1, 0, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExpectedVisits(0, 1e-9, 100); err == nil {
		t.Error("no absorbing states must error")
	}
}
