package stats

import (
	"math"
	"testing"
)

func TestSeriesAppendOrdering(t *testing.T) {
	s := NewSeries(2)
	if err := s.Append(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, 11); err != nil { // equal times allowed
		t.Fatal(err)
	}
	if err := s.Append(0.5, 12); err == nil {
		t.Error("time going backwards must be rejected")
	}
}

func TestSeriesLast(t *testing.T) {
	s := NewSeries(0)
	if tt, v := s.Last(); !math.IsNaN(tt) || !math.IsNaN(v) {
		t.Error("Last of empty must be NaN, NaN")
	}
	_ = s.Append(3, 4)
	if tt, v := s.Last(); tt != 3 || v != 4 {
		t.Errorf("Last = (%g, %g), want (3, 4)", tt, v)
	}
}

func TestGrid(t *testing.T) {
	g := Grid(0, 1, 4)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(g) != len(want) {
		t.Fatalf("grid len %d, want %d", len(g), len(want))
	}
	for i := range want {
		if !almostEqual(g[i], want[i], 1e-12) {
			t.Errorf("grid[%d] = %g, want %g", i, g[i], want[i])
		}
	}
}
