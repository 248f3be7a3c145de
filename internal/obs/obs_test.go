package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.hits")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.hits") != c {
		t.Fatal("Counter not get-or-create stable")
	}
	g := r.Gauge("a.level")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
	if r.Gauge("a.level") != g {
		t.Fatal("Gauge not get-or-create stable")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared").Inc()
				r.Gauge("level").Set(float64(i))
				r.Histogram("lat").Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*iters {
		t.Fatalf("shared counter = %d, want %d", got, workers*iters)
	}
	hs := r.Histogram("lat").Snapshot()
	if hs.Count != workers*iters {
		t.Fatalf("histogram count = %d, want %d", hs.Count, workers*iters)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Min != 0 || s.Max != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.Min != 1 || s.Max != 100 {
		t.Fatalf("min/max = %g/%g, want 1/100", s.Min, s.Max)
	}
	if want := 5050.0; math.Abs(s.Sum-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", s.Sum, want)
	}
	// Power-of-two buckets: quantiles are right within a factor sqrt(2),
	// and clamped to [min, max].
	if s.P50 < 25 || s.P50 > 100 {
		t.Fatalf("p50 = %g out of coarse range", s.P50)
	}
	if s.P99 < s.P50 || s.P99 > s.Max {
		t.Fatalf("p99 = %g not in [p50=%g, max=%g]", s.P99, s.P50, s.Max)
	}
	if s.P95 < s.P90 || s.P95 > s.P99 {
		t.Fatalf("p95 = %g not in [p90=%g, p99=%g]", s.P95, s.P90, s.P99)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5) // clamped to 0
	h.Observe(2)
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Min != 0 {
		t.Fatalf("min = %g, want 0 (observed zero must not be lost)", s.Min)
	}
	if s.Max != 2 {
		t.Fatalf("max = %g, want 2", s.Max)
	}
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	if got := h.Snapshot().Count; got != 3 {
		t.Fatalf("non-finite observations counted: %d", got)
	}
}

func TestSnapshotSanitizesGauges(t *testing.T) {
	r := NewRegistry()
	r.Gauge("bad").Set(math.NaN())
	snap := r.Snapshot()
	if v := snap.Gauges["bad"]; v != 0 {
		t.Fatalf("NaN gauge leaked into snapshot: %v", v)
	}
}

// TestCounterNamesSorted: a snapshot's JSON, what /metrics serves,
// lists the counters by name in sorted order, whatever order they were
// registered in.
func TestCounterNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b")
	r.Counter("a").Inc()
	r.Counter("c")
	b, err := json.Marshal(r.Snapshot().Counters)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(b), `{"a":1,"b":0,"c":0}`; got != want {
		t.Fatalf("counters = %s, want %s", got, want)
	}
}

// TestNilRegistryHandsOutDetachedHandles pins "metrics off": a nil
// registry's getters return working handles, a fresh one per call even for
// one name, and nothing they count shows up in any snapshot.
func TestNilRegistryHandsOutDetachedHandles(t *testing.T) {
	var off *Registry
	c1, c2 := off.Counter("n"), off.Counter("n")
	g1, g2 := off.Gauge("n"), off.Gauge("n")
	h1, h2 := off.Histogram("n"), off.Histogram("n")
	if c1 == c2 || g1 == g2 || h1 == h2 {
		t.Fatal("nil-registry handles must be distinct per call")
	}
	c1.Add(3)
	g1.Set(2.5)
	h1.Observe(1)
	if c1.Value() != 3 || g1.Value() != 2.5 || h1.Snapshot().Count != 1 {
		t.Error("nil-registry handles must work")
	}
	if c2.Value() != 0 || g2.Value() != 0 || h2.Snapshot().Count != 0 {
		t.Error("nil-registry handles must not share state")
	}
	if s := off.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot = %+v, want empty", s)
	}
	on := NewRegistry()
	on.Counter("n").Inc()
	if got := on.Snapshot().Counters["n"]; got != 1 {
		t.Errorf("a real registry saw %d for a name also used detached, want 1", got)
	}
}
