package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistogramQuantileOrdering pins the quantile contract the btload
// SLO gate and /metrics both rely on: for any observation set the
// snapshot quantiles are ordered and bracketed by the observed extremes.
func TestHistogramQuantileOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		h := &Histogram{}
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			// Mix scales so observations straddle many buckets, including
			// sub-1.0 values and occasional zeros.
			v := math.Exp(rng.NormFloat64()*4) * 10
			if rng.Intn(20) == 0 {
				v = 0
			}
			h.Observe(v)
		}
		s := h.Snapshot()
		qs := []struct {
			name string
			v    float64
		}{
			{"min", s.Min}, {"p50", s.P50}, {"p90", s.P90},
			{"p95", s.P95}, {"p99", s.P99}, {"max", s.Max},
		}
		for i := 1; i < len(qs); i++ {
			if qs[i-1].v > qs[i].v {
				t.Fatalf("trial %d: %s = %g > %s = %g (snapshot %+v)",
					trial, qs[i-1].name, qs[i-1].v, qs[i].name, qs[i].v, s)
			}
		}
	}
}

// TestHistogramQuantileSharesBucketWithNearestRank is the bound the
// Histogram comment states: each snapshot quantile lies in the same
// power-of-two bucket as the exact nearest-rank quantile of a sorted
// copy of the samples, hence within a ratio of (½, 2) of it.
func TestHistogramQuantileSharesBucketWithNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	draw := []func() float64{
		func() float64 { return math.Exp(rng.NormFloat64()*3) * 5 },                // log-normal over many buckets
		func() float64 { return 1 + 999*rng.Float64() },                            // uniform over ten
		func() float64 { return []float64{0.4, 350}[rng.Intn(2)] + rng.Float64() }, // two distant modes
		func() float64 { return 64 * (1 + rng.Float64()*0.999) },                   // all inside one bucket
	}
	for trial := 0; trial < 400; trial++ {
		h := &Histogram{}
		samples := make([]float64, 1+rng.Intn(2000))
		for i := range samples {
			samples[i] = draw[trial%len(draw)]()
			h.Observe(samples[i])
		}
		sort.Float64s(samples)
		s := h.Snapshot()
		for _, q := range []struct {
			level float64
			got   float64
		}{{0.50, s.P50}, {0.90, s.P90}, {0.95, s.P95}, {0.99, s.P99}} {
			exact := samples[int(math.Ceil(q.level*float64(len(samples))))-1]
			if bucketIndex(q.got) != bucketIndex(exact) {
				t.Fatalf("trial %d (n=%d): p%g estimate %g is in bucket %d, nearest-rank %g in bucket %d",
					trial, len(samples), 100*q.level, q.got, bucketIndex(q.got), exact, bucketIndex(exact))
			}
			if r := q.got / exact; r <= 0.5 || r >= 2 {
				t.Fatalf("trial %d (n=%d): p%g estimate %g vs nearest-rank %g: ratio %g outside (1/2, 2)",
					trial, len(samples), 100*q.level, q.got, exact, r)
			}
		}
	}
}

// TestHistogramQuantileExact verifies the bucket-conditional-mean
// estimator is exact when the deciding bucket's observations are
// identical — the property that lets a load generator's SLO report and
// the server's /metrics snapshot agree on p50/p99 for a tight latency
// mode.
func TestHistogramQuantileExact(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		h := &Histogram{}
		for i := 0; i < 1000; i++ {
			h.Observe(3.25)
		}
		s := h.Snapshot()
		for name, got := range map[string]float64{"p50": s.P50, "p90": s.P90, "p95": s.P95, "p99": s.P99} {
			if got != 3.25 {
				t.Errorf("%s = %g, want exactly 3.25", name, got)
			}
		}
	})
	t.Run("bimodal", func(t *testing.T) {
		// 90% of observations at 3ms, 10% at 1000ms: p50 must read back
		// the fast mode exactly and p99 the slow mode exactly, because
		// each deciding bucket holds a single distinct value.
		h := &Histogram{}
		for i := 0; i < 90; i++ {
			h.Observe(3)
		}
		for i := 0; i < 10; i++ {
			h.Observe(1000)
		}
		s := h.Snapshot()
		if s.P50 != 3 {
			t.Errorf("p50 = %g, want exactly 3", s.P50)
		}
		if s.P99 != 1000 {
			t.Errorf("p99 = %g, want exactly 1000", s.P99)
		}
	})
	t.Run("bucket mean", func(t *testing.T) {
		// 4.0 and 6.0 share the [4, 8) bucket: the estimate is their
		// conditional mean, not a geometric midpoint guess.
		h := &Histogram{}
		for i := 0; i < 50; i++ {
			h.Observe(4)
			h.Observe(6)
		}
		if got := h.Snapshot().P50; got != 5 {
			t.Errorf("p50 = %g, want bucket mean 5", got)
		}
	})
	t.Run("zeros", func(t *testing.T) {
		h := &Histogram{}
		for i := 0; i < 10; i++ {
			h.Observe(0)
		}
		s := h.Snapshot()
		if s.P50 != 0 || s.P99 != 0 {
			t.Errorf("all-zero observations: p50 = %g, p99 = %g, want 0", s.P50, s.P99)
		}
	})
}
