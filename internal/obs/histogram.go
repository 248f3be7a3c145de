package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two histogram buckets. Bucket i
// covers values in [2^(i-histBias), 2^(i-histBias+1)); the range spans
// roughly 2^-32 (sub-nanosecond, as seconds) to 2^31 (decades).
const (
	histBuckets = 64
	histBias    = 32
)

// Histogram is a streaming, lock-free histogram over non-negative
// float64 observations (latencies in seconds, sizes in bytes, ...).
// Negative observations are clamped to zero. Buckets are power-of-two
// wide, and a quantile estimate always lies in the same bucket as the
// exact nearest-rank quantile of the observations, so for values inside
// the bucket range the two differ by a ratio in (½, 2) — plenty for the
// "did announce latency regress 10x" questions this layer answers, too
// coarse to gate an SLO on. The zero value is ready to use.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	// minEnc/maxEnc hold Float64bits(v)+1 so the zero value (no
	// observation yet) is distinguishable from an observed 0.0. For
	// non-negative floats the bit pattern is order-preserving, so the
	// encoded comparisons match the float comparisons.
	minEnc  atomic.Uint64
	maxEnc  atomic.Uint64
	buckets [histBuckets]atomic.Int64
	// sums[i] accumulates the raw values landing in bucket i (float64
	// bits, CAS-updated like sumBits). Quantiles report the
	// bucket-conditional mean instead of a geometric midpoint guess: when
	// every observation in the deciding bucket is the same value — the
	// common case for load-test SLO gates, where a quantile of a tight
	// latency mode must read back exactly — the estimate is exact, and it
	// is never outside the bucket's bounds otherwise.
	sums [histBuckets]atomic.Uint64
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	i := math.Ilogb(v) + histBias
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketLower returns the lower bound of bucket i.
func bucketLower(i int) float64 { return math.Ldexp(1, i-histBias) }

// Observe records one value. Non-finite values are ignored; negative
// values are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if v < 0 {
		v = 0
	}
	b := bucketIndex(v)
	h.buckets[b].Add(1)
	addBits(&h.sums[b], v)
	addBits(&h.sumBits, v)
	enc := math.Float64bits(v) + 1
	casExtreme(&h.minEnc, enc, func(cur uint64) bool { return enc < cur })
	casExtreme(&h.maxEnc, enc, func(cur uint64) bool { return enc > cur })
	// count is incremented last so a concurrent Snapshot never sees a
	// count exceeding the bucket totals.
	h.count.Add(1)
}

// Ms is d in fractional milliseconds: what every *_ms histogram
// observes. time.Duration.Milliseconds truncates, which reads every
// sub-millisecond shard, cache hit and forward as 0.
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// addBits adds v to a float64-bits accumulator cell with a CAS loop.
func addBits(cell *atomic.Uint64, v float64) {
	for {
		old := cell.Load()
		if cell.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// casExtreme updates an encoded extreme cell to enc when the cell is
// unclaimed (0) or better(cur) holds.
func casExtreme(cell *atomic.Uint64, enc uint64, better func(uint64) bool) {
	for {
		old := cell.Load()
		if old != 0 && !better(old) {
			return
		}
		if cell.CompareAndSwap(old, enc) {
			return
		}
	}
}

// decodeExtreme reverses the Float64bits(v)+1 encoding; 0 means "no
// observation" and decodes to 0.
func decodeExtreme(enc uint64) float64 {
	if enc == 0 {
		return 0
	}
	return math.Float64frombits(enc - 1)
}

// HistogramSnapshot is a JSON-friendly summary of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the current state. Quantiles are estimated from
// the bucket distribution (the deciding bucket's conditional mean,
// clamped to the observed min/max).
func (h *Histogram) Snapshot() HistogramSnapshot {
	n := h.count.Load()
	if n == 0 {
		return HistogramSnapshot{}
	}
	var counts [histBuckets]int64
	var sums [histBuckets]float64
	total := int64(0)
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		sums[i] = math.Float64frombits(h.sums[i].Load())
		total += counts[i]
	}
	if total < n {
		n = total // racing Observe: trust the buckets we actually read
	}
	s := HistogramSnapshot{
		Count: n,
		Sum:   sanitize(math.Float64frombits(h.sumBits.Load())),
		Min:   sanitize(decodeExtreme(h.minEnc.Load())),
		Max:   sanitize(decodeExtreme(h.maxEnc.Load())),
	}
	if n > 0 {
		s.Mean = s.Sum / float64(n)
	}
	s.P50 = h.quantile(counts[:], sums[:], n, 0.50, s.Min, s.Max)
	s.P90 = h.quantile(counts[:], sums[:], n, 0.90, s.Min, s.Max)
	s.P95 = h.quantile(counts[:], sums[:], n, 0.95, s.Min, s.Max)
	s.P99 = h.quantile(counts[:], sums[:], n, 0.99, s.Min, s.Max)
	return s
}

// quantile estimates the q-th quantile from bucket counts. The estimate
// is the deciding bucket's conditional mean (its sum over its count)
// clamped to the bucket bounds and then to the observed [min, max]:
// exact whenever the bucket's observations are identical, within the
// bucket's width otherwise, and monotone across quantile levels because
// bucket means are ordered by the disjoint ascending bucket ranges.
func (h *Histogram) quantile(counts []int64, sums []float64, n int64, q, lo, hi float64) float64 {
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	seen := int64(0)
	for i, c := range counts {
		seen += c
		if seen >= rank {
			est := sums[i] / float64(c)
			// Clamp to the bucket: a racing Observe can momentarily leave
			// sum and count inconsistent, and the fallback for a degenerate
			// mean is the geometric midpoint. The first and last buckets
			// also catch clamped underflow/overflow, so their bounds widen
			// to what they actually absorb.
			blo, bhi := bucketLower(i), bucketLower(i+1)
			if i == 0 {
				blo = 0
			}
			if i == len(counts)-1 {
				bhi = math.Inf(1)
			}
			if math.IsNaN(est) || est < blo || est >= bhi {
				est = bucketLower(i) * math.Sqrt2
			}
			if est < lo {
				est = lo
			}
			if hi > 0 && est > hi {
				est = hi
			}
			return sanitize(est)
		}
	}
	return sanitize(hi)
}
