// Package obs is the repository's runtime observability layer: an atomic
// metrics registry (counters, gauges, streaming histograms), a
// slog-based structured event logger with per-component scoping, a
// periodic JSONL metrics-snapshot emitter, and an HTTP debug endpoint
// (pprof + expvar + JSON metrics).
//
// The paper's whole methodology is measurement — Section 4.2 instruments
// a real BitTornado client — and this package is the corresponding layer
// for the reproduction's long-running processes: the DES kernel, the
// swarm simulator, the loopback client swarms, and the tracker. It is
// stdlib-only and safe for concurrent use.
//
// Metrics off is one idiom, and it lives here: a nil *Registry. Its
// Counter, Gauge and Histogram getters hand out working handles that are
// registered nowhere (a fresh one per call), and its Snapshot is
// empty. A holder therefore builds its handles once from
// whatever registry it was given and uses them unconditionally: disabled
// metrics cost the same atomic add as enabled ones and no branch. Only a
// caller that would fetch a handle per observation from a registry that
// may be nil should check first, since each fetch allocates.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically updated float64 level.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increases the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is a named collection of metrics. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is "metrics off"
// (see the package comment). All methods are safe for concurrent use; metric handles are get-or-create and stable, so hot
// paths should look a handle up once and cache it.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	return handle(r, name, func(r *Registry) map[string]*Counter { return r.counters })
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	return handle(r, name, func(r *Registry) map[string]*Gauge { return r.gauges })
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	return handle(r, name, func(r *Registry) map[string]*Histogram { return r.hists })
}

// handle is the one get-or-create behind Counter, Gauge and Histogram.
// On a nil registry it is the whole of "metrics off": a fresh working
// handle that nothing else can reach.
func handle[T any](r *Registry, name string, table func(*Registry) map[string]*T) *T {
	if r == nil {
		return new(T)
	}
	r.mu.RLock()
	h, ok := table(r)[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = table(r)[name]; ok {
		return h
	}
	h = new(T)
	table(r)[name] = h
	return h
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every metric. Values are read
// atomically per metric; the snapshot as a whole is not a transaction.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = sanitize(g.Value())
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// sanitize maps NaN/Inf (not representable in JSON) to 0.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
