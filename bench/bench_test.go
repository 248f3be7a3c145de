package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/obs/trace"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// A percentile is printed only if at least ten samples lie beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990, ten beyond
		{999, 0.99, false}, // rank 990, nine beyond
		{200, 0.95, true},
		{199, 0.95, false},
		{20, 0.50, true},
		{19, 0.50, false},
		{0, 0.50, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := tail(xs, 0.99); got != 0 {
		t.Errorf("tail of 999 samples at 0.99 = %g, want 0 (not printed)", got)
	}
	if got := tail(xs, 0.95); got != 949 {
		t.Errorf("tail of 999 samples at 0.95 = %g, want 949", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %g, %g, want 1.5, 12", q1, q3)
	}
	s := spreadOf([]float64{1, 2, 4, 8, 16})
	if s.min != 1 || s.max != 16 || math.Abs(s.iqrShare-10.5/4) > 1e-12 {
		t.Errorf("spreadOf = %+v, want min 1 max 16 iqr/median 2.625", s)
	}
}

// span builds a SpanData with times in microseconds.
func span(id, parent, name string, start, dur int64) trace.SpanData {
	return trace.SpanData{Trace: "t", ID: id, Parent: parent, Name: name, StartUS: start, DurUS: dur}
}

func attributed(t *testing.T, spans []trace.SpanData) (self, total map[string]float64) {
	t.Helper()
	roots := forest(spans, benchSpan)
	if len(roots) != 1 {
		t.Fatalf("forest has %d roots, want 1", len(roots))
	}
	self, total = map[string]float64{}, map[string]float64{}
	roots[0].attribute(1, self, total)
	return self, total
}

func TestSelfTimeNested(t *testing.T) {
	// client 0..100 > gateway 10..90 > upstream 20..80 > replica 30..60,
	// with a program span ("forward") between gateway and upstream that
	// the benchmark skips over.
	self, total := attributed(t, []trace.SpanData{
		span("c", "", spanClient, 0, 100),
		span("g", "c", spanGateway, 10, 80),
		span("f", "g", "forward", 15, 70),
		span("u", "f", spanUpstream, 20, 60),
		span("r", "u", spanReplica, 30, 30),
	})
	want := map[string]float64{spanClient: 20, spanGateway: 20, spanUpstream: 30, spanReplica: 30}
	sum := 0.0
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %g, want %g", name, self[name], w)
		}
		sum += self[name]
	}
	if sum != 100 || total[spanUpstream] != 60 {
		t.Errorf("shares sum to %g (want 100), total under upstream %g (want 60)", sum, total[spanUpstream])
	}
	if _, ok := self["forward"]; ok {
		t.Error("a program span was attributed; only the benchmark's own are kept")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Children 10..50 and 30..70 cover 10..70 of a 0..100 parent once,
	// not 80: the parent's self time is 40. A child reaching past its
	// parent is clipped.
	n := &spanNode{name: "p", start: 0, end: 100, children: []*spanNode{
		{name: "a", start: 10, end: 50},
		{name: "b", start: 30, end: 70},
	}}
	if n.covered() != 60 || n.self() != 40 {
		t.Errorf("covered %d self %d, want 60 and 40", n.covered(), n.self())
	}
	n.children = append(n.children, &spanNode{name: "c", start: 90, end: 130})
	if n.covered() != 70 || n.self() != 30 {
		t.Errorf("with a clipped child: covered %d self %d, want 70 and 30", n.covered(), n.self())
	}
}

func TestSelfTimeParallelChildren(t *testing.T) {
	// Two sub-requests run side by side for the same 40 µs: each gets
	// half of the interval they cover, so the tree still sums to the
	// root's 100 µs.
	self, _ := attributed(t, []trace.SpanData{
		span("c", "", spanClient, 0, 100),
		span("g", "c", spanGateway, 10, 80),
		span("u1", "g", spanUpstream, 20, 40),
		span("u2", "g", spanUpstream, 20, 40),
		span("r1", "u1", spanReplica, 25, 30),
		span("r2", "u2", spanReplica, 25, 30),
	})
	if self[spanClient] != 20 || self[spanGateway] != 40 || self[spanUpstream] != 10 || self[spanReplica] != 30 {
		t.Errorf("shares %v, want client 20 gateway 40 upstream 10 replica 30", self)
	}
}

func TestForestDropsCutTraces(t *testing.T) {
	// A trace with two kept roots lost its client span to the window edge.
	roots := forest([]trace.SpanData{
		span("g", "gone", spanGateway, 0, 10),
		span("r", "gone2", spanReplica, 0, 5),
	}, benchSpan)
	if len(roots) != 0 {
		t.Errorf("forest kept %d roots of a cut trace, want 0", len(roots))
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsEmitTheCatalogue runs all seven workloads at 50 ms
// windows, traced, and checks what BENCHMARK.json promises: every
// (metric, workload) it names is emitted once, with the unit it names,
// and nothing fails.
func TestWorkloadsEmitTheCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var bm struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) || len(bm.EndToEnd) != len(endToEnd) || len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics; the catalogue has %d, %d, %d",
			len(bm.Workloads), len(bm.EndToEnd), len(bm.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]def{}, bm.EndToEnd...), bm.PerLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}

	if err := loadReference(); err != nil {
		t.Fatal(err)
	}
	saved := scale
	defer func() { scale = saved }()
	scale.keysPerKind, scale.distinctBatches = 8, 2
	scale.setupReps, scale.setupRepsMax = 1, 1
	scale.simHorizon = shortSimHorizon
	scale.probeBudget = time.Millisecond

	opts := options{seed: 1, seconds: 0.25, traced: true}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the catalogue's is %q (or their reasons differ)", i, bm.Workloads[i].Name, w.name)
		}
		minWindows := w.minWindows
		w.minWindows = 1
		res, err := opts.measure(w)
		w.minWindows = minWindows
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || res.ops < 1 {
			t.Errorf("%s: %d ops, %d failed", w.name, res.ops, res.failed)
		}
		for _, c := range []struct {
			layers bool
			defs   []def
		}{{false, bm.EndToEnd}, {true, bm.PerLayer}} {
			var line struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.jsonLine(c.layers)), &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(c.defs) {
				t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", w.name, len(line.Metrics), len(c.defs))
			}
			for _, d := range c.defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
					t.Errorf("%s: %s emitted %v as %+v, want unit %q", w.name, d.Name, ok, m, d.Unit)
				}
				if !c.layers && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %g, must never be 0", w.name, d.Name, m.Value)
				}
			}
		}
	}
}
