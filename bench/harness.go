package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"
)

// scale holds the sizes the test suite shrinks so that all seven
// workloads run in a few seconds. A benchmark run never changes them.
var scale = struct {
	keysPerKind     int           // warm-corpus bodies per request kind (btload's -keys)
	distinctBatches int           // /v1/batch bodies serve_batch cycles through: 3 laps of the weighted corpus
	setupReps       int           // least number of timed set-ups
	setupRepsMax    int           // most, for set-ups that take microseconds
	simHorizon      float64       // sim_steady's virtual end time
	probeBudget     time.Duration // how long one timed probe repeats its function
}{64, 30, 3, 200, 150, 40 * time.Millisecond}

// measuredWindows is how many windows a time-boxed workload's measuring
// time is cut into; throughput is the median over them.
const measuredWindows = 5

// metric is one reported number.
type metric struct {
	value float64
	unit  string
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// instance is one set-up workload, ready to be measured.
type instance interface {
	// measure runs one window — about d of closed-loop load, or one
	// fixed unit of work when the workload has one — and returns the
	// operations completed, how many of them failed, and the host
	// seconds it took. It appends one latency sample (ms) per unit a
	// user waits for to lat.
	measure(d time.Duration, lat *[]float64) (ops, failed int64, secs float64)
	// verify runs the correctness checks that need the set-up state but
	// must not run inside a window, and returns checks made and failed.
	verify() (checked, failed int64)
	// layers adds the per-layer metrics a traced instance gathered in
	// its windows (spans, counts, registry counters).
	layers(out metrics)
	close()
}

// workload is one row of BENCHMARK.json's workloads.
type workload struct {
	name string
	why  string
	// op names the unit ops_per_s and alloc_kb_per_op count; wait names
	// the unit p50_ms times.
	op, wait string
	// fixedWork marks a workload whose window is a fixed amount of work
	// (a whole simulator run, a full figure pass), repeated until the
	// measuring time is used up but at least minWindows times.
	fixedWork  bool
	minWindows int
	// coldSetup marks a workload with no constructor to time: its set-up
	// time is its warm-up window, the first work it does in the process.
	coldSetup bool
	// wrapped marks a workload whose traced instance differs from the
	// untraced one (wrappers, a registry, an observer) and so needs its
	// own run. The others gather their layer metrics as they go.
	wrapped bool
	// setup builds an instance from the seed; tr is nil for the untraced
	// run. It is timed and repeated.
	setup func(seed uint64, tr *tracing) (instance, error)
	// probes times the layers' public functions over this workload's
	// inputs.
	probes func(seed uint64, out metrics) error
}

// result is everything one workload run reports.
type result struct {
	workload     string
	ops, failed  int64
	e2e          metrics
	layer        metrics
	rateSpread   spread // window-to-window steadiness of ops_per_s
	latencyCount int
	calibDrift   float64 // |after/before − 1| of the host calibration spin
}

// noisy reports whether the host calibration moved by more than a tenth
// across the workload: its numbers are printed, flagged, and should not
// be compared.
func (r *result) noisy() bool { return r.calibDrift > 0.10 }

// timedSetup builds the instance the way a user would, several times,
// and returns the last one with the median build time. Cheap set-ups
// are repeated more often so the median of a microsecond-scale
// constructor is still a steady number.
func timedSetup(w *workload, seed uint64, tr *tracing) (instance, float64, error) {
	const enough = 200 * time.Millisecond
	var times []float64
	var inst instance
	var total time.Duration
	for i := 0; i < scale.setupRepsMax && (i < scale.setupReps || total < enough); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed, tr); err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	return inst, median(times), nil
}

// run measures one workload: timed set-up, one discarded warm-up
// window, the measured windows, then the correctness checks. With tr
// non-nil the instance is built with the benchmark's wrappers and a
// registry attached, and the per-layer metrics are gathered too.
func run(w *workload, seed uint64, seconds float64, tr *tracing) (*result, error) {
	res := &result{workload: w.name, e2e: metrics{}, layer: metrics{}}
	inst, setupS, err := timedSetup(w, seed, tr)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	// Warm-up: a fixed unit of work once, or a fifth of a window's load.
	window := time.Duration(seconds / measuredWindows * float64(time.Second))
	var discard []float64
	_, warmFailed, warmSecs := inst.measure(window/5, &discard)
	res.failed += warmFailed
	if w.coldSetup {
		setupS = warmSecs
	}
	calibBefore := calibrate()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var lat, rates, heaps []float64
	var spent float64
	for i := 0; ; i++ {
		if w.fixedWork {
			// A traced run needs the spans of one unit, not a median.
			if (tr != nil || i >= w.minWindows) && i > 0 && spent+warmSecs > seconds {
				break
			}
		} else if i == measuredWindows {
			break
		}
		ops, failed, secs := inst.measure(window, &lat)
		res.ops += ops
		res.failed += failed
		spent += secs
		rates = append(rates, float64(ops)/secs)
		heaps = append(heaps, liveHeap(lat))
	}
	runtime.ReadMemStats(&ms1)
	calibAfter := calibrate()
	res.calibDrift = math.Abs(calibAfter/calibBefore - 1)

	sort.Float64s(lat)
	res.latencyCount = len(lat)
	res.e2e.set("setup_s", setupS, "s")
	res.e2e.set("ops_per_s", median(rates), "1/s")
	res.e2e.set("p50_ms", percentile(lat, 0.50), "ms")
	res.e2e.set("alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(max(res.ops, 1)), "KB")
	res.rateSpread = spreadOf(rates)
	res.layer.set("client.p95_ms", tail(lat, 0.95), "ms")
	res.layer.set("client.p99_ms", tail(lat, 0.99), "ms")

	res.e2e.set("live_heap_mb", slices.Min(heaps[len(heaps)/2:]), "MB")

	checked, bad := inst.verify()
	res.ops += checked
	res.failed += bad
	if tr != nil || !w.wrapped {
		inst.layers(res.layer)
	}
	res.layer.set("host.calib_ns", (calibBefore+calibAfter)/2, "ns")
	return res, nil
}

// liveHeap is what the set-up workload holds between windows, in MB:
// HeapAlloc after two collections (a sync.Pool keeps its contents
// through one) less the benchmark's own latency samples. It is taken
// after every window and the least of the later half reported: a few
// retained buffers — the coordinator's last payloads, say — come and go
// in lumps that are a tenth of a 2 MB heap, and the floor under them is
// what repeats; the earlier windows may still be filling caches.
func liveHeap(samples []float64) float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return (float64(ms.HeapAlloc) - float64(8*cap(samples))) / (1 << 20)
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibrate times a fixed arithmetic spin and returns nanoseconds per
// iteration (median of five short runs). It reads the machine, not the
// program: a set whose calibration moves across a workload ran on a
// host that changed under it.
func calibrate() float64 {
	const iters = 1 << 20
	var runs []float64
	for rep := 0; rep < 5; rep++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/iters)
		calibSink += x
	}
	return median(runs)
}
