// Command bench is the repository's benchmark: seven workloads over the
// model, the simulator and the serving stack, each measured from
// outside through public API, with correctness checks on every run.
// BENCHMARK.json at the repository root names what it reports;
// bench/README.md explains every metric.
//
//	go run ./bench -seed 1                  every workload, end-to-end metrics
//	go run ./bench -seed 1 -trace 1         plus the per-layer budget
//	go run ./bench -sets 2                  two sets, and whether they agree
//	go run ./bench -workload serve_hot -seed 3 -seconds 10 -trace 0
//	go run ./bench -write-reference         regenerate testdata/reference.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/obs/trace"
)

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and end with a one-line JSON result (default: all)")
		seed     = flag.Uint64("seed", 1, "drives every generated input: request seeds, corpus order, sim seeds")
		seconds  = flag.Float64("seconds", 15, "measuring time per workload")
		traced   = flag.Int("trace", 0, "1 adds a traced run per workload and prints the per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the traced windows' spans here as Chrome trace JSON")
		sets     = flag.Int("sets", 1, "run this many full sets back to back and check that they agree")
		writeRef = flag.Bool("write-reference", false, "record the outputs seen into "+referencePath+" instead of checking them")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *sets < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// At the default GOGC the stacks measured here, with 2 to 9 MB of live
	// heap, collect about 130 times a second, and the number of cycles a
	// window happens to hold, not the program, sets how much windows
	// differ (±10% against ±2.5%). An explicit GOGC is left alone.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
	writingRefer = *writeRef
	if !writingRefer {
		if err := loadReference(); err != nil {
			fatal(err)
		}
	}
	opts := options{seed: *seed, seconds: *seconds, traced: *traced == 1, traceOut: *traceOut}

	var failed int64
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		printEnvironment(os.Stdout, "start")
		res, err := opts.measure(w)
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout, w, opts.traced)
		printEnvironment(os.Stdout, "end")
		failed = res.failed
		fmt.Println(res.jsonLine(opts.traced))
	} else {
		var all [][]*result
		for set := 1; set <= *sets; set++ {
			fmt.Printf("== set %d of %d, seed %d ==\n", set, *sets, *seed)
			printEnvironment(os.Stdout, "start")
			var results []*result
			for _, w := range workloads {
				res, err := opts.measure(w)
				if err != nil {
					fatal(err)
				}
				res.print(os.Stdout, w, opts.traced)
				failed += res.failed
				results = append(results, res)
			}
			printEnvironment(os.Stdout, "end")
			all = append(all, results)
		}
		if *sets > 1 && !printAgreement(os.Stdout, all) {
			fmt.Println("FAIL: sets disagree beyond the bounds")
			failed++
		}
	}
	if writingRefer {
		// Pin the test suite's short sim_steady run too: a warm-up window
		// is the reference run.
		scale.simHorizon = shortSimHorizon
		inst, err := simSetup(*seed, nil)
		if err != nil {
			fatal(err)
		}
		inst.measure(0, new([]float64))
		if err := writeReference(); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", referencePath)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d failed operations or checks\n", failed)
		os.Exit(1)
	}
}

// gcPercent is the GOGC the benchmark runs at unless the environment
// sets one. The memory metrics do not depend on it.
const gcPercent = 400

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

type options struct {
	seed     uint64
	seconds  float64
	traced   bool
	traceOut string
}

// measure runs w untraced for the end-to-end metrics and, with -trace 1,
// once more with the benchmark's wrappers and a registry installed
// (where the workload has any), and then the workload's probes, for the
// per-layer metrics.
func (o options) measure(w *workload) (*result, error) {
	res, err := run(w, o.seed, o.seconds, nil)
	if err != nil || !o.traced {
		return res, err
	}
	if w.wrapped {
		tr := newTracing()
		tres, err := run(w, o.seed, min(3, o.seconds*0.3), tr)
		if err != nil {
			return nil, err
		}
		res.ops += tres.ops
		res.failed += tres.failed
		for name, m := range tres.layer {
			if strings.HasPrefix(name, "client.") || name == "host.calib_ns" {
				continue // the untraced run's are the ones to read
			}
			res.layer[name] = m
		}
		res.layer.set("trace.overhead_share", 1-tres.e2e["ops_per_s"].value/res.e2e["ops_per_s"].value, "share")
		checkBudget(res, tres)
		if o.traceOut != "" {
			b, err := trace.ChromeTrace(tr.coll.Spans())
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(o.traceOut, b, 0o644); err != nil {
				return nil, err
			}
		}
	}
	if w.probes != nil {
		if err := w.probes(o.seed, res.layer); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
	}
	return res, nil
}

// checkBudget asserts that the traced run's median request adds up: the
// shares of its spans must sum to within a tenth of the median the
// client's own stopwatch saw in the same windows.
func checkBudget(res, tres *result) {
	sum, ok := tres.layer["trace.request_sum_ms"]
	if !ok {
		return
	}
	gap := math.Abs(sum.value/tres.e2e["p50_ms"].value - 1)
	res.layer.set("trace.budget_gap_share", gap, "share")
	if gap > 0.10 {
		fmt.Printf("FAIL %s: the median request's spans sum to %.4f ms, the client's median is %.4f ms\n",
			res.workload, sum.value, tres.e2e["p50_ms"].value)
		res.failed++
	}
}

// print writes the workload's metrics as a table: name, value, unit,
// and for throughput the window-to-window min, max and IQR/median.
func (r *result) print(out io.Writer, w *workload, layers bool) {
	note := ""
	if r.noisy() {
		note = fmt.Sprintf("  NOISY: host calibration moved %.0f%% across this workload", r.calibDrift*100)
	}
	fmt.Fprintf(out, "\n%s  (op = %s, wait = %s)  ops %d  failed %d%s\n", r.workload, w.op, w.wait, r.ops, r.failed, note)
	for _, d := range endToEnd {
		m := r.e2e[d.name]
		line := fmt.Sprintf("  %-28s %14.6g %-6s", d.name, m.value, m.unit)
		switch d.name {
		case "ops_per_s":
			s := r.rateSpread
			line += fmt.Sprintf(" windows min %.6g max %.6g iqr/median %.1f%%", s.min, s.max, s.iqrShare*100)
		case "p50_ms":
			line += fmt.Sprintf(" over %d samples", r.latencyCount)
		}
		fmt.Fprintln(out, line)
	}
	names := make([]string, 0, len(r.layer))
	for name, m := range r.layer {
		// A percentile the sample cannot support is not printed.
		if layers || (strings.HasPrefix(name, "client.") && m.value != 0) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "  %-28s %14.6g %-6s\n", name, r.layer[name].value, r.layer[name].unit)
	}
}

// jsonLine is the one-line result a driver reads: every end-to-end
// metric, or with -trace 1 every per-layer metric (0 for a layer the
// workload does not reach).
func (r *result) jsonLine(layers bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	defs, src := endToEnd, r.e2e
	if layers {
		defs, src = perLayer, r.layer
	}
	for _, d := range defs {
		ms[d.name] = value{src[d.name].value, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, max(r.ops, 1), r.failed, ms})
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// printAgreement prints, for every end-to-end (metric, workload), the
// set-to-set range as a share of the median beside the metric's bound,
// and reports whether every pair agreed.
func printAgreement(out io.Writer, sets [][]*result) bool {
	ok := true
	fmt.Fprintf(out, "\n== agreement of %d sets ==\n", len(sets))
	for i, w := range workloads {
		for _, d := range endToEnd {
			var vs []float64
			noisy := false
			for _, set := range sets {
				vs = append(vs, set[i].e2e[d.name].value)
				noisy = noisy || set[i].noisy()
			}
			s := spreadOf(vs)
			diff := (s.max - s.min) / median(vs)
			verdict := "ok"
			switch {
			case w.coldSetup && d.name == "setup_s":
				// Only the first set's first pass is cold in one process.
				verdict = "not compared"
			case diff > d.bound:
				verdict = "DISAGREE"
				ok = false
			}
			if noisy {
				verdict += " (noisy host)"
			}
			fmt.Fprintf(out, "  %-15s %-16s range/median %6.2f%%  bound %4.0f%%  %s\n", w.name, d.name, diff*100, d.bound*100, verdict)
		}
	}
	return ok
}

// printEnvironment prints what the numbers were measured on. The load
// average is printed at the start and the end of a set: a set that
// began or ended beside other work says so.
func printEnvironment(out io.Writer, when string) {
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.TrimSpace(string(b))
	}
	if when != "start" {
		fmt.Fprintf(out, "\nenvironment at %s: loadavg %s\n", when, load)
		return
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, found := strings.Cut(line, ":"); found && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	gogc := fmt.Sprintf("%d (set by the benchmark)", gcPercent)
	if v := os.Getenv("GOGC"); v != "" {
		gogc = v + " (from the environment)"
	}
	fmt.Fprintf(out, "environment at start: cpu %q  nproc %d  GOMAXPROCS %d  GOGC %s  %s  commit %s  loadavg %s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, runtime.Version(), commit, load)
}
