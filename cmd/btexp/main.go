// Command btexp regenerates the paper's evaluation figures. Each figure id
// maps to a harness in internal/experiments; the output is the same series
// the paper plots, rendered as aligned text tables.
//
// Figures run concurrently on the internal/par pool (-jobs bounds the
// worker count, default GOMAXPROCS). Every harness seeds its runs by
// index, so the tables are bit-identical for any -jobs value; each figure
// renders into its own buffer and the buffers are flushed in the fixed
// figure order, so the output text is stable too.
//
// Usage:
//
//	btexp -fig all -scale quick
//	btexp -fig 4a -scale full -jobs 8
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/fluid"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/par"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate, or a comma-separated list: 1a, 1b, 2, 4a, 4b, 4c, 4bc, 4bcxl, 4d, ablations, validate, flashcrowd, fluidconv, or all (4bcxl is excluded from all)")
	scaleFlag := flag.String("scale", "quick", "workload scale: quick or full")
	rows := flag.Int("rows", 15, "maximum series rows per table")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "max concurrent workers for figures and their inner sweeps (must be >= 1)")
	metricsOut := flag.String("metrics", "", "write a final JSONL metrics snapshot (pool gauges, per-experiment wall time) to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of per-figure spans to this file (load in Perfetto)")
	logCfg := obs.RegisterLogFlags(nil)
	flag.Parse()
	logger := logCfg.Logger()
	experiments.SetLogger(logger)
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "btexp: -jobs must be >= 1, got %d\n", *jobs)
		os.Exit(2)
	}
	if err := par.SetDefaultJobs(*jobs); err != nil {
		fmt.Fprintf(os.Stderr, "btexp: %v\n", err)
		os.Exit(2)
	}

	// One registry collects the pool gauges and the per-experiment
	// wall-time histograms; -metrics dumps it as a JSONL snapshot, the
	// same format btsim emits.
	reg := obs.NewRegistry()
	par.SetMetrics(reg)
	experiments.SetMetrics(reg)
	fluid.SetMetrics(reg)

	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(trace.DefaultCapacity, "btexp")
	}

	start := time.Now()
	if err := run(os.Stdout, tracer, *fig, *scaleFlag, *rows); err != nil {
		logger.Error("btexp failed", "err", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, tracer); err != nil {
			logger.Error("btexp trace export failed", "err", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (open in Perfetto or chrome://tracing)\n", *traceOut)
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, time.Since(start).Seconds(), reg); err != nil {
			logger.Error("btexp metrics snapshot failed", "err", err)
			os.Exit(1)
		}
		fmt.Printf("metrics snapshot written to %s\n", *metricsOut)
	}
}

// figKey derives a figure's content address — the sha256 of the JSON
// {fig, scale, rows} that selects exactly its rendering — so trace IDs
// stay deterministic across runs.
func figKey(sel, scale string, rows int) string {
	spec, _ := json.Marshal(struct {
		Fig   string `json:"fig"`
		Scale string `json:"scale"`
		Rows  int    `json:"rows"`
	}{sel, scale, rows})
	sum := sha256.Sum256(spec)
	return hex.EncodeToString(sum[:])
}

func writeTrace(path string, tr *trace.Tracer) error {
	b, err := trace.ChromeTrace(tr.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func writeMetrics(path string, elapsed float64, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteSnapshot(f, elapsed, reg.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run renders the selected figures locally: the figure list fans out
// across the pool, each figure rendering into a private buffer that is
// flushed in list order, so stdout reads the same as a serial run.
func run(w io.Writer, tracer *trace.Tracer, fig, scaleFlag string, rows int) error {
	scale, err := experiments.ParseScale(scaleFlag)
	if err != nil {
		return err
	}
	figs, err := experiments.SelectFigures(fig, scale, rows)
	if err != nil {
		return err
	}
	bufs, err := par.Map(context.Background(), len(figs), 0, func(i int) (*bytes.Buffer, error) {
		// One span per figure makes the -jobs fan-out visible in the
		// exported trace; nil tracer short-circuits everything.
		_, sp := tracer.Root(context.Background(), figKey(figs[i].Sel, scale.String(), rows), "figure")
		sp.Annotate("fig", figs[i].Name)
		var b bytes.Buffer
		renderErr := figs[i].Render(&b)
		sp.End()
		if renderErr != nil {
			return nil, fmt.Errorf("fig %s: %w", figs[i].Name, renderErr)
		}
		return &b, nil
	})
	if err != nil {
		return err
	}
	for _, b := range bufs {
		if _, err := w.Write(b.Bytes()); err != nil {
			return err
		}
	}
	return nil
}
