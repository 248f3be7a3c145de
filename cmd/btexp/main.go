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
// With -dist, btexp instead hosts a coordinator (internal/dist) on the
// given address and fans the selected figures out to connected btworker
// processes; determinism makes the distributed output byte-identical to
// a local run.
//
// Usage:
//
//	btexp -fig all -scale quick
//	btexp -fig 4a -scale full -jobs 8
//	btexp -fig all -scale full -dist :9400   # btworker -connect :9400
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
	"log/slog"
	"os"
	"runtime"
	"time"

	"repro/internal/dist"
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
	distAddr := flag.String("dist", "", "host a coordinator on this address and fan figures out to btworker processes instead of rendering locally")
	metricsOut := flag.String("metrics", "", "write a final JSONL metrics snapshot (pool gauges, per-experiment wall time) to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of per-figure spans to this file (load in Perfetto); under -dist includes worker-side spans")
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

	// One registry collects the pool gauges, the per-experiment wall-time
	// histograms, and (under -dist) the dist.* coordinator surface;
	// -metrics dumps it as a JSONL snapshot, the same format btsim emits.
	reg := obs.NewRegistry()
	par.SetMetrics(reg)
	experiments.SetMetrics(reg)
	fluid.SetMetrics(reg)

	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(trace.DefaultCapacity, "btexp")
	}

	start := time.Now()
	var err error
	if *distAddr != "" {
		err = runDist(os.Stdout, logger, tracer, *distAddr, *fig, *scaleFlag, *rows, reg)
	} else {
		err = run(os.Stdout, tracer, *fig, *scaleFlag, *rows)
	}
	if err != nil {
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

// figKey derives a figure's content address — the sha256 of its FigSpec
// JSON, the same spec a -dist lease ships — so trace IDs stay
// deterministic across runs and transports.
func figKey(sel, scale string, rows int) string {
	spec, _ := json.Marshal(experiments.FigSpec{Fig: sel, Scale: scale, Rows: rows})
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

// runDist hosts a coordinator and submits each selected figure as a
// one-shard task; connected btworker processes render them. Payloads
// come back per task and are flushed in figure order — the same bytes a
// local run writes, because every harness seeds its runs by index.
func runDist(w io.Writer, logger *slog.Logger, tracer *trace.Tracer, addr, fig, scaleFlag string, rows int, reg *obs.Registry) error {
	scale, err := experiments.ParseScale(scaleFlag)
	if err != nil {
		return err
	}
	figs, err := experiments.SelectFigures(fig, scale, rows)
	if err != nil {
		return err
	}
	coord := dist.New(dist.Config{Registry: reg})
	bound, err := coord.Listen(addr)
	if err != nil {
		return fmt.Errorf("btexp: coordinator listen: %w", err)
	}
	defer coord.Close()
	logger.Info("coordinator listening; waiting for btworker connections", "addr", bound, "figures", len(figs))

	bufs, err := par.Map(context.Background(), len(figs), len(figs), func(i int) ([]byte, error) {
		spec, err := json.Marshal(experiments.FigSpec{Fig: figs[i].Sel, Scale: scale.String(), Rows: rows})
		if err != nil {
			return nil, err
		}
		// Root the figure's trace here so the coordinator's shard spans —
		// and the worker-side render spans shipped back in result frames —
		// stitch under one deterministic trace ID per figure.
		ctx, sp := tracer.Root(context.Background(), figKey(figs[i].Sel, scale.String(), rows), "figure")
		sp.Annotate("fig", figs[i].Name)
		payloads, err := coord.Run(ctx, dist.Task{
			Kind: experiments.KindFigure, Spec: spec, N: 1,
		})
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("fig %s: %w", figs[i].Name, err)
		}
		return payloads[0], nil
	})
	if err != nil {
		return err
	}
	for _, b := range bufs {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
