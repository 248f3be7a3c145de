// Command btworker is a distributed-execution worker: it connects to a
// coordinator (btserve -pool, built on internal/dist), leases
// deterministic shards of served queries — model-ensemble seed ranges
// and whole answers of every other kind — evaluates them on the local
// internal/par pool, and streams results back. Because every shard is a
// pure function of (spec, index range), any number of btworker
// processes produce results bit-identical to a single local run.
//
// Usage:
//
//	btworker -connect host:9400 -slots 4 -jobs 8
//
// The worker reconnects with backoff if the coordinator restarts; a
// protocol version mismatch is fatal. On the first SIGINT/SIGTERM the
// worker drains gracefully: it announces a goodbye to the coordinator
// (no new leases, no health strike), finishes in-flight shards, then
// exits. A second signal forces an immediate teardown — abandoned
// leases are reassigned by the coordinator's lease recovery.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/par"
	"repro/internal/serve"
)

func main() {
	var (
		connect    = flag.String("connect", "", "coordinator address (host:port) to lease shards from")
		name       = flag.String("name", "", "worker name shown in coordinator logs (default: local address)")
		slots      = flag.Int("slots", 2, "shards evaluated concurrently (must be >= 1)")
		jobs       = flag.Int("jobs", runtime.GOMAXPROCS(0), "max concurrent goroutines for a shard's inner sweeps (must be >= 1)")
		debugAddr  = flag.String("debug-addr", "", "serve pprof/expvar/metrics on this address (e.g. :6061)")
		traceSpans = flag.Int("trace-spans", trace.DefaultCapacity, "completed-span ring buffer capacity for /debug/trace (0 disables the local ring; spans still ship to the coordinator)")
		logCfg     = obs.RegisterLogFlags(nil)
	)
	flag.Parse()
	logger := logCfg.Logger()
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "btworker: -jobs must be >= 1, got %d\n", *jobs)
		os.Exit(2)
	}
	if err := par.SetDefaultJobs(*jobs); err != nil {
		fmt.Fprintf(os.Stderr, "btworker: %v\n", err)
		os.Exit(2)
	}
	if *slots < 1 {
		fmt.Fprintf(os.Stderr, "btworker: -slots must be >= 1, got %d\n", *slots)
		os.Exit(2)
	}
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "btworker: -connect is required")
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	par.SetMetrics(reg)
	var tracer *trace.Tracer
	if *traceSpans > 0 {
		proc := *name
		if proc == "" {
			proc = "btworker"
		}
		tracer = trace.New(*traceSpans, proc)
	}
	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr, reg,
			obs.Route{Pattern: "/debug/trace", Handler: trace.Handler(tracer)})
		if err != nil {
			logger.Error("btworker debug server failed", "err", err)
			os.Exit(1)
		}
		defer ds.Drain(2 * time.Second) //nolint:errcheck
		fmt.Printf("debug endpoints on http://%s/debug/pprof/ (metrics at /metrics, traces at /debug/trace)\n", ds.Addr())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wk := dist.NewWorker(dist.WorkerConfig{
		Name: *name, Slots: *slots, Addr: *connect,
		Registry: reg, Tracer: tracer, Logger: logger,
	})
	serve.RegisterEvaluators(wk)

	// First signal: graceful drain (goodbye frame, finish in-flight
	// shards, exit clean). Second signal: force teardown — the
	// coordinator's lease recovery reassigns whatever was abandoned.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "btworker: draining (finishing in-flight shards; signal again to force exit)")
		wk.Drain()
		<-sig
		fmt.Fprintln(os.Stderr, "btworker: forced exit")
		cancel()
	}()

	fmt.Printf("btworker leasing from %s (%d slots, %d jobs)\n", *connect, *slots, *jobs)
	if err := wk.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Error("btworker failed", "err", err)
		os.Exit(1)
	}
}
