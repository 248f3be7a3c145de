// Command btserve runs the model/sim serving layer: an HTTP server that
// evaluates multiphased-model, efficiency, stability, and simulator
// queries behind a content-addressed result cache, singleflight
// deduplication, and bounded-admission load shedding. Long simulator
// runs can be streamed as per-round JSONL.
//
// Usage:
//
//	btserve -addr :8090
//	btserve -addr :8090 -workers 8 -queue 32 -cache-size 512 -debug-addr :6060
//
// Query examples:
//
//	curl -s localhost:8090/v1/query -d '{"kind":"efficiency","efficiency":{"k":3}}'
//	curl -s localhost:8090/v1/stream -d '{"kind":"sim","seed":7,"sim":{"pieces":50,"horizon":100}}'
//
// On SIGINT/SIGTERM the server drains: the listener stops accepting,
// in-flight requests finish (bounded by -drain-timeout), then the
// process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fluid"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8090", "listen address for /v1/query, /v1/stream, /healthz, /metrics")
		cacheSize    = flag.Int("cache-size", 256, "result cache capacity in entries")
		workers      = flag.Int("workers", 4, "concurrently computing requests")
		queue        = flag.Int("queue", 16, "admission waiting room beyond workers (-1 = none)")
		timeout      = flag.Duration("timeout", 60*time.Second, "per-request compute deadline")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget on SIGTERM")
		debugAddr    = flag.String("debug-addr", "", "serve pprof/expvar/metrics on this address (e.g. :6060)")
		traceSpans   = flag.Int("trace-spans", trace.DefaultCapacity, "completed-span ring buffer capacity for /debug/trace (0 disables tracing)")
		logCfg       = obs.RegisterLogFlags(nil)
	)
	flag.Parse()
	logger := logCfg.Logger()
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(os.Stdout, logger, options{
		addr: *addr, cacheSize: *cacheSize,
		workers: *workers, queue: *queue, timeout: *timeout,
		drainTimeout: *drainTimeout, debugAddr: *debugAddr, traceSpans: *traceSpans,
	}, ctx.Done(), nil); err != nil {
		logger.Error("btserve failed", "err", err)
		os.Exit(1)
	}
}

type options struct {
	addr         string
	cacheSize    int
	workers      int
	queue        int
	timeout      time.Duration
	drainTimeout time.Duration
	debugAddr    string
	traceSpans   int
}

// run serves until the listener fails or stop is closed, then drains
// gracefully. ready, if non-nil, is called with the bound address once
// the server is accepting (the hook tests use to avoid port races).
func run(w io.Writer, logger *slog.Logger, o options, stop <-chan struct{}, ready func(addr string)) error {
	reg := obs.NewRegistry()
	// Fluid solver telemetry (fluid.steps, fluid.rejected_steps,
	// fluid.solve_ms) lands in the same registry as the serving metrics.
	fluid.SetMetrics(reg)
	var tracer *trace.Tracer // nil when -trace-spans 0: tracing fully off
	if o.traceSpans > 0 {
		tracer = trace.New(o.traceSpans, "btserve")
	}
	if o.debugAddr != "" {
		ds, err := obs.ServeDebug(o.debugAddr, reg,
			obs.Route{Pattern: "/debug/trace", Handler: trace.Handler(tracer)})
		if err != nil {
			return err
		}
		defer ds.Drain(2 * time.Second) //nolint:errcheck
		fmt.Fprintf(w, "debug endpoints on http://%s/debug/pprof/ (metrics at /metrics, traces at /debug/trace)\n", ds.Addr())
	}

	cfg := serve.Config{
		Registry:       reg,
		Logger:         logger,
		CacheSize:      o.cacheSize,
		Workers:        o.workers,
		Queue:          o.queue,
		RequestTimeout: o.timeout,
		Tracer:         tracer,
	}
	srv := serve.New(cfg)
	defer srv.Close()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv}
	fmt.Fprintf(w, "serving on http://%s/v1/query (stream at /v1/stream, health at /healthz)\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-stop:
		// Graceful exit: stop accepting, let in-flight computations
		// finish within the drain budget, then abort anything left.
		fmt.Fprintln(w, "draining...")
		ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			srv.Close() // cut the base context: abort stuck computations
			return httpSrv.Close()
		}
		return nil
	}
}
