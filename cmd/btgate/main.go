// Command btgate runs the gateway tier: an HTTP router that fronts N
// btserve replicas and makes them behave as one content-addressed
// serving surface. Requests are routed by consistent hash over their
// canonical cache key (bounded-load variant, so hot keys spill instead
// of capsizing one replica), failing replicas are struck and
// quarantined, and a spilled request is forwarded to the key's ring
// successor like any other — same request, same bytes.
//
// Usage:
//
//	btgate -addr :8080 -replicas http://127.0.0.1:8091,http://127.0.0.1:8092
//	btgate -addr :8080 -replicas ... -debug-addr :6070
//
// The gateway speaks exactly the replica dialect: POST /v1/query,
// /v1/batch, and /v1/stream bodies are the serve schema, and responses
// are relayed byte-for-byte (Retry-After included, verbatim).
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
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address for /v1/query, /v1/batch, /v1/stream, /healthz, /metrics")
		replicas     = flag.String("replicas", "", "comma-separated btserve base URLs to front (required)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget on SIGTERM")
		debugAddr    = flag.String("debug-addr", "", "serve pprof/expvar/metrics on this address (e.g. :6070)")
		traceSpans   = flag.Int("trace-spans", trace.DefaultCapacity, "completed-span ring buffer capacity for /debug/trace (0 disables tracing)")
		logCfg       = obs.RegisterLogFlags(nil)
	)
	flag.Parse()
	logger := logCfg.Logger()
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(os.Stdout, logger, options{
		addr: *addr, replicas: splitList(*replicas),
		drainTimeout: *drainTimeout, debugAddr: *debugAddr, traceSpans: *traceSpans,
	}, ctx.Done(), nil); err != nil {
		logger.Error("btgate failed", "err", err)
		os.Exit(1)
	}
}

type options struct {
	addr         string
	replicas     []string
	drainTimeout time.Duration
	debugAddr    string
	traceSpans   int
}

// splitList parses a comma-separated flag value, dropping empty parts.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// run routes until the listener fails or stop is closed, then drains.
// ready, if non-nil, is called with the bound address once accepting.
func run(w io.Writer, logger *slog.Logger, o options, stop <-chan struct{}, ready func(addr string)) error {
	if len(o.replicas) == 0 {
		return fmt.Errorf("btgate: -replicas is required (comma-separated btserve base URLs)")
	}
	reg := obs.NewRegistry()
	var tracer *trace.Tracer
	if o.traceSpans > 0 {
		tracer = trace.New(o.traceSpans, "btgate")
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

	g, err := gateway.New(gateway.Config{
		Replicas: o.replicas,
		Registry: reg,
		Logger:   logger,
		Tracer:   tracer,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: g}
	fmt.Fprintf(w, "gateway on http://%s/v1/query fronting %d replicas: %s\n",
		ln.Addr(), len(o.replicas), strings.Join(o.replicas, ", "))
	if ready != nil {
		ready(ln.Addr().String())
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-stop:
		fmt.Fprintln(w, "draining...")
		ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return httpSrv.Close()
		}
		return nil
	}
}
