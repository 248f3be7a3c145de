package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Route attaches an extra handler to a debug mux — e.g. the span
// tracer's /debug/trace exporter (internal/obs/trace.Handler), which
// lives in a subpackage this one must not import.
type Route struct {
	Pattern string
	Handler http.Handler
}

// NewDebugMux builds the debug HTTP mux: net/http/pprof under
// /debug/pprof/, expvar (memstats, cmdline) under /debug/vars, a plain
// JSON snapshot of reg at /metrics — the registry's one export — plus
// any extra routes.
func NewDebugMux(reg *Registry, routes ...Route) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reg.Snapshot())
	})
	for _, r := range routes {
		mux.Handle(r.Pattern, r.Handler)
	}
	return mux
}

// DebugServer is a running debug endpoint. Stop it on exit with Drain
// (graceful) or Close (immediate).
type DebugServer struct {
	srv  *http.Server
	addr net.Addr
}

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() net.Addr { return d.addr }

// Close shuts the server down immediately, aborting in-flight requests.
func (d *DebugServer) Close() error { return d.srv.Close() }

// Drain is the exit-path convenience CLIs use: graceful shutdown bounded
// by timeout, falling back to an immediate Close when in-flight requests
// (e.g. a long pprof trace) do not finish in time.
func (d *DebugServer) Drain(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		_ = d.srv.Close()
		return err
	}
	return nil
}

// ServeDebug binds addr (e.g. ":6060" or "127.0.0.1:0") and serves the
// debug mux for reg in a background goroutine.
func ServeDebug(addr string, reg *Registry, routes ...Route) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewDebugMux(reg, routes...)}
	go func() { _ = srv.Serve(ln) }()
	return &DebugServer{srv: srv, addr: ln.Addr()}, nil
}
