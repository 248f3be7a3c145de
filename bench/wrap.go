package main

import (
	"context"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/serve"
)

// tracing is the traced run's state: every wrapper below records into
// one in-memory collector, and the program's own counters go to one
// registry. An untraced run has a nil *tracing, installs no wrapper and
// passes nil registries.
type tracing struct {
	coll *trace.Collector
	reg  *obs.Registry

	upstreamCalls                    atomic.Int64 // gateway → replica exchanges
	poolTasks, poolShards, poolBytes atomic.Int64 // dist tasks, their shards and payload bytes
}

func newTracing() *tracing {
	return &tracing{coll: &trace.Collector{}, reg: obs.NewRegistry()}
}

// registry is nil-safe: the untraced run hands nil to every Config.
func (t *tracing) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// handler wraps h so that a request carrying the benchmark's trace
// headers gets a span named name, and h runs under a context bound to
// that span. The program's handlers take their context from the
// request, so everything they call — the gateway's forward, the
// replica's evaluator — can be given a child span from outside.
func (t *tracing) handler(proc, name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Trace-Id")
		if id == "" {
			h.ServeHTTP(w, r)
			return
		}
		ctx := trace.Bind(r.Context(), t.coll, proc, id, r.Header.Get("X-Parent-Span"))
		ctx, sp := trace.Start(ctx, name)
		h.ServeHTTP(w, r.WithContext(ctx))
		sp.End()
	})
}

// upstream is the RoundTripper installed as gateway.Config.Client's
// transport: one span per gateway → replica exchange, handed to the
// replica as the parent of its handler span and ended when the gateway
// closes the response body. The gateway parses a sub-batch's lines
// while it reads them, so the time the body was open but no Read was
// in progress is the gateway's own; the span carries it as heldAttr and
// the analysis gives it back.
type upstream struct {
	t    *tracing
	base http.RoundTripper
}

func (u upstream) RoundTrip(req *http.Request) (*http.Response, error) {
	u.t.upstreamCalls.Add(1)
	ctx, sp := trace.Start(req.Context(), spanUpstream)
	if sp == nil {
		return u.base.RoundTrip(req)
	}
	req = req.Clone(ctx)
	req.Header.Set("X-Trace-Id", sp.TraceID())
	req.Header.Set("X-Parent-Span", sp.ID())
	resp, err := u.base.RoundTrip(req)
	if err != nil {
		sp.End()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp, opened: time.Now()}
	return resp, nil
}

// heldAttr annotates an upstream span with the microseconds its body
// was open without a Read in progress.
const heldAttr = "bench.held_us"

type spanBody struct {
	io.ReadCloser
	sp      *trace.Span
	opened  time.Time
	reading time.Duration
}

func (b *spanBody) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := b.ReadCloser.Read(p)
	b.reading += time.Since(t0)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.sp.AnnotateInt(heldAttr, int((time.Since(b.opened) - b.reading).Microseconds()))
	b.sp.End()
	return err
}

// evaluator wraps a serve evaluator (nil = the server's local default)
// in a span named after the request kind. The replica transplants the
// request's trace binding onto its compute context, so the span lands
// under the replica handler's.
func (t *tracing) evaluator(eval func(context.Context, *serve.Request) (any, error)) func(context.Context, *serve.Request) (any, error) {
	if t == nil {
		return eval
	}
	if eval == nil {
		eval = serve.Evaluate
	}
	return func(ctx context.Context, req *serve.Request) (any, error) {
		ctx, sp := trace.Start(ctx, spanEvalPrefix+req.Kind)
		defer sp.End()
		return eval(ctx, req)
	}
}

// pool wraps the coordinator as the serve.Pool a PoolEvaluator runs on:
// one span per task, and exact counts of tasks, shards and payload
// bytes.
type pool struct {
	t    *tracing
	next serve.Pool
}

func (p pool) Run(ctx context.Context, task dist.Task) ([][]byte, error) {
	ctx, sp := trace.Start(ctx, spanDistRun)
	defer sp.End()
	payloads, err := p.next.Run(ctx, task)
	if err == nil {
		p.t.poolTasks.Add(1)
		p.t.poolShards.Add(int64(len(payloads)))
		for _, b := range payloads {
			p.t.poolBytes.Add(int64(len(b)))
		}
	}
	return payloads, err
}

// workerEval wraps the evaluator a dist.Worker registers. A traced
// lease arrives with its own collector bound to ctx; the span rides
// back to the coordinator in the result frame and is stitched into the
// request's trace there.
func (t *tracing) workerEval(ev dist.Evaluator) dist.Evaluator {
	if t == nil {
		return ev
	}
	return func(ctx context.Context, spec []byte, lo, hi int) ([]byte, error) {
		ctx, sp := trace.Start(ctx, spanWorkerEval)
		defer sp.End()
		return ev(ctx, spec, lo, hi)
	}
}
