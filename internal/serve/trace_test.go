package serve_test

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/serve"
)

// attrVal returns the first value of attr k on sd ("" when absent).
func attrVal(sd trace.SpanData, k string) string {
	for _, a := range sd.Attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}

// waitSpans polls the tracer until cond holds over its buffered spans
// (span recording trails the HTTP response by a deferred End and, for
// worker spans, a result frame hop).
func waitSpans(t *testing.T, tr *trace.Tracer, cond func([]trace.SpanData) bool) []trace.SpanData {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans := tr.Spans()
		if cond(spans) {
			return spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("condition never held over spans:\n%+v", spans)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPooledQueryStitchesOneTrace is the tentpole acceptance test: a
// /v1/query served through a 2-worker pool yields ONE trace — under the
// deterministic content-address-derived ID announced in X-Trace-Id —
// whose tree covers ingress → cache → singleflight → gate → eval, the
// coordinator's per-grant shard spans, and the worker-side eval spans
// shipped back in result frames. The same ring then exports as valid
// Chrome trace-event JSON from /debug/trace.
func TestPooledQueryStitchesOneTrace(t *testing.T) {
	tracer := trace.New(256, "btserve")
	coord, stop := startPool(t, 2, dist.Config{}, nil)
	defer stop()
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{
		Registry:  reg,
		Tracer:    tracer,
		Evaluator: serve.PoolEvaluator(coord, 32),
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// 64 runs at 32 runs/shard → exactly 2 shards.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"model","seed":7,"model":{"b":40,"runs":64}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	key := resp.Header.Get("X-Cache-Key")
	if traceID == "" || key == "" {
		t.Fatalf("missing trace headers: X-Trace-Id=%q X-Cache-Key=%q", traceID, key)
	}
	// Deterministic derivation: content address prefix + ingress sequence.
	if !strings.HasPrefix(traceID, key[:16]+"-") {
		t.Fatalf("trace ID %q not derived from cache key %q", traceID, key)
	}
	if fresh := trace.New(256, "btserve"); fresh.TraceID(key) != traceID {
		t.Fatalf("trace ID not reproducible: got %q from a fresh tracer, served %q",
			fresh.TraceID(key), traceID)
	}

	count := func(spans []trace.SpanData, name string) int {
		n := 0
		for _, sd := range spans {
			if sd.Name == name {
				n++
			}
		}
		return n
	}
	spans := waitSpans(t, tracer, func(spans []trace.SpanData) bool {
		return count(spans, "ingress") == 1 && count(spans, "shard") == 2 &&
			count(spans, "worker.eval") == 2
	})

	byID := map[string]trace.SpanData{}
	for _, sd := range spans {
		if sd.Trace != traceID {
			t.Fatalf("span %s carries trace %q, want %q", sd.Name, sd.Trace, traceID)
		}
		byID[sd.ID] = sd
	}
	parentName := func(sd trace.SpanData) string { return byID[sd.Parent].Name }
	var workerProcs []string
	for _, sd := range spans {
		switch sd.Name {
		case "cache", "singleflight":
			if got := parentName(sd); got != "ingress" {
				t.Fatalf("%s parented under %q, want ingress", sd.Name, got)
			}
		case "gate", "eval":
			if got := parentName(sd); got != "singleflight" {
				t.Fatalf("%s parented under %q, want singleflight", sd.Name, got)
			}
		case "shard":
			if got := parentName(sd); got != "eval" {
				t.Fatalf("shard parented under %q, want eval", got)
			}
			if got := attrVal(sd, "outcome"); got != "result" {
				t.Fatalf("clean-run shard outcome = %q, want result", got)
			}
		case "worker.eval":
			if got := parentName(sd); got != "shard" {
				t.Fatalf("worker.eval parented under %q, want shard", got)
			}
			workerProcs = append(workerProcs, sd.Proc)
		}
	}
	if len(workerProcs) != 2 || workerProcs[0] == "" {
		t.Fatalf("worker spans lost their process names: %v", workerProcs)
	}

	// /debug/trace on the shared obs debug mux exports the same ring as
	// loadable Chrome trace-event JSON.
	mux := obs.NewDebugMux(reg, obs.Route{Pattern: "/debug/trace", Handler: trace.Handler(tracer)})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?trace="+traceID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace status %d", rec.Code)
	}
	if err := trace.ValidateChrome(rec.Body.Bytes()); err != nil {
		t.Fatalf("/debug/trace export invalid: %v", err)
	}
	var f struct {
		TraceEvents []struct {
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	var x int
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" {
			x++
			if ev.Args["trace"] != traceID {
				t.Fatalf("export leaked foreign trace %q", ev.Args["trace"])
			}
		}
	}
	if x != len(spans) {
		t.Fatalf("export has %d X events, ring has %d spans", x, len(spans))
	}
}

// TestPooledChaosTraceShowsRequeue is the fault half: when a worker's
// connection dies mid-lease, the lost grant closes with a non-result
// outcome and the re-grant appears as a SECOND shard child span — the
// requeue is visible in the trace, not just in counters.
func TestPooledChaosTraceShowsRequeue(t *testing.T) {
	req := &serve.Request{
		Kind:  serve.KindModel,
		Seed:  9,
		Model: &serve.ModelQuery{B: 40, Runs: 40},
	}
	if err := req.Canonicalize(); err != nil {
		t.Fatal(err)
	}

	var dials atomic.Int32
	cfg := dist.Config{LeaseTTL: 300 * time.Millisecond, SweepEvery: 20 * time.Millisecond}
	coord, stop := startPool(t, 2, cfg, func(i int, wc *dist.WorkerConfig) {
		if i != 0 {
			return
		}
		wc.Name = "flaky"
		wc.Dial = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			// First connection dies after 1000 bytes — enough to handshake
			// and accept its two leases (~810), not enough to also return
			// both results (~520 each, spans included).
			if dials.Add(1) == 1 {
				return faults.DropConn(c, 1000), nil
			}
			return c, nil
		}
	})
	defer stop()
	// Let the flaky worker connect, or the healthy one finishes alone and
	// nothing is ever requeued.
	for deadline := time.Now().Add(10 * time.Second); coord.Workers() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 workers connected", coord.Workers())
		}
	}

	tracer := trace.New(1024, "btserve")
	ctx, root := tracer.Root(t.Context(), req.Key(), "ingress")
	if _, err := serve.PoolEvaluator(coord, 4)(ctx, req); err != nil {
		t.Fatalf("pool: %v", err)
	}
	root.End()

	// Some shard address must have been granted at least twice, with the
	// lost grant carrying a non-result outcome and a distinct attempt.
	spans := waitSpans(t, tracer, func(spans []trace.SpanData) bool {
		grants := map[string][]trace.SpanData{}
		for _, sd := range spans {
			if sd.Name == "shard" {
				grants[attrVal(sd, "addr")] = append(grants[attrVal(sd, "addr")], sd)
			}
		}
		for _, g := range grants {
			if len(g) < 2 {
				continue
			}
			for _, sd := range g {
				if o := attrVal(sd, "outcome"); o != "" && o != "result" {
					return true
				}
			}
		}
		return false
	})
	// And every shard span still stitches under the one request trace.
	for _, sd := range spans {
		if sd.Trace != root.TraceID() {
			t.Fatalf("span %s escaped the request trace: %q", sd.Name, sd.Trace)
		}
	}
}
