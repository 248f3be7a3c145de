// Package trace is the repository's span tracer: per-request latency
// attribution across the serving pipeline (btserve ingress → cache →
// singleflight → admission → evaluation), the distributed execution
// layer (coordinator shard leases → remote worker evaluation), and the
// figure harnesses. It answers the question the aggregate obs metrics
// cannot: for THIS slow request, where did the time go — a cache-miss
// recompute, a queue wait, or a straggler re-issue on a remote worker?
//
// Design rules, mirroring the rest of internal/obs:
//
//   - Stdlib-only, safe for concurrent use.
//   - Zero-cost when disabled. A nil *Tracer starts no spans; Start on
//     an unbound context returns (ctx, nil) without allocating; every
//     method on a nil *Span is a no-op. The discipline is the same as
//     sim.Observer: disabled observability costs a nil check.
//   - Deterministic trace IDs. A trace ID is derived from the request's
//     existing sha256 content address (the serve cache key) plus a
//     monotone ingress sequence, so the N-th arrival of a given request
//     always gets the same ID — replayable in tests and greppable
//     across coordinator and worker logs.
//   - Completed spans land in a bounded ring buffer (a short mutex push;
//     no channels, no background goroutine) and are exported on demand
//     as JSONL or Chrome trace-event JSON (loadable in Perfetto) from
//     the /debug/trace endpoint.
//
// Spans cross process boundaries by value: the dist lease frame carries
// the trace ID and parent span ID to the worker, the worker records its
// evaluation spans into a Collector, and the result frame ships them
// back for the coordinator to stitch into the request's trace.
package trace

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCapacity is the ring-buffer size used when New is given a
// non-positive capacity.
const DefaultCapacity = 4096

// Attr is one span annotation. Attrs are ordered and may repeat keys
// (e.g. one "requeue" note per lease loss); exporters disambiguate
// duplicates.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// SpanData is the completed-span record: the unit the ring buffer
// stores, the exporters render, and the dist result frames carry across
// the wire. Times are wall-clock microseconds; durations come from the
// monotonic clock of the process that ran the span.
type SpanData struct {
	// Trace is the deterministic trace ID shared by every span of one
	// request, across processes.
	Trace string `json:"trace"`
	// ID is the span's process-unique identifier ("proc:counter").
	ID string `json:"id"`
	// Parent is the parent span's ID ("" for a root span).
	Parent string `json:"parent,omitempty"`
	// Name is the stage name ("ingress", "gate", "shard", "worker.eval").
	Name string `json:"name"`
	// Proc names the process/component that ran the span.
	Proc string `json:"proc"`
	// StartUS is the span start in unix microseconds.
	StartUS int64 `json:"startUs"`
	// DurUS is the span duration in microseconds.
	DurUS int64 `json:"durUs"`
	// Attrs are the span's annotations, in the order they were added.
	Attrs []Attr `json:"attrs,omitempty"`
}

// Sink receives completed spans. *Tracer (ring buffer) and *Collector
// (per-lease capture for wire shipment) both implement it.
type Sink interface {
	Record(SpanData)
}

// spanSeq numbers spans process-wide; IDs only need to be unique within
// a process (the proc prefix separates processes).
var spanSeq atomic.Uint64

func newSpanID(proc string) string {
	return proc + ":" + strconv.FormatUint(spanSeq.Add(1), 16)
}

// Tracer owns the ingress sequence and the bounded ring buffer of
// completed spans. Construct with New; a nil *Tracer is a valid,
// fully disabled tracer.
type Tracer struct {
	proc string
	cap  int
	seq  atomic.Uint64

	mu    sync.Mutex
	ring  []SpanData
	next  int    // ring write cursor
	total uint64 // spans recorded over the tracer's lifetime
}

// New builds a tracer for the named process with a ring buffer of
// capacity spans (DefaultCapacity if non-positive).
func New(capacity int, proc string) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if proc == "" {
		proc = "proc"
	}
	return &Tracer{proc: proc, cap: capacity}
}

// Proc returns the tracer's process name ("" on a nil tracer).
func (t *Tracer) Proc() string {
	if t == nil {
		return ""
	}
	return t.proc
}

// TraceID mints the deterministic trace ID for the next ingress of the
// request content-addressed by key: the first 16 hex digits of the
// sha256 address plus this tracer's monotone ingress sequence. The N-th
// arrival of a given request always maps to the same ID. Returns "" on
// a nil tracer.
func (t *Tracer) TraceID(key string) string {
	if t == nil {
		return ""
	}
	seq := t.seq.Add(1)
	if len(key) > 16 {
		key = key[:16]
	}
	return fmt.Sprintf("%s-%04x", key, seq)
}

// Record pushes one completed span into the ring buffer, overwriting
// the oldest entry when full. Safe on a nil tracer (dropped).
func (t *Tracer) Record(sd SpanData) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.ring == nil {
		t.ring = make([]SpanData, t.cap)
	}
	t.ring[t.next] = sd
	t.next = (t.next + 1) % t.cap
	t.total++
	t.mu.Unlock()
}

// Spans returns the buffered spans in completion order (oldest first).
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(t.total)
	if n > t.cap {
		n = t.cap
	}
	out := make([]SpanData, 0, n)
	start := t.next - n
	if start < 0 {
		start += t.cap
	}
	for i := 0; i < n; i++ {
		out = append(out, t.ring[(start+i)%t.cap])
	}
	return out
}

// Collector is a Sink that captures spans for shipment in a dist result
// frame.
type Collector struct {
	mu    sync.Mutex
	spans []SpanData
}

// Record implements Sink.
func (c *Collector) Record(sd SpanData) {
	c.mu.Lock()
	c.spans = append(c.spans, sd)
	c.mu.Unlock()
}

// Spans returns the captured spans in completion order.
func (c *Collector) Spans() []SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanData(nil), c.spans...)
}

// Span is a live (unfinished) span handle. All methods are safe on a
// nil *Span, which is what every disabled path returns.
type Span struct {
	sink Sink
	mono time.Time

	mu    sync.Mutex
	ended bool
	data  SpanData
}

// start opens a span under the given identity and sink.
func start(sink Sink, proc, traceID, parent, name string, attrs []Attr) *Span {
	now := time.Now()
	return &Span{
		sink: sink,
		mono: now,
		data: SpanData{
			Trace: traceID, ID: newSpanID(proc), Parent: parent,
			Name: name, Proc: proc,
			StartUS: now.UnixMicro(), Attrs: attrs,
		},
	}
}

// TraceID returns the span's trace ID ("" on nil).
func (sp *Span) TraceID() string {
	if sp == nil {
		return ""
	}
	return sp.data.Trace
}

// ID returns the span's ID ("" on nil).
func (sp *Span) ID() string {
	if sp == nil {
		return ""
	}
	return sp.data.ID
}

// Annotate appends one key/value annotation. Keys may repeat; order is
// preserved. No-op after End and on a nil span.
func (sp *Span) Annotate(k, v string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if !sp.ended {
		sp.data.Attrs = append(sp.data.Attrs, Attr{K: k, V: v})
	}
	sp.mu.Unlock()
}

// AnnotateInt is Annotate with an integer value.
func (sp *Span) AnnotateInt(k string, v int) {
	if sp == nil {
		return
	}
	sp.Annotate(k, strconv.Itoa(v))
}

// End completes the span and records it into the sink. Idempotent; a
// second End is a no-op.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return
	}
	sp.ended = true
	sp.data.DurUS = time.Since(sp.mono).Microseconds()
	sd := sp.data
	sink := sp.sink
	sp.mu.Unlock()
	if sink != nil {
		sink.Record(sd)
	}
}

// Adopt records a foreign completed span (e.g. one shipped back from a
// remote worker) into this span's sink, stitching it into the same
// trace. An empty sd.Trace inherits this span's trace ID. No-op on nil.
func (sp *Span) Adopt(sd SpanData) {
	if sp == nil || sp.sink == nil {
		return
	}
	if sd.Trace == "" {
		sd.Trace = sp.data.Trace
	}
	sp.sink.Record(sd)
}

// binding is the context-carried trace identity: where child spans
// record to and who their parent is.
type binding struct {
	sink   Sink
	proc   string
	trace  string
	parent string
}

type ctxKey struct{}

// Bind attaches a trace identity to ctx: subsequent Start calls create
// children of parentSpanID recording into sink. A nil sink or empty
// traceID returns ctx unchanged (tracing stays disabled downstream).
func Bind(ctx context.Context, sink Sink, proc, traceID, parentSpanID string) context.Context {
	if sink == nil || traceID == "" {
		return ctx
	}
	if t, ok := sink.(*Tracer); ok && t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &binding{
		sink: sink, proc: proc, trace: traceID, parent: parentSpanID,
	})
}

// Transplant copies the trace binding of src onto dst. The serving
// layer uses it when a computation deliberately runs under a different
// cancellation context (the server lifetime, not the client connection)
// but should still belong to the request's trace.
func Transplant(dst, src context.Context) context.Context {
	if b, ok := src.Value(ctxKey{}).(*binding); ok {
		return context.WithValue(dst, ctxKey{}, b)
	}
	return dst
}

// Start opens a child span named name under ctx's trace binding and
// returns a derived context in which further Start calls parent to the
// new span. On an unbound context it returns (ctx, nil) without
// allocating — the disabled fast path.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	b, ok := ctx.Value(ctxKey{}).(*binding)
	if !ok {
		return ctx, nil
	}
	sp := start(b.sink, b.proc, b.trace, b.parent, name, attrs)
	child := &binding{sink: b.sink, proc: b.proc, trace: b.trace, parent: sp.data.ID}
	return context.WithValue(ctx, ctxKey{}, child), sp
}

// Root mints a deterministic trace ID for key, binds it to ctx, and
// opens the trace's root span. On a nil tracer it returns (ctx, nil)
// without touching ctx — the disabled fast path.
func (t *Tracer) Root(ctx context.Context, key, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	ctx = Bind(ctx, t, t.proc, t.TraceID(key), "")
	return Start(ctx, name)
}

// Ref is a detached copy of a context's trace binding, for subsystems
// (the dist coordinator) that create spans outside the originating
// call's context — at lease grant time, from the sweeper goroutine.
// The zero Ref is invalid and starts nothing.
type Ref struct {
	sink   Sink
	proc   string
	Trace  string
	Parent string
}

// ContextRef extracts ctx's trace binding (the zero Ref when unbound).
func ContextRef(ctx context.Context) Ref {
	b, ok := ctx.Value(ctxKey{}).(*binding)
	if !ok {
		return Ref{}
	}
	return Ref{sink: b.sink, proc: b.proc, Trace: b.trace, Parent: b.parent}
}

// Valid reports whether the ref carries a live trace.
func (r Ref) Valid() bool { return r.sink != nil && r.Trace != "" }

// Start opens a span under the ref's parent (nil on an invalid ref).
func (r Ref) Start(name string) *Span {
	if !r.Valid() {
		return nil
	}
	return start(r.sink, r.proc, r.Trace, r.Parent, name, nil)
}
