package trace

import (
	"context"
	"strings"
	"testing"
)

func TestTraceIDDeterministic(t *testing.T) {
	key := strings.Repeat("ab", 32) // 64 hex chars, like a sha256 address
	a := New(16, "p")
	b := New(16, "p")
	for i := 0; i < 3; i++ {
		ida, idb := a.TraceID(key), b.TraceID(key)
		if ida != idb {
			t.Fatalf("ingress %d: trace IDs diverge: %q vs %q", i, ida, idb)
		}
		if !strings.HasPrefix(ida, key[:16]+"-") {
			t.Fatalf("trace ID %q not derived from content address %q", ida, key[:16])
		}
	}
	if a.TraceID("k1") == a.TraceID("k1") {
		t.Fatal("same key at different ingress sequence must differ")
	}
}

func TestSpanTreeViaContext(t *testing.T) {
	tr := New(16, "svc")
	ctx, root := tr.Root(context.Background(), "deadbeefdeadbeefcafe", "ingress")
	if root == nil {
		t.Fatal("root span nil on live tracer")
	}
	ctx2, child := Start(ctx, "stage")
	_, grand := Start(ctx2, "inner")
	grand.End()
	child.End()
	root.Annotate("kind", "model")
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, sd := range spans {
		byName[sd.Name] = sd
		if sd.Trace != root.TraceID() {
			t.Fatalf("span %s has trace %q, want %q", sd.Name, sd.Trace, root.TraceID())
		}
		if sd.Proc != "svc" {
			t.Fatalf("span %s proc = %q", sd.Name, sd.Proc)
		}
	}
	if byName["ingress"].Parent != "" {
		t.Fatalf("root has parent %q", byName["ingress"].Parent)
	}
	if byName["stage"].Parent != byName["ingress"].ID {
		t.Fatalf("stage parent = %q, want ingress %q", byName["stage"].Parent, byName["ingress"].ID)
	}
	if byName["inner"].Parent != byName["stage"].ID {
		t.Fatalf("inner parent = %q, want stage %q", byName["inner"].Parent, byName["stage"].ID)
	}
	if got := byName["ingress"].Attrs; len(got) != 1 || got[0] != (Attr{K: "kind", V: "model"}) {
		t.Fatalf("ingress attrs = %v", got)
	}
	// Completion order: inner ended first.
	if spans[0].Name != "inner" || spans[2].Name != "ingress" {
		t.Fatalf("completion order wrong: %s ... %s", spans[0].Name, spans[2].Name)
	}
}

func TestRingBufferEvictsOldest(t *testing.T) {
	tr := New(4, "p")
	for i := 0; i < 10; i++ {
		tr.Record(SpanData{Trace: "t", ID: string(rune('a' + i)), Name: "s"})
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	if spans[0].ID != "g" || spans[3].ID != "j" {
		t.Fatalf("ring kept %q..%q, want g..j", spans[0].ID, spans[3].ID)
	}
}

func TestNilTracerDisabledEverywhere(t *testing.T) {
	var tr *Tracer
	if id := tr.TraceID("k"); id != "" {
		t.Fatalf("nil tracer minted ID %q", id)
	}
	ctx := context.Background()
	ctx2, sp := tr.Root(ctx, "k", "ingress")
	if ctx2 != ctx || sp != nil {
		t.Fatal("nil tracer Root must return ctx unchanged and a nil span")
	}
	ctx3, child := Start(ctx2, "stage")
	if ctx3 != ctx2 || child != nil {
		t.Fatal("Start on unbound ctx must be a no-op")
	}
	// Every nil-span method is a no-op, not a panic.
	sp.Annotate("k", "v")
	sp.AnnotateInt("n", 1)
	sp.End()
	sp.End()
	sp.Adopt(SpanData{})
	if sp.TraceID() != "" || sp.ID() != "" {
		t.Fatal("nil span leaked identity")
	}
	tr.Record(SpanData{})
	if tr.Spans() != nil || tr.Proc() != "" {
		t.Fatal("nil tracer not empty")
	}
	if ref := ContextRef(ctx); ref.Valid() || ref.Start("x") != nil {
		t.Fatal("unbound ContextRef must be invalid")
	}
	if Bind(ctx, (*Tracer)(nil), "p", "t", "") != ctx {
		t.Fatal("Bind with typed-nil tracer must return ctx unchanged")
	}
}

// TestDisabledPathAllocates0 is the nil-tracer fast-path guarantee the
// serving hot path depends on: with tracing off, span calls must not
// allocate at all.
func TestDisabledPathAllocates0(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	got := testing.AllocsPerRun(200, func() {
		c, root := tr.Root(ctx, "key", "ingress")
		c2, sp := Start(c, "stage")
		sp.Annotate("k", "v")
		sp.End()
		root.End()
		_, sp2 := Start(c2, "other")
		sp2.End()
	})
	if got != 0 {
		t.Fatalf("disabled tracing path allocates %.1f/op, want 0", got)
	}
}

func TestCollectorAndAdopt(t *testing.T) {
	col := &Collector{}
	ctx := Bind(context.Background(), col, "worker", "trace-1", "parentspan")
	ctx2, sp := Start(ctx, "worker.eval")
	_, inner := Start(ctx2, "render")
	inner.End()
	sp.End()

	shipped := col.Spans()
	if len(shipped) != 2 {
		t.Fatalf("collector holds %d, want 2", len(shipped))
	}
	if shipped[1].Parent != "parentspan" {
		t.Fatalf("eval parent = %q, want the bound parent", shipped[1].Parent)
	}

	// Coordinator-side stitch: adopt into a root span's sink.
	coordTr := New(8, "coord")
	_, shard := coordTr.Root(context.Background(), "key", "shard")
	for _, sd := range shipped {
		shard.Adopt(sd)
	}
	shard.End()
	if got := coordTr.Spans(); len(got) != 3 {
		t.Fatalf("coordinator ring holds %d, want 3", len(got))
	}
}

func TestTransplantAndRef(t *testing.T) {
	tr := New(8, "svc")
	ctx, root := tr.Root(context.Background(), "key", "ingress")
	fresh := context.Background()
	moved := Transplant(fresh, ctx)
	_, sp := Start(moved, "compute")
	if sp == nil {
		t.Fatal("transplanted ctx lost the binding")
	}
	sp.End()
	if Transplant(fresh, context.Background()) != fresh {
		t.Fatal("transplant from unbound src must return dst unchanged")
	}

	ref := ContextRef(ctx)
	if !ref.Valid() || ref.Trace != root.TraceID() || ref.Parent != root.ID() {
		t.Fatalf("ref = %+v", ref)
	}
	shard := ref.Start("shard")
	shard.AnnotateInt("attempt", 1)
	shard.End()
	root.End()
	spans := tr.Spans()
	var found bool
	for _, sd := range spans {
		if sd.Name == "shard" && sd.Parent == root.ID() {
			found = true
		}
	}
	if !found {
		t.Fatalf("ref-started shard span missing or misparented: %+v", spans)
	}
}

func TestAnnotateAfterEndDropped(t *testing.T) {
	tr := New(8, "p")
	_, sp := tr.Root(context.Background(), "k", "s")
	sp.End()
	sp.Annotate("late", "x")
	sp.End() // idempotent
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("double End recorded %d spans", len(spans))
	}
	if len(spans[0].Attrs) != 0 {
		t.Fatalf("post-End annotation leaked: %v", spans[0].Attrs)
	}
}
