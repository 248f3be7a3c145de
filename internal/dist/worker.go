package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/retry"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Name identifies the worker in coordinator logs (defaults to the
	// local address once connected).
	Name string
	// Slots is the number of shards evaluated concurrently (default 1).
	Slots int
	// Addr is the coordinator's TCP address.
	Addr string
	// Dial overrides the connection factory; tests wrap the returned conn
	// with internal/faults injectors. Defaults to net.Dial("tcp", addr).
	Dial func(addr string) (net.Conn, error)
	// Reconnect shapes the redial loop after a lost connection (default:
	// unbounded attempts, 100ms base, 2s cap).
	Reconnect retry.Policy
	// Registry receives worker-side dist.* metrics (nil disables).
	Registry *obs.Registry
	// Logger receives worker events (nil = discard).
	Logger *slog.Logger
}

// Worker connects to a coordinator, leases shards, evaluates them with
// registered Evaluators, and streams back results. Run blocks until the
// context fires, reconnecting through transient failures.
type Worker struct {
	cfg    WorkerConfig
	logger *slog.Logger
	evals  map[string]Evaluator

	cShards, cErrors *obs.Counter
	hEvalMs          *obs.Histogram
}

// NewWorker builds a Worker from cfg. Register evaluators before Run.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.Reconnect.MaxAttempts == 0 {
		cfg.Reconnect.MaxAttempts = 1 << 30
	}
	if cfg.Reconnect.BaseDelay <= 0 {
		cfg.Reconnect.BaseDelay = 100 * time.Millisecond
	}
	if cfg.Reconnect.MaxDelay <= 0 {
		cfg.Reconnect.MaxDelay = 2 * time.Second
	}
	w := &Worker{
		cfg:    cfg,
		logger: obs.Component(obs.OrNop(cfg.Logger), "dist.worker"),
		evals:  make(map[string]Evaluator),

		cShards: cfg.Registry.Counter("dist.worker.shards"),
		cErrors: cfg.Registry.Counter("dist.worker.errors"),
		hEvalMs: cfg.Registry.Histogram("dist.worker.eval_ms"),
	}
	return w
}

// Register installs the evaluator for kind. Not safe to call after Run.
func (w *Worker) Register(kind string, ev Evaluator) {
	w.evals[kind] = ev
}

// Run connects to the coordinator and serves leases until ctx fires,
// redialing with backoff after disconnects. A protocol version mismatch
// is fatal and returned immediately.
func (w *Worker) Run(ctx context.Context) error {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := w.session(ctx)
		if ctx.Err() != nil || err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return ctx.Err()
		}
		var pv *versionError
		if errors.As(err, &pv) {
			return err
		}
		if attempt >= w.cfg.Reconnect.MaxAttempts {
			return fmt.Errorf("dist: worker gave up after %d connection attempts: %w", attempt, err)
		}
		w.logger.Warn("session ended, reconnecting", "err", err, "attempt", attempt)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(w.cfg.Reconnect.Delay(attempt + 1)):
		}
	}
}

// versionError marks a fatal protocol mismatch (no point redialing).
type versionError struct{ msg string }

func (e *versionError) Error() string { return e.msg }

// session runs one connection lifetime: dial, handshake, serve leases.
func (w *Worker) session(ctx context.Context) error {
	conn, err := w.cfg.Dial(w.cfg.Addr)
	if err != nil {
		return err
	}
	defer conn.Close() //nolint:errcheck
	// Tear the conn down when ctx fires so blocked reads unwind.
	stopWatch := context.AfterFunc(ctx, func() { _ = conn.Close() })
	defer stopWatch()

	var wmu sync.Mutex // serializes frame writes from lease goroutines
	send := func(f *Frame) error {
		wmu.Lock()
		defer wmu.Unlock()
		return WriteFrame(conn, f)
	}
	if err := send(&Frame{T: TypeHello, V: ProtocolVersion, Worker: w.cfg.Name, Slots: w.cfg.Slots}); err != nil {
		return fmt.Errorf("dist: handshake write: %w", err)
	}
	ack, err := ReadFrame(conn)
	if err != nil {
		return fmt.Errorf("dist: handshake read: %w", err)
	}
	switch {
	case ack.T == TypeNack:
		return &versionError{msg: "dist: coordinator rejected handshake: " + ack.Err}
	case ack.T != TypeHello || ack.V != ProtocolVersion:
		return fmt.Errorf("dist: unexpected handshake reply %q v%d", ack.T, ack.V)
	}
	w.logger.Info("connected", "coordinator", w.cfg.Addr, "slots", w.cfg.Slots)

	// Lease goroutines run per grant; the coordinator never grants more
	// than Slots at once, so no local admission gate is needed.
	var leases sync.WaitGroup
	defer leases.Wait()
	slots := make(taskSlots, 0, w.cfg.Slots)

	for {
		f, err := ReadFrame(conn)
		if err != nil {
			return fmt.Errorf("dist: read: %w", err)
		}
		if f.T == TypeHeartbeat {
			// Echo the ping from the read loop, never a timer: the echo says
			// every lease sent before it was read, so wedged reads fall silent.
			// A failed write leaves a broken conn for the next read to report.
			_ = send(f)
			continue
		}
		if f.T != TypeLease || f.Lease == nil {
			w.logger.Warn("unexpected frame from coordinator", "type", f.T)
			continue
		}
		leases.Add(1)
		lctx := context.WithValue(ctx, slotKey{}, slots.lease(f.Lease))
		go func(l *Lease) {
			defer leases.Done()
			w.serveLease(lctx, l, send)
		}(f.Lease)
	}
}

// taskSlots is one session's prepared tasks, most recently leased first,
// at most its capacity (WorkerConfig.Slots) of them. A local of the
// session's read loop: unlocked, and gone with the connection.
type taskSlots []*taskSlot

// lease moves the slot of l's task (same kind, same spec bytes) to the
// front; a task not held gets a fresh slot, evicting the least recently
// leased when full — leases still running on that one keep their pointer.
func (ts *taskSlots) lease(l *Lease) *taskSlot {
	s := *ts
	i := slices.IndexFunc(s, func(p *taskSlot) bool { return p.kind == l.Kind && bytes.Equal(p.spec, l.Spec) })
	if i < 0 {
		if len(s) < cap(s) {
			s = s[:len(s)+1]
		}
		i = len(s) - 1
		s[i] = &taskSlot{kind: l.Kind, spec: l.Spec}
	}
	slot := s[i]
	copy(s[1:i+1], s[:i])
	s[0] = slot
	*ts = s
	return slot
}

// serveLease evaluates one granted shard, then sends the result (or a
// nack).
func (w *Worker) serveLease(ctx context.Context, l *Lease, send func(*Frame) error) {
	ev, ok := w.evals[l.Kind]
	if !ok {
		w.cErrors.Inc()
		_ = send(&Frame{T: TypeNack, Addr: l.Addr, Err: fmt.Sprintf("dist: no evaluator registered for kind %q", l.Kind)})
		return
	}
	start := time.Now()
	// Traced lease: bind a collector so the eval span — and any spans the
	// evaluator itself opens — are captured and shipped back with the
	// result for coordinator-side stitching. Untraced leases skip all of
	// it (ctx stays unbound, every span call below is a nil no-op).
	var col *trace.Collector
	evalCtx := ctx
	var sp *trace.Span
	if l.TraceID != "" {
		col = &trace.Collector{}
		proc := w.cfg.Name
		if proc == "" {
			proc = "dist.worker"
		}
		evalCtx = trace.Bind(ctx, col, proc, l.TraceID, l.ParentSpanID)
		evalCtx, sp = trace.Start(evalCtx, "worker.eval")
		sp.Annotate("kind", l.Kind)
		sp.AnnotateInt("lo", l.Lo)
		sp.AnnotateInt("hi", l.Hi)
	}
	var payload []byte
	var err error
	// Goroutine labels make shard evals attributable in CPU profiles.
	pprof.Do(evalCtx, pprof.Labels(
		"dist.kind", l.Kind,
		"dist.shard", strconv.Itoa(l.Lo)+"-"+strconv.Itoa(l.Hi),
		"dist.trace", l.TraceID,
	), func(lctx context.Context) {
		payload, err = ev(lctx, l.Spec, l.Lo, l.Hi)
	})
	sp.End()
	evalMs := obs.Ms(time.Since(start))
	w.hEvalMs.Observe(evalMs)
	if err != nil {
		w.cErrors.Inc()
		w.logger.Warn("shard failed", "shard", l.Addr[:min(12, len(l.Addr))], "err", err)
		_ = send(&Frame{T: TypeNack, Addr: l.Addr, Err: err.Error()})
		return
	}
	w.cShards.Inc()
	f := &Frame{T: TypeResult, Addr: l.Addr, Payload: payload, EvalMs: evalMs}
	if col != nil {
		f.Spans = col.Spans()
	}
	_ = send(f)
}
