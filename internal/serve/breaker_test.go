package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
)

// breakerClock is a manually advanced stub clock.
type breakerClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *breakerClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *breakerClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// stubPool is an in-process Pool: when failing, Run errors; otherwise
// it evaluates the task's single shard with the local evaluator (the
// same bytes the real pool would return).
type stubPool struct {
	failing atomic.Bool
	healthy atomic.Int64
	calls   atomic.Int64
}

func (p *stubPool) HealthyWorkers() int { return int(p.healthy.Load()) }

func (p *stubPool) Run(ctx context.Context, t dist.Task) ([][]byte, error) {
	p.calls.Add(1)
	if p.failing.Load() {
		return nil, errors.New("stub pool down")
	}
	payload, err := EvalShard(ctx, t.Spec, 0, t.N)
	if err != nil {
		return nil, err
	}
	return [][]byte{payload}, nil
}

func breakerReq(t *testing.T) *Request {
	t.Helper()
	req := &Request{Kind: KindEfficiency, Efficiency: &EfficiencyQuery{K: 3}}
	if err := req.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	return req
}

// evalN sends n requests through eval, each of which must be
// answered — by the pool or by local fallback — with exactly the local bytes.
func evalN(t *testing.T, eval func(context.Context, *Request) (any, error), req *Request, n int, want []byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		got, err := eval(context.Background(), req)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if gj, _ := json.Marshal(got); !bytes.Equal(gj, want) {
			t.Fatalf("call %d: fallback diverges from local: %s vs %s", i, gj, want)
		}
	}
}

func localJSON(t *testing.T, req *Request) []byte {
	t.Helper()
	want, err := Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(want)
	return b
}

// TestBreakerOpenHalfOpenClosedCycle drives the full cycle: repeated
// pool infrastructure failures quarantine the pool (requests keep
// succeeding via local fallback, byte-identical), a quarantined pool is
// not touched, expiry admits the next request as the probe, and a
// healthy probe closes the breaker again.
func TestBreakerOpenHalfOpenClosedCycle(t *testing.T) {
	clk := &breakerClock{t: time.Unix(1000, 0)}
	pool := &stubPool{}
	pool.healthy.Store(1)
	pool.failing.Store(true)
	reg := obs.NewRegistry()
	br := NewBreaker(BreakerConfig{Registry: reg, now: clk.Now})
	eval := br.Evaluator(pool, 8)
	req := breakerReq(t)
	want := localJSON(t, req)

	// Below the threshold the pool keeps being tried.
	evalN(t, eval, req, breakerThreshold-1, want)
	if got := br.State(); got != BreakerClosed {
		t.Fatalf("state after %d failures = %q, want closed", breakerThreshold-1, got)
	}
	evalN(t, eval, req, 1, want)
	if got := br.State(); got != BreakerOpen {
		t.Fatalf("state after %d failures = %q, want open", breakerThreshold, got)
	}
	if got := pool.calls.Load(); got != breakerThreshold {
		t.Fatalf("pool attempts = %d, want %d", got, breakerThreshold)
	}
	// While quarantined, the pool is not touched.
	evalN(t, eval, req, 2, want)
	if got := pool.calls.Load(); got != breakerThreshold {
		t.Fatal("open breaker still sent a request to the pool")
	}

	// Quarantine expires: half-open, the next request is the probe; the
	// pool has recovered.
	clk.Advance(breakerWindow + time.Second)
	if got := br.State(); got != BreakerHalfOpen {
		t.Fatalf("state after expiry = %q, want half-open", got)
	}
	pool.failing.Store(false)
	evalN(t, eval, req, 1, want)
	if got := pool.calls.Load(); got != breakerThreshold+1 {
		t.Fatal("half-open did not probe the pool")
	}
	if got := br.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %q, want closed", got)
	}
	snap := reg.Snapshot()
	if o, p, f := snap.Counters["serve.breaker_opens"], snap.Counters["serve.breaker_probes"], snap.Counters["serve.breaker_fallbacks"]; o != 1 || p != 1 || f != breakerThreshold+2 {
		t.Fatalf("opens/probes/fallbacks = %d/%d/%d, want 1/1/%d", o, p, f, breakerThreshold+2)
	}
	if g := snap.Gauges["serve.breaker_state"]; g != 0 {
		t.Fatalf("serve.breaker_state = %v after closing, want 0", g)
	}
}

// TestBreakerReopensOnFailedProbe: a failing probe is one more strike
// on the record the book holds, and the quarantine it earns is longer
// than the first. The probe lands at the instant of expiry, as in
// internal/health's own table: the book forgives a record once it is out
// of quarantine and a window past its last strike, so a probe any later
// than that counts from one.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	clk := &breakerClock{t: time.Unix(1000, 0)}
	pool := &stubPool{}
	pool.healthy.Store(1)
	pool.failing.Store(true)
	br := NewBreaker(BreakerConfig{now: clk.Now})
	eval := br.Evaluator(pool, 8)
	req := breakerReq(t)
	want := localJSON(t, req)

	evalN(t, eval, req, breakerThreshold, want) // opens
	clk.Advance(breakerWindow)
	evalN(t, eval, req, 1, want) // the probe fails, still served locally
	if got := pool.calls.Load(); got != breakerThreshold+1 {
		t.Fatalf("pool attempts = %d, want the %d failures plus one probe", got, breakerThreshold)
	}
	if got := br.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %q, want open", got)
	}
	// One window was enough to re-probe the first time; not the second.
	clk.Advance(breakerWindow + time.Second)
	if got := br.State(); got != BreakerOpen {
		t.Fatalf("state one window after a failed probe = %q, want still open (doubled quarantine)", got)
	}
	clk.Advance(breakerWindow)
	if got := br.State(); got != BreakerHalfOpen {
		t.Fatalf("state two windows after a failed probe = %q, want half-open", got)
	}
}

// TestBreakerZeroHealthyFastPath: a pool reporting zero healthy workers
// is never attempted — the request goes local at once instead of
// letting Run block against empty capacity — and, nothing having
// failed, is used again the moment it reports capacity.
func TestBreakerZeroHealthyFastPath(t *testing.T) {
	clk := &breakerClock{t: time.Unix(1000, 0)}
	pool := &stubPool{} // healthy = 0
	reg := obs.NewRegistry()
	br := NewBreaker(BreakerConfig{Registry: reg, now: clk.Now})
	eval := br.Evaluator(pool, 8)
	req := breakerReq(t)
	want := localJSON(t, req)

	evalN(t, eval, req, breakerThreshold+1, want)
	if pool.calls.Load() != 0 {
		t.Fatal("pool attempted despite zero healthy workers")
	}
	if got := reg.Snapshot().Counters["serve.breaker_fallbacks"]; got != breakerThreshold+1 {
		t.Fatalf("serve.breaker_fallbacks = %d, want %d", got, breakerThreshold+1)
	}
	if got := br.State(); got != BreakerClosed {
		t.Fatalf("state = %q: an unattempted pool earned strikes", got)
	}
	pool.healthy.Store(2)
	evalN(t, eval, req, 1, want)
	if pool.calls.Load() != 1 {
		t.Fatal("pool not used once capacity returned")
	}
}

// errPool always fails Run with a fixed error.
type errPool struct{ err error }

func (p *errPool) HealthyWorkers() int                              { return 1 }
func (p *errPool) Run(context.Context, dist.Task) ([][]byte, error) { return nil, p.err }

// TestBreakerIgnoresNonInfraFailures: request-shaped failures and
// caller cancellations must not trip the breaker — only pool
// infrastructure failures count.
func TestBreakerIgnoresNonInfraFailures(t *testing.T) {
	req := breakerReq(t)

	// A pool surfacing ErrBadRequest (e.g. a worker rejecting the shard
	// spec) is a request problem, not pool health.
	bad := fmt.Errorf("%w: synthetic rejection", ErrBadRequest)
	br := NewBreaker(BreakerConfig{})
	eval := br.Evaluator(&errPool{err: bad}, 8)
	for i := 0; i < 2*breakerThreshold; i++ {
		if _, err := eval(context.Background(), req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("err = %v, want ErrBadRequest", err)
		}
	}
	if got := br.State(); got != BreakerClosed {
		t.Fatalf("bad requests tripped the breaker: state = %q", got)
	}

	// A caller abandoning the request mid-flight says nothing about the
	// pool either.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	br2 := NewBreaker(BreakerConfig{})
	eval2 := br2.Evaluator(&errPool{err: ctx.Err()}, 8)
	for i := 0; i < 2*breakerThreshold; i++ {
		if _, err := eval2(ctx, req); err == nil {
			t.Fatal("cancelled request unexpectedly succeeded")
		}
	}
	if got := br2.State(); got != BreakerClosed {
		t.Fatalf("caller cancellations tripped the breaker: state = %q", got)
	}
}

// TestRetryAfterDerived: the 429 hint follows gate depth × eval p95 /
// workers, clamped to [1, 30].
func TestRetryAfterDerived(t *testing.T) {
	s := New(Config{Workers: 2, Queue: 8})
	defer s.Close()

	// No admitted work, no history: floor of 1s.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("idle retry-after = %d, want 1", got)
	}

	// Six admitted requests at a 2s p95 across 2 workers: ~6s of queue.
	// Two hold the worker slots; four more wait in the queue (Acquire
	// blocks past Workers, so the waiters sit on goroutines).
	released := make(chan func(), 6)
	for i := 0; i < 2; i++ {
		release, err := s.gate.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		released <- release
	}
	for i := 0; i < 4; i++ {
		go func() {
			release, err := s.gate.Acquire(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			released <- release
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.Admitted() < 6 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.gate.Admitted(); got != 6 {
		t.Fatalf("admitted = %d, want 6", got)
	}
	defer func() {
		for i := 0; i < 6; i++ {
			(<-released)()
		}
	}()
	for i := 0; i < 20; i++ {
		s.evalMs.Observe(2000)
	}
	if got := s.retryAfterSeconds(); got != 6 {
		t.Fatalf("retry-after = %d, want 6 (6 admitted × 2000ms / 2 workers)", got)
	}

	// A pathological p95 clamps at 30s.
	for i := 0; i < 200; i++ {
		s.evalMs.Observe(120000)
	}
	if got := s.retryAfterSeconds(); got != 30 {
		t.Fatalf("retry-after = %d, want clamp at 30", got)
	}
}
