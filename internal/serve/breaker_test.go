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
	"repro/internal/retry"
)

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
			t.Fatalf("call %d: answer diverges from local: %s vs %s", i, gj, want)
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

// flakyTTL is the lease TTL of the breaker tests' coordinator. Its
// strike window (dist: 4 lease TTLs), and so a first quarantine, is
// 400 ms.
const (
	flakyTTL    = 100 * time.Millisecond
	flakyWindow = 4 * flakyTTL
)

// flakyPool is a real coordinator with single-slot workers w0, w1, …
// whose efficiency evaluator nacks the pool's next failNext leases and
// then answers with EvalShard's bytes. With one worker, a request that
// meets three failures gets the worker quarantined and is answered
// locally: a quarantined worker gets no lease, so the coordinator fails
// the task with dist.ErrNoHealthyWorker.
type flakyPool struct {
	coord    *dist.Coordinator
	reg      *obs.Registry
	eval     func(context.Context, *Request) (any, error)
	failNext atomic.Int64
	leases   atomic.Int64 // evaluations the worker has started
}

func newFlakyPool(t *testing.T, workers, attempts int, ttl time.Duration) *flakyPool {
	t.Helper()
	p := &flakyPool{reg: obs.NewRegistry()}
	p.coord = dist.New(dist.Config{
		Registry: p.reg, LeaseTTL: ttl,
		Requeue: retry.Policy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	addr, err := p.coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wk := dist.NewWorker(dist.WorkerConfig{Name: fmt.Sprintf("w%d", i), Slots: 1, Addr: addr})
		wk.Register(KindEfficiency, func(ctx context.Context, spec []byte, lo, hi int) ([]byte, error) {
			p.leases.Add(1)
			if p.failNext.Add(-1) >= 0 {
				return nil, errors.New("synthetic failure")
			}
			return EvalShard(ctx, spec, lo, hi)
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = wk.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		p.coord.Close()
		wg.Wait()
	})
	p.waitHealthy(t, workers, 10*time.Second)
	p.eval = FallbackEvaluator(p.coord, 8, p.reg, nil)
	return p
}

// waitHealthy polls until the pool reports want healthy workers and
// returns how long that took.
func (p *flakyPool) waitHealthy(t *testing.T, want int, limit time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	for p.coord.HealthyWorkers() != want {
		if time.Since(start) > limit {
			t.Fatalf("healthy workers = %d after %v, want %d", p.coord.HealthyWorkers(), limit, want)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start)
}

// check asserts the worker's lease count and the local answers so far.
func (p *flakyPool) check(t *testing.T, phase string, leases, fallbacks int64) {
	t.Helper()
	if got := p.leases.Load(); got != leases {
		t.Fatalf("%s: worker leases = %d, want %d", phase, got, leases)
	}
	if got := p.reg.Snapshot().Counters["serve.pool_fallbacks"]; got != fallbacks {
		t.Fatalf("%s: serve.pool_fallbacks = %d, want %d", phase, got, fallbacks)
	}
}

// TestBreakerOpenHalfOpenClosedCycle drives the full cycle on a real
// coordinator whose worker fails and then recovers. Open: three nacks
// quarantine the worker, and that request and the ones after it are
// answered locally without a new lease. Half-open: when the quarantine ends, the next
// request reaches the pool. Closed: the recovered pool answers it, and
// the next one too. Every answer is Evaluate's bytes.
func TestBreakerOpenHalfOpenClosedCycle(t *testing.T) {
	p := newFlakyPool(t, 1, 4, flakyTTL)
	req := breakerReq(t)
	want := localJSON(t, req)

	p.failNext.Store(3)
	evalN(t, p.eval, req, 1, want) // nack, nack, nack, then a local answer
	p.check(t, "strike-out", 3, 1)
	if h := p.coord.HealthyWorkers(); h != 0 {
		t.Fatalf("healthy workers = %d after three nacks, want 0 (quarantined)", h)
	}

	evalN(t, p.eval, req, 2, want)
	p.check(t, "open", 3, 3)

	p.waitHealthy(t, 1, 10*time.Second)
	evalN(t, p.eval, req, 1, want)
	p.check(t, "half-open", 4, 3)
	evalN(t, p.eval, req, 1, want)
	p.check(t, "closed", 5, 3)
}

// TestBreakerReopensOnFailedProbe: a probe that fails quarantines the
// worker again. The coordinator's book has forgiven the worker by the
// time a quarantine ends, so the probe's strikes count from one, and its
// third failure starts a new quarantine of one window: the probe is
// answered locally and so is the request after it, until that
// quarantine ends too.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	p := newFlakyPool(t, 1, 4, flakyTTL)
	req := breakerReq(t)
	want := localJSON(t, req)

	p.failNext.Store(3)
	evalN(t, p.eval, req, 1, want)
	if first := p.waitHealthy(t, 1, 10*time.Second); first > flakyWindow+flakyWindow/4 {
		t.Fatalf("first quarantine lasted %v, want about %v", first, flakyWindow)
	}

	p.failNext.Store(3)
	evalN(t, p.eval, req, 1, want) // the probe fails three times: answered locally
	p.check(t, "failed probe", 6, 2)
	if h := p.coord.HealthyWorkers(); h != 0 {
		t.Fatalf("healthy workers = %d after a failed probe, want 0 (quarantined again)", h)
	}
	evalN(t, p.eval, req, 1, want)
	p.check(t, "reopened", 6, 3)
	if again := p.waitHealthy(t, 1, 10*time.Second); again > flakyWindow+flakyWindow/4 {
		t.Fatalf("second quarantine lasted %v, want about %v", again, flakyWindow)
	}
	evalN(t, p.eval, req, 1, want)
	p.check(t, "closed", 7, 3)
}

// TestPoolNackStormIsSkipped: when every worker nacks every lease, the
// coordinator's quarantines alone take the pool out of use. A worker
// takes three leases — it is quarantined at the third nack and gets no
// more — so at btserve's eight lease attempts per shard one single-shard
// request strikes out 1 and 2 workers (3 and 6 leases, the task failing
// with dist.ErrNoHealthyWorker), and 4 workers take two (8 leases, then
// 4). Every answer is local, and Evaluate's bytes.
func TestPoolNackStormIsSkipped(t *testing.T) {
	for _, row := range []struct {
		workers int
		leases  []int64 // worker leases after each request that reaches the pool
	}{{1, []int64{3}}, {2, []int64{6}}, {4, []int64{8, 12}}} {
		t.Run(fmt.Sprintf("workers=%d", row.workers), func(t *testing.T) {
			p := newFlakyPool(t, row.workers, 8, dist.DefaultLeaseTTL)
			p.failNext.Store(1 << 30)
			req := breakerReq(t)
			want := localJSON(t, req)
			for i, leases := range row.leases {
				evalN(t, p.eval, req, 1, want)
				p.check(t, fmt.Sprintf("request %d", i+1), leases, int64(i+1))
			}
			reached := len(row.leases)
			if h := p.coord.HealthyWorkers(); h != 0 {
				t.Fatalf("healthy workers = %d after %d requests, want 0", h, reached)
			}
			evalN(t, p.eval, req, 1, want)
			p.check(t, "skipped", row.leases[reached-1], int64(reached+1))
		})
	}
}

// TestBreakerZeroHealthyFastPath: a pool reporting zero healthy workers
// is never attempted — the request goes local at once instead of
// letting Run block against empty capacity — and, nothing having
// failed, is used again the moment it reports capacity.
func TestBreakerZeroHealthyFastPath(t *testing.T) {
	pool := &stubPool{} // healthy = 0
	reg := obs.NewRegistry()
	eval := FallbackEvaluator(pool, 8, reg, nil)
	req := breakerReq(t)
	want := localJSON(t, req)

	evalN(t, eval, req, 4, want)
	if pool.calls.Load() != 0 {
		t.Fatal("pool attempted despite zero healthy workers")
	}
	if got := reg.Snapshot().Counters["serve.pool_fallbacks"]; got != 4 {
		t.Fatalf("serve.pool_fallbacks = %d, want 4", got)
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
// caller cancellations are returned as they are — only pool
// infrastructure failures are answered locally.
func TestBreakerIgnoresNonInfraFailures(t *testing.T) {
	req := breakerReq(t)
	reg := obs.NewRegistry()

	// A pool surfacing ErrBadRequest (e.g. a worker rejecting the shard
	// spec) is a request problem, not pool health.
	bad := fmt.Errorf("%w: synthetic rejection", ErrBadRequest)
	eval := FallbackEvaluator(&errPool{err: bad}, 8, reg, nil)
	for i := 0; i < 6; i++ {
		if _, err := eval(context.Background(), req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("err = %v, want ErrBadRequest", err)
		}
	}

	// A caller abandoning the request mid-flight says nothing about the
	// pool either.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eval = FallbackEvaluator(&errPool{err: ctx.Err()}, 8, reg, nil)
	for i := 0; i < 6; i++ {
		if _, err := eval(ctx, req); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
	if got := reg.Snapshot().Counters["serve.pool_fallbacks"]; got != 0 {
		t.Fatalf("serve.pool_fallbacks = %d: a bad request or a cancellation was answered locally", got)
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
