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

func breakerReq(t *testing.T) *Request {
	t.Helper()
	req := &Request{Kind: KindEfficiency, Efficiency: &EfficiencyQuery{K: 3}}
	if err := req.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	return req
}

// evalN sends n requests through eval, each of which must be answered
// by the pool with exactly the local bytes.
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

// failN sends n requests through eval, each of which must fail with
// want (any error when want is nil).
func failN(t *testing.T, eval func(context.Context, *Request) (any, error), req *Request, n int, want error) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, err := eval(context.Background(), req)
		if err == nil || want != nil && !errors.Is(err, want) {
			t.Fatalf("call %d: err = %v, want %v", i, err, want)
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

// flakyTTL is the lease TTL of the quarantine tests' coordinator. Its
// strike window (dist: 4 lease TTLs), and so a first quarantine, is
// 400 ms.
const (
	flakyTTL    = 100 * time.Millisecond
	flakyWindow = 4 * flakyTTL
)

// flakyPool is a real coordinator with single-slot workers w0, w1, …
// whose efficiency evaluator nacks the pool's next failNext leases and
// then answers with EvalShard's bytes, behind PoolEvaluator. With one
// worker, a request that meets three failures gets the worker
// quarantined and fails: a quarantined worker gets no lease, so the
// coordinator fails the task with dist.ErrNoHealthyWorker.
type flakyPool struct {
	coord    *dist.Coordinator
	reg      *obs.Registry
	workers  int
	eval     func(context.Context, *Request) (any, error)
	failNext atomic.Int64
	leases   atomic.Int64 // evaluations the worker has started
}

func newFlakyPool(t *testing.T, workers, attempts int, ttl time.Duration) *flakyPool {
	t.Helper()
	p := &flakyPool{reg: obs.NewRegistry(), workers: workers}
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
	p.waitQuarantined(t, 0, 10*time.Second)
	p.eval = PoolEvaluator(p.coord, 8)
	return p
}

// waitQuarantined polls until every worker is connected and the
// coordinator's dist.quarantined_workers gauge (refreshed on each strike
// and each sweep) reads want, and returns how long that took.
func (p *flakyPool) waitQuarantined(t *testing.T, want int, limit time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	for p.coord.Workers() != p.workers || p.quarantined() != want {
		if time.Since(start) > limit {
			t.Fatalf("workers = %d, quarantined = %d after %v, want %d, %d",
				p.coord.Workers(), p.quarantined(), limit, p.workers, want)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start)
}

func (p *flakyPool) quarantined() int {
	return int(p.reg.Snapshot().Gauges["dist.quarantined_workers"])
}

// check asserts the workers' lease count so far.
func (p *flakyPool) check(t *testing.T, phase string, leases int64) {
	t.Helper()
	if got := p.leases.Load(); got != leases {
		t.Fatalf("%s: worker leases = %d, want %d", phase, got, leases)
	}
}

// TestBreakerOpenHalfOpenClosedCycle drives the coordinator's
// quarantine cycle on a real pool whose worker fails and then recovers.
// Open: three nacks quarantine the worker, and that request and the ones
// after it fail with dist.ErrNoHealthyWorker without a new lease.
// Half-open: when the quarantine ends, the next request reaches the
// worker. Closed: the recovered pool answers it, and the next one too,
// with Evaluate's bytes.
func TestBreakerOpenHalfOpenClosedCycle(t *testing.T) {
	p := newFlakyPool(t, 1, 4, flakyTTL)
	req := breakerReq(t)
	want := localJSON(t, req)

	p.failNext.Store(3)
	failN(t, p.eval, req, 1, dist.ErrNoHealthyWorker) // nack, nack, nack
	p.check(t, "strike-out", 3)
	if q := p.quarantined(); q != 1 {
		t.Fatalf("quarantined workers = %d after three nacks, want 1", q)
	}

	failN(t, p.eval, req, 2, dist.ErrNoHealthyWorker)
	p.check(t, "open", 3)

	p.waitQuarantined(t, 0, 10*time.Second)
	evalN(t, p.eval, req, 1, want)
	p.check(t, "half-open", 4)
	evalN(t, p.eval, req, 1, want)
	p.check(t, "closed", 5)
}

// TestBreakerReopensOnFailedProbe: a probe that fails quarantines the
// worker again. The coordinator's book has forgiven the worker by the
// time a quarantine ends, so the probe's strikes count from one, and its
// third failure starts a new quarantine of one window: the probe fails
// and so does the request after it, until that quarantine ends too.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	p := newFlakyPool(t, 1, 4, flakyTTL)
	req := breakerReq(t)
	want := localJSON(t, req)

	p.failNext.Store(3)
	failN(t, p.eval, req, 1, dist.ErrNoHealthyWorker)
	if first := p.waitQuarantined(t, 0, 10*time.Second); first > flakyWindow+flakyWindow/4 {
		t.Fatalf("first quarantine lasted %v, want about %v", first, flakyWindow)
	}

	p.failNext.Store(3)
	failN(t, p.eval, req, 1, dist.ErrNoHealthyWorker) // the probe fails three times
	p.check(t, "failed probe", 6)
	if q := p.quarantined(); q != 1 {
		t.Fatalf("quarantined workers = %d after a failed probe, want 1", q)
	}
	failN(t, p.eval, req, 1, dist.ErrNoHealthyWorker)
	p.check(t, "reopened", 6)
	if again := p.waitQuarantined(t, 0, 10*time.Second); again > flakyWindow+flakyWindow/4 {
		t.Fatalf("second quarantine lasted %v, want about %v", again, flakyWindow)
	}
	evalN(t, p.eval, req, 1, want)
	p.check(t, "closed", 7)
}

// TestPoolNackStormIsSkipped: when every worker nacks every lease, the
// coordinator's quarantines alone take the pool out of use. A worker
// takes three leases — it is quarantined at the third nack and gets no
// more — so at eight lease attempts per shard one single-shard request
// strikes out 1 and 2 workers (3 and 6 leases, the task failing with
// dist.ErrNoHealthyWorker), and 4 workers take two (8 leases, the first
// request exhausting its attempts, then 4). Once every worker is
// quarantined a request fails without a lease.
func TestPoolNackStormIsSkipped(t *testing.T) {
	for _, row := range []struct {
		workers int
		leases  []int64 // worker leases after each request that reaches the pool
	}{{1, []int64{3}}, {2, []int64{6}}, {4, []int64{8, 12}}} {
		t.Run(fmt.Sprintf("workers=%d", row.workers), func(t *testing.T) {
			p := newFlakyPool(t, row.workers, 8, dist.DefaultLeaseTTL)
			p.failNext.Store(1 << 30)
			req := breakerReq(t)
			for i, leases := range row.leases {
				failN(t, p.eval, req, 1, nil)
				p.check(t, fmt.Sprintf("request %d", i+1), leases)
			}
			if q := p.quarantined(); q != row.workers {
				t.Fatalf("quarantined workers = %d after %d requests, want %d", q, len(row.leases), row.workers)
			}
			failN(t, p.eval, req, 1, dist.ErrNoHealthyWorker)
			p.check(t, "skipped", row.leases[len(row.leases)-1])
		})
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
