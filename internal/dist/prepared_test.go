package dist_test

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/retry"
)

// buildLog counts dist.Prepared builds per spec.
type buildLog struct {
	mu sync.Mutex
	n  map[string]int
}

func (b *buildLog) count(spec string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n[spec]
}

func (b *buildLog) total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	sum := 0
	for _, n := range b.n {
		sum += n
	}
	return sum
}

// eval is sumEval over a prepared value: the spec's length, built through
// dist.Prepared and counted.
func (b *buildLog) eval(ctx context.Context, spec []byte, lo, hi int) ([]byte, error) {
	n, err := dist.Prepared(ctx, func() (int, error) {
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.n == nil {
			b.n = map[string]int{}
		}
		b.n[string(spec)]++
		return len(spec), nil
	})
	if err != nil {
		return nil, err
	}
	return sumEval(ctx, make([]byte, n), lo, hi)
}

// slotPool is a coordinator with one worker of the given slot count
// running ev; run submits one task of n single-unit shards and checks
// the payloads against sumEval.
type slotPool struct {
	t     *testing.T
	ctx   context.Context
	coord *dist.Coordinator
}

func newSlotPool(t *testing.T, slots int, ev dist.Evaluator, mutate func(*dist.WorkerConfig)) *slotPool {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	coord := dist.New(dist.Config{Requeue: retry.Policy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(coord.Close)
	cfg := dist.WorkerConfig{
		Name: "w", Slots: slots, Addr: addr,
		Reconnect: retry.Policy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	t.Cleanup(startWorker(t, ctx, cfg, "sum", ev))
	waitFor(t, func() bool { return coord.Workers() == 1 })
	return &slotPool{t: t, ctx: ctx, coord: coord}
}

func (p *slotPool) run(spec string, n int) {
	p.t.Helper()
	got, err := p.coord.Run(p.ctx, dist.Task{Kind: "sum", Spec: []byte(spec), N: n, ShardSize: 1})
	if err != nil {
		p.t.Fatalf("run %s: %v", spec, err)
	}
	for i, payload := range got {
		if want, _ := sumEval(p.ctx, []byte(spec), i, i+1); string(payload) != string(want) {
			p.t.Fatalf("%s shard %d payload %s, want %s", spec, i, payload, want)
		}
	}
}

const specA, specB, specC = `"a"`, `"bb"`, `"ccc"`

// TestPreparedOncePerTask: the eight consecutive shards of one task on a
// single-slot worker build once — the serve_dist shape.
func TestPreparedOncePerTask(t *testing.T) {
	var log buildLog
	newSlotPool(t, 1, log.eval, nil).run(specA, 8)
	if n := log.count(specA); n != 1 {
		t.Fatalf("8 shards of one task built %d times, want 1", n)
	}
}

// TestPreparedInterleavedTasks: a worker holds as many tasks as it has
// slots. Two alternating tasks each build once on a two-slot worker; a
// one-slot worker rebuilds at every switch, which is the documented
// price of Slots = 1 and not something to hide behind a larger table.
func TestPreparedInterleavedTasks(t *testing.T) {
	for _, tc := range []struct{ slots, builds int }{{2, 2}, {1, 4}} {
		var log buildLog
		p := newSlotPool(t, tc.slots, log.eval, nil)
		for _, spec := range []string{specA, specB, specA, specB} {
			p.run(spec, 1)
		}
		if n := log.total(); n != tc.builds {
			t.Errorf("slots=%d: A,B,A,B built %d times, want %d", tc.slots, n, tc.builds)
		}
	}
}

// TestPreparedEvictsLeastRecentlyLeased: with both slots full a third
// task displaces the one leased longest ago, not the one just used.
func TestPreparedEvictsLeastRecentlyLeased(t *testing.T) {
	var log buildLog
	p := newSlotPool(t, 2, log.eval, nil)
	for _, spec := range []string{specA, specB, specA, specC, specA, specB} {
		p.run(spec, 1)
	}
	for spec, want := range map[string]int{specA: 1, specB: 2, specC: 1} {
		if n := log.count(spec); n != want {
			t.Errorf("task %s built %d times, want %d (C must evict B, the least recently leased)", spec, n, want)
		}
	}
}

// TestPreparedConcurrentLeasesShareOneBuild: four leases of one task in
// flight at once — all inside the evaluator before any asks — still
// build once, and all see that value.
func TestPreparedConcurrentLeasesShareOneBuild(t *testing.T) {
	var log buildLog
	var inside atomic.Int32
	p := newSlotPool(t, 4, func(ctx context.Context, spec []byte, lo, hi int) ([]byte, error) {
		inside.Add(1)
		for inside.Load() < 4 {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			runtime.Gosched()
		}
		return log.eval(ctx, spec, lo, hi)
	}, nil)
	p.run(specA, 4)
	if n := log.count(specA); n != 1 {
		t.Fatalf("4 concurrent leases built %d times, want 1", n)
	}
}

// TestPreparedFailedBuildIsRetried: a build that fails nacks its shard
// and leaves nothing behind; the next lease builds again, and what that
// one built serves the rest — the requeued shard included.
func TestPreparedFailedBuildIsRetried(t *testing.T) {
	var builds atomic.Int32
	p := newSlotPool(t, 1, func(ctx context.Context, spec []byte, lo, hi int) ([]byte, error) {
		n, err := dist.Prepared(ctx, func() (int, error) {
			if builds.Add(1) == 1 {
				return 0, errors.New("synthetic build failure")
			}
			return len(spec), nil
		})
		if err != nil {
			return nil, err
		}
		return sumEval(ctx, make([]byte, n), lo, hi)
	}, nil)
	p.run(specA, 3)
	if n := builds.Load(); n != 2 {
		t.Fatalf("built %d times, want 2 (one failure, one kept)", n)
	}
}

// TestPreparedWithoutSlotBuildsPerCall: a context that never passed
// through a worker session carries no slot, so nothing is remembered.
func TestPreparedWithoutSlotBuildsPerCall(t *testing.T) {
	var log buildLog
	for i := 0; i < 3; i++ {
		if _, err := log.eval(context.Background(), []byte(specA), 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := log.count(specA); n != 3 {
		t.Fatalf("3 direct calls built %d times, want 3", n)
	}
}

// TestPreparedDiesWithSession: slots belong to the connection. After a
// reconnect the same task builds again, and the value the dead session
// built is garbage — nothing in the still-running worker reaches it.
func TestPreparedDiesWithSession(t *testing.T) {
	var builds atomic.Int32
	collected := make(chan struct{}, 2)
	var mu sync.Mutex
	var conns []net.Conn
	p := newSlotPool(t, 2, func(ctx context.Context, spec []byte, lo, hi int) ([]byte, error) {
		v, err := dist.Prepared(ctx, func() (*[1 << 10]byte, error) {
			builds.Add(1)
			v := new([1 << 10]byte)
			runtime.SetFinalizer(v, func(*[1 << 10]byte) { collected <- struct{}{} })
			return v, nil
		})
		if err != nil {
			return nil, err
		}
		runtime.KeepAlive(v)
		return sumEval(ctx, spec, lo, hi)
	}, func(cfg *dist.WorkerConfig) {
		cfg.Dial = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err == nil {
				mu.Lock()
				conns = append(conns, c)
				mu.Unlock()
			}
			return c, err
		}
	})
	dials := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(conns)
	}
	p.run(specA, 4)
	if n := builds.Load(); n != 1 {
		t.Fatalf("first session built %d times, want 1", n)
	}
	mu.Lock()
	_ = conns[0].Close()
	mu.Unlock()
	waitFor(t, func() bool { return dials() >= 2 && p.coord.Workers() == 1 })
	p.run(specA, 4)
	if n := builds.Load(); n != 2 {
		t.Fatalf("built %d times across a reconnect, want 2", n)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the closed session's prepared value is still reachable after 10s of GC cycles")
		}
	}
}
