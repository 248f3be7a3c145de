package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/retry"
)

// sumEval is a pure test evaluator: the payload for [lo, hi) is the
// JSON list of i*i+len(spec) for i in range — trivially recomputable,
// so duplicate executions are byte-identical by construction.
func sumEval(_ context.Context, spec []byte, lo, hi int) ([]byte, error) {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i*i+len(spec))
	}
	return json.Marshal(out)
}

// startWorker launches a worker over cfg (filling Addr/kind wiring) and
// returns a stop function that blocks until the worker goroutine exits.
func startWorker(t *testing.T, ctx context.Context, cfg dist.WorkerConfig, kind string, ev dist.Evaluator) func() {
	t.Helper()
	wctx, cancel := context.WithCancel(ctx)
	w := dist.NewWorker(cfg)
	w.Register(kind, ev)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(wctx)
	}()
	return func() {
		cancel()
		<-done
	}
}

// runPool evaluates task on a fresh coordinator with n workers and
// returns the ordered payloads.
func runPool(t *testing.T, n int, task dist.Task) [][]byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coord := dist.New(dist.Config{LeaseTTL: 5 * time.Second})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	for i := 0; i < n; i++ {
		stop := startWorker(t, ctx, dist.WorkerConfig{
			Name: fmt.Sprintf("w%d", i), Slots: 2, Addr: addr,
		}, task.Kind, sumEval)
		defer stop()
	}
	payloads, err := coord.Run(ctx, task)
	if err != nil {
		t.Fatalf("run with %d workers: %v", n, err)
	}
	return payloads
}

// TestWorkerCountInvariance is the core determinism claim at the dist
// layer: the ordered shard payloads are identical at 1, 2, and 4
// workers.
func TestWorkerCountInvariance(t *testing.T) {
	task := dist.Task{Kind: "sum", Spec: []byte(`{"n":32}`), N: 32, ShardSize: 5}
	var want [][]byte
	for _, n := range []int{1, 2, 4} {
		got := runPool(t, n, task)
		if len(got) != 7 { // ceil(32/5)
			t.Fatalf("%d workers: %d shards, want 7", n, len(got))
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%d workers: shard %d payload %s, want %s", n, i, got[i], want[i])
			}
		}
	}
}

// TestLeaseExpiryReassignment wedges a worker's reads right after its
// hello ack — it can still write, but never reads its lease or a ping —
// and checks the sweeper drops the silent connection and the shard goes
// to a healthy worker.
func TestLeaseExpiryReassignment(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reg := obs.NewRegistry()
	coord := dist.New(dist.Config{
		Registry: reg,
		LeaseTTL: 100 * time.Millisecond, SweepEvery: 20 * time.Millisecond,
	})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()

	// The stuck worker reads its hello ack and nothing after it.
	stopStuck := startWorker(t, ctx, dist.WorkerConfig{
		Name: "z-stuck", Slots: 1, Addr: addr,
		Dial: func(a string) (net.Conn, error) {
			c, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			return faults.StallConn(c, helloAckBytes(t)), nil
		},
	}, "sum", sumEval)
	defer stopStuck()

	// Wait until the stuck worker is connected and can take the lease.
	waitFor(t, func() bool { return coord.Workers() == 1 })

	resCh := make(chan error, 1)
	task := dist.Task{Kind: "sum", Spec: []byte(`"x"`), N: 1}
	var payloads [][]byte
	go func() {
		var err error
		payloads, err = coord.Run(ctx, task)
		resCh <- err
	}()

	// Let the stuck worker take the lease, then bring up the healthy one.
	time.Sleep(150 * time.Millisecond)
	stopOK := startWorker(t, ctx, dist.WorkerConfig{
		Name: "b-ok", Slots: 1, Addr: addr,
	}, "sum", sumEval)
	defer stopOK()

	if err := <-resCh; err != nil {
		t.Fatalf("run: %v", err)
	}
	want, _ := sumEval(ctx, []byte(`"x"`), 0, 1)
	if !bytes.Equal(payloads[0], want) {
		t.Fatalf("payload %s, want %s", payloads[0], want)
	}
	if n := reg.Counter("dist.reassignments").Value(); n < 1 {
		t.Fatalf("reassignments = %d, want >= 1", n)
	}
}

// TestHeartbeatKeepsLease checks the opposite: a slow-but-alive worker,
// whose read loop echoes every ping while the shard evaluates, is never
// disconnected.
func TestHeartbeatKeepsLease(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reg := obs.NewRegistry()
	coord := dist.New(dist.Config{
		Registry: reg,
		LeaseTTL: 120 * time.Millisecond, SweepEvery: 20 * time.Millisecond,
	})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	stop := startWorker(t, ctx, dist.WorkerConfig{
		Name: "slow", Slots: 1, Addr: addr,
	}, "sum", func(ctx context.Context, spec []byte, lo, hi int) ([]byte, error) {
		time.Sleep(500 * time.Millisecond) // several TTLs, kept alive by echoes
		return sumEval(ctx, spec, lo, hi)
	})
	defer stop()

	payloads, err := coord.Run(ctx, dist.Task{Kind: "sum", Spec: []byte(`"slow"`), N: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want, _ := sumEval(ctx, []byte(`"slow"`), 0, 1)
	if !bytes.Equal(payloads[0], want) {
		t.Fatalf("payload %s, want %s", payloads[0], want)
	}
	if n := reg.Counter("dist.reassignments").Value(); n != 0 {
		t.Fatalf("reassignments = %d, want 0 (echoes should keep the connection)", n)
	}
}

// TestQueuedShardsAreNotReassigned: a shard waiting on the queue has
// lost no lease, so sweeps over a workerless pool must not book it as a
// reassignment.
func TestQueuedShardsAreNotReassigned(t *testing.T) {
	reg := obs.NewRegistry()
	coord := dist.New(dist.Config{Registry: reg, LeaseTTL: 40 * time.Millisecond})
	if _, err := coord.Listen("127.0.0.1:0"); err != nil { // starts the sweeper
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := coord.Run(ctx, dist.Task{Kind: "sum", Spec: []byte(`"idle"`), N: 4, ShardSize: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run with no workers: err = %v, want the deadline", err)
	}
	if n := reg.Counter("dist.reassignments").Value(); n != 0 {
		t.Fatalf("reassignments = %d after 300 ms of sweeps with no worker, want 0", n)
	}
}

// TestNackExhaustion checks a permanently failing shard fails the task
// after the configured attempts, with the worker's reason attached.
func TestNackExhaustion(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reg := obs.NewRegistry()
	coord := dist.New(dist.Config{
		Registry: reg,
		Requeue:  retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	stop := startWorker(t, ctx, dist.WorkerConfig{
		Name: "failing", Slots: 1, Addr: addr,
	}, "sum", func(context.Context, []byte, int, int) ([]byte, error) {
		return nil, errors.New("synthetic shard failure")
	})
	defer stop()

	_, err = coord.Run(ctx, dist.Task{Kind: "sum", Spec: []byte(`"x"`), N: 1})
	if err == nil || !strings.Contains(err.Error(), "exhausted") || !strings.Contains(err.Error(), "synthetic shard failure") {
		t.Fatalf("err = %v, want lease-attempt exhaustion carrying the worker's reason", err)
	}
	if n := reg.Counter("dist.nacks").Value(); n != 3 {
		t.Fatalf("nacks = %d, want 3", n)
	}
}

// TestBackedOffShardWakesIdlePool: a nacked shard waits out its requeue
// backoff (50 ms at the defaults) and is then leased at once, not at the
// next sweep (LeaseTTL/4, 3.75 s at the defaults), even though nothing
// else happens on the pool in between.
func TestBackedOffShardWakesIdlePool(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coord := dist.New(dist.Config{})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	var calls atomic.Int32
	stop := startWorker(t, ctx, dist.WorkerConfig{Name: "flaky", Slots: 1, Addr: addr}, "sum",
		func(ctx context.Context, spec []byte, lo, hi int) ([]byte, error) {
			if calls.Add(1) == 1 {
				return nil, errors.New("synthetic first-call failure")
			}
			return sumEval(ctx, spec, lo, hi)
		})
	defer stop()

	start := time.Now()
	if _, err := coord.Run(ctx, dist.Task{Kind: "sum", Spec: []byte(`"x"`), N: 1}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("one-shard task took %v after one nack, want under 1s", d)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("evaluator called %d times, want 2", n)
	}
}

// TestChaosConnDropReassignment is the dist-layer half of the
// acceptance criterion: one worker's connection is fault-injected to
// die mid-lease (after the lease arrives, before its result can leave),
// and the merged payloads must still be byte-identical to a healthy
// 1-worker run.
func TestChaosConnDropReassignment(t *testing.T) {
	task := dist.Task{Kind: "sum", Spec: []byte(`{"chaos":true}`), N: 24, ShardSize: 4}
	want := runPool(t, 1, task)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reg := obs.NewRegistry()
	coord := dist.New(dist.Config{
		Registry: reg,
		LeaseTTL: 200 * time.Millisecond, SweepEvery: 25 * time.Millisecond,
	})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()

	// Worker A's first connection dies after ~1.5 frames of traffic: the
	// handshake and at least one lease arrive, then the conn drops before
	// a result can be written back. Reconnections are clean.
	var dials atomic.Int64
	stopA := startWorker(t, ctx, dist.WorkerConfig{
		Name: "a-flaky", Slots: 2, Addr: addr,
		Reconnect: retry.Policy{MaxAttempts: 100, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
		Dial: func(a string) (net.Conn, error) {
			c, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			if dials.Add(1) == 1 {
				return faults.DropConn(c, 600), nil
			}
			return c, nil
		},
	}, "sum", sumEval)
	defer stopA()
	stopB := startWorker(t, ctx, dist.WorkerConfig{
		Name: "b-steady", Slots: 2, Addr: addr,
	}, "sum", sumEval)
	defer stopB()
	// Both connected before the task starts: otherwise the steady worker
	// can finish all six shards while the flaky one is still dialing, and
	// its byte budget never runs out.
	waitFor(t, func() bool { return coord.Workers() == 2 })

	got, err := coord.Run(ctx, task)
	if err != nil {
		t.Fatalf("run under chaos: %v", err)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("shard %d payload diverged under chaos:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	// The steady worker can finish the requeued shards before the flaky
	// one redials; the second dial is what proves its conn died. waitFor
	// fails the test if it never comes.
	waitFor(t, func() bool { return dials.Load() >= 2 })
}

// TestStragglerReissue checks a shard stuck on a slow worker is
// speculatively duplicated onto an idle one and the first result wins.
func TestStragglerReissue(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reg := obs.NewRegistry()
	// No shard has completed, so the re-issue age is 4 × LeaseTTL = 480ms;
	// the slow worker echoes every ping meanwhile, so its connection
	// stays up, as in TestHeartbeatKeepsLease.
	coord := dist.New(dist.Config{
		Registry:   reg,
		LeaseTTL:   120 * time.Millisecond,
		SweepEvery: 20 * time.Millisecond,
	})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()

	release := make(chan struct{})
	defer close(release)
	stopSlow := startWorker(t, ctx, dist.WorkerConfig{
		Name: "z-slow", Slots: 1, Addr: addr,
	}, "sum", func(ctx context.Context, spec []byte, lo, hi int) ([]byte, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return sumEval(ctx, spec, lo, hi)
	})
	defer stopSlow()
	waitFor(t, func() bool { return coord.Workers() == 1 })

	resCh := make(chan error, 1)
	var payloads [][]byte
	go func() {
		var err error
		payloads, err = coord.Run(ctx, dist.Task{Kind: "sum", Spec: []byte(`"st"`), N: 1})
		resCh <- err
	}()
	time.Sleep(150 * time.Millisecond) // the slow worker holds the lease before any idle capacity exists
	stopFast := startWorker(t, ctx, dist.WorkerConfig{
		Name: "a-fast", Slots: 1, Addr: addr,
	}, "sum", sumEval)
	defer stopFast()

	if err := <-resCh; err != nil {
		t.Fatalf("run: %v", err)
	}
	want, _ := sumEval(ctx, []byte(`"st"`), 0, 1)
	if !bytes.Equal(payloads[0], want) {
		t.Fatalf("payload %s, want %s", payloads[0], want)
	}
	if n := reg.Counter("dist.hedges").Value(); n < 1 {
		t.Fatalf("hedges = %d, want >= 1", n)
	}
	if n := reg.Counter("dist.reassignments").Value(); n != 0 {
		t.Fatalf("reassignments = %d, want 0 (the shard was duplicated, not expired)", n)
	}
}

// TestHelloVersionMismatch speaks a future protocol version, and three
// earlier ones, at the coordinator — in the current frame layout, which
// is how the nack can be read — and expects each to be nacked at the
// handshake with both versions named: a peer that means something else
// by a payload must never get a lease. A v3 peer shares the layout but
// heartbeats per lease and never echoes a ping; a v4 peer announces its
// exit with a goodbye frame this coordinator no longer reads. (A peer
// still writing the v<=2 layout is TestOldLayoutPeerRefusedByName's.)
func TestHelloVersionMismatch(t *testing.T) {
	coord := dist.New(dist.Config{})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	for _, v := range []int{dist.ProtocolVersion + 41, 1, 3, 4} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		if err := dist.WriteFrame(conn, &dist.Frame{T: dist.TypeHello, V: v, Worker: "old", Slots: 1}); err != nil {
			t.Fatalf("write hello v%d: %v", v, err)
		}
		reply, err := dist.ReadFrame(conn)
		if err != nil {
			t.Fatalf("read reply to v%d: %v", v, err)
		}
		if reply.T != dist.TypeNack ||
			!strings.Contains(reply.Err, fmt.Sprintf("version %d ", v)) ||
			!strings.Contains(reply.Err, fmt.Sprintf("v%d", dist.ProtocolVersion)) {
			t.Fatalf("reply to v%d = %+v, want a nack naming both versions", v, reply)
		}
		// The nack is the last word: the coordinator hangs up, and the
		// rejected worker was never registered.
		if f, err := dist.ReadFrame(conn); err == nil {
			t.Fatalf("coordinator kept talking to a v%d worker: %+v", v, f)
		}
	}
	if n := coord.Workers(); n != 0 {
		t.Fatalf("%d workers registered after rejected handshakes", n)
	}
}

// TestSilentDialerDoesNotBlockClose: a connection that never sends its
// hello is still the coordinator's to close. Close returns at once,
// not when the dialer hangs up.
func TestSilentDialerDoesNotBlockClose(t *testing.T) {
	coord := dist.New(dist.Config{})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	time.Sleep(20 * time.Millisecond) // accepted, waiting for a hello
	closed := make(chan struct{})
	go func() {
		coord.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still blocked 1s after it was called, with a silent dialer connected")
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("silent dialer's connection still open after Close")
	}
}

// helloAckBytes is the size of the coordinator's hello ack on the wire.
func helloAckBytes(t *testing.T) int64 {
	var b bytes.Buffer
	if err := dist.WriteFrame(&b, &dist.Frame{T: dist.TypeHello, V: dist.ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	return int64(b.Len())
}

// TestFinishedTaskUnreachable: once Run has returned and the caller has
// dropped the payloads, nothing in the coordinator — open map, lease
// tables, or the dispatch queue's backing array behind its length — may
// still reach the task. The queue's tail once did.
func TestFinishedTaskUnreachable(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coord := dist.New(dist.Config{})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	stop := startWorker(t, ctx, dist.WorkerConfig{Name: "w", Slots: 2, Addr: addr}, "sum", sumEval)
	defer stop()

	collected := make(chan struct{})
	func() {
		payloads, err := coord.Run(ctx, dist.Task{Kind: "sum", Spec: []byte(`"retained"`), N: 8, ShardSize: 2})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		// The payload slice is the task's own; it dies only if the task
		// is unreachable too.
		runtime.SetFinalizer(&payloads[0], func(*[]byte) { close(collected) })
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("finished task's payloads still reachable from the coordinator after 10s of GC cycles")
		}
	}
}

// TestConcurrentIdenticalTasks submits the same task from two callers
// at once; the shared shard address means both complete and agree.
func TestConcurrentIdenticalTasks(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coord := dist.New(dist.Config{})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	stop := startWorker(t, ctx, dist.WorkerConfig{Name: "w", Slots: 2, Addr: addr}, "sum", sumEval)
	defer stop()

	task := dist.Task{Kind: "sum", Spec: []byte(`"dup"`), N: 8, ShardSize: 4}
	var wg sync.WaitGroup
	results := make([][][]byte, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = coord.Run(ctx, task)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
	}
	for s := range results[0] {
		if !bytes.Equal(results[0][s], results[1][s]) {
			t.Fatalf("shard %d: concurrent callers disagree", s)
		}
	}
}

// TestRunValidation covers the task-shape errors.
func TestRunValidation(t *testing.T) {
	coord := dist.New(dist.Config{})
	defer coord.Close()
	if _, err := coord.Run(context.Background(), dist.Task{Kind: "", N: 1}); err == nil {
		t.Fatal("missing kind accepted")
	}
	if _, err := coord.Run(context.Background(), dist.Task{Kind: "sum", N: 0}); err == nil {
		t.Fatal("n = 0 accepted")
	}
}

// TestClosedCoordinator checks Run fails fast after Close.
func TestClosedCoordinator(t *testing.T) {
	coord := dist.New(dist.Config{})
	coord.Close()
	if _, err := coord.Run(context.Background(), dist.Task{Kind: "sum", N: 1}); !errors.Is(err, dist.ErrCoordinatorClosed) {
		t.Fatalf("err = %v, want ErrCoordinatorClosed", err)
	}
}

// TestSubMillisecondShardsAreTimed: shards that take microseconds must
// not read as 0 ms — on the worker's histogram, in the EvalMs its result
// frames carry, or in the coordinator's shard latency.
func TestSubMillisecondShardsAreTimed(t *testing.T) {
	wreg, creg := obs.NewRegistry(), obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coord := dist.New(dist.Config{Registry: creg})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	defer startWorker(t, ctx, dist.WorkerConfig{Name: "w", Addr: addr, Registry: wreg}, "sum", sumEval)()
	if _, err := coord.Run(ctx, dist.Task{Kind: "sum", Spec: []byte(`"fast"`), N: 16, ShardSize: 1}); err != nil {
		t.Fatalf("run: %v", err)
	}
	for name, reg := range map[string]*obs.Registry{
		"dist.worker.eval_ms": wreg, "dist.remote_eval_ms": creg, "dist.shard_latency_ms": creg,
	} {
		if s := reg.Histogram(name).Snapshot(); s.Count != 16 || s.P50 <= 0 {
			t.Errorf("%s: count %d p50 %g, want 16 observations with p50 > 0", name, s.Count, s.P50)
		}
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
