package dist

import (
	"context"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// stubClock is a manually advanced clock for pinning sweep timing.
type stubClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stubClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stubClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestReissueThreshold pins the one speculative re-issue rule: four
// lease TTLs until eight shards have completed, then three times their
// p95 latency, never below two sweeps nor above the four TTLs.
func TestReissueThreshold(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name            string
		samples         int64
		p95, ttl, sweep time.Duration
		want            time.Duration
	}{
		{"no samples", 0, 0, 15 * time.Second, 3750 * ms, time.Minute},
		{"seven samples ignore a tiny p95", 7, ms, 15 * time.Second, 3750 * ms, time.Minute},
		{"seven samples ignore a huge p95", 7, time.Hour, 100 * ms, 20 * ms, 400 * ms},
		{"eight samples trust the p95", 8, 2 * time.Second, 15 * time.Second, ms, 6 * time.Second},
		{"floor at two sweeps", 8, 0, 5 * time.Second, 10 * ms, 20 * ms},
		{"floor just above 3·p95", 100, 6 * ms, 5 * time.Second, 10 * ms, 20 * ms},
		{"3·p95 just above the floor", 100, 7 * ms, 5 * time.Second, 10 * ms, 21 * ms},
		{"cap at four TTLs", 1000, 30 * time.Second, 15 * time.Second, 3750 * ms, time.Minute},
		{"floor above cap yields the cap", 8, 0, 10 * ms, 50 * ms, 40 * ms},
	} {
		if got := reissueAfter(tc.samples, tc.p95, tc.ttl, tc.sweep); got != tc.want {
			t.Errorf("%s: reissueAfter(%d, %v, %v, %v) = %v, want %v",
				tc.name, tc.samples, tc.p95, tc.ttl, tc.sweep, got, tc.want)
		}
	}
}

// fakeWorkerConn registers a synthetic worker on c without a real
// connection: grants land in the buffered outbox, results are injected
// via handleResult.
func fakeWorkerConn(t *testing.T, c *Coordinator, name string) *workerConn {
	t.Helper()
	p1, p2 := net.Pipe()
	t.Cleanup(func() { _ = p1.Close(); _ = p2.Close() })
	w := &workerConn{
		conn: p1, name: name, slots: 1,
		leased: make(map[string]int), out: make(chan *Frame, 8),
	}
	c.mu.Lock()
	c.workers[w] = struct{}{}
	c.mu.Unlock()
	return w
}

// startStubbedRun submits a 1-shard task on a goroutine and returns the
// granted shard address plus the Run completion channel.
func startStubbedRun(t *testing.T, c *Coordinator) (string, chan error) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), Task{Kind: "k", N: 1, ShardSize: 1})
		done <- err
	}()
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" && time.Now().Before(deadline) {
		c.mu.Lock()
		for a, ss := range c.open {
			if len(ss) > 0 && len(ss[0].leases) > 0 {
				addr = a
			}
		}
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	if addr == "" {
		t.Fatal("shard never granted")
	}
	return addr, done
}

// TestSweepGraceResultRace pins the sweeper edge: a result frame that
// lands in the same sweep tick its lease expires in counts as a result
// — no strike, no reassignment — because the sweeper only expires a
// lease it has already seen lapsed on a previous pass.
func TestSweepGraceResultRace(t *testing.T) {
	clk := &stubClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry()
	c := New(Config{
		Registry: reg, LeaseTTL: 100 * time.Millisecond,
		now: clk.Now,
	})
	defer c.Close()
	w := fakeWorkerConn(t, c, "w0")
	addr, done := startStubbedRun(t, c)

	clk.Advance(150 * time.Millisecond) // past the lease TTL
	c.sweepOnce()                       // first sighting: lapsed, not expired
	c.mu.Lock()
	held := len(c.open[addr][0].leases)
	strikes := c.strikes.Strikes("w0")
	c.mu.Unlock()
	if held != 1 || strikes != 0 {
		t.Fatalf("lease released on first expired sighting: held=%d strikes=%d", held, strikes)
	}

	// The result arrives within the same tick's grace window.
	c.handleResult(w, addr, []byte(`[0]`), nil)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["dist.results"] != 1 || snap.Counters["dist.late_results"] != 0 ||
		snap.Counters["dist.reassignments"] != 0 || snap.Counters["dist.strikes"] != 0 {
		t.Fatalf("race counted as expiry, not result: %+v", snap.Counters)
	}
}

// TestSweepSecondTickExpires is the counterpart: a lease still silent on
// the next sweep is expired, charged as a strike, and requeued.
func TestSweepSecondTickExpires(t *testing.T) {
	clk := &stubClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry()
	c := New(Config{
		Registry: reg, LeaseTTL: 100 * time.Millisecond,
		now: clk.Now,
	})
	defer c.Close()
	w := fakeWorkerConn(t, c, "w0")
	addr, done := startStubbedRun(t, c)

	clk.Advance(150 * time.Millisecond)
	c.sweepOnce() // lapsed
	clk.Advance(50 * time.Millisecond)
	c.sweepOnce() // expired: strike + requeue + immediate re-grant to w0
	c.mu.Lock()
	strikes := c.strikes.Strikes("w0")
	c.mu.Unlock()
	if strikes != 1 {
		t.Fatalf("strikes after expiry = %d, want 1", strikes)
	}
	if snap := reg.Snapshot(); snap.Counters["dist.reassignments"] != 1 {
		t.Fatalf("reassignments = %d, want 1", snap.Counters["dist.reassignments"])
	}
	// The requeued shard is backoff-gated; advance past it and dispatch.
	clk.Advance(5 * time.Second)
	c.sweepOnce()
	c.handleResult(w, addr, []byte(`[0]`), nil)
	if err := <-done; err != nil {
		t.Fatalf("run after reassignment: %v", err)
	}
}

// TestHeartbeatClearsLapsedGrace: a heartbeat arriving during the grace
// tick renews the lease and clears the lapsed mark, so the next sweep
// does not expire it.
func TestHeartbeatClearsLapsedGrace(t *testing.T) {
	clk := &stubClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry()
	c := New(Config{
		Registry: reg, LeaseTTL: 100 * time.Millisecond,
		now: clk.Now,
	})
	defer c.Close()
	w := fakeWorkerConn(t, c, "w0")
	addr, done := startStubbedRun(t, c)

	clk.Advance(150 * time.Millisecond)
	c.sweepOnce() // lapsed
	c.handleHeartbeat(w, addr)
	c.sweepOnce() // renewed: must not expire
	c.mu.Lock()
	held := len(c.open[addr][0].leases)
	strikes := c.strikes.Strikes("w0")
	c.mu.Unlock()
	if held != 1 || strikes != 0 {
		t.Fatalf("heartbeat did not rescue lapsed lease: held=%d strikes=%d", held, strikes)
	}
	c.handleResult(w, addr, []byte(`[0]`), nil)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestUnnamedWorkerChurnStaysBounded: an unnamed worker is known by its
// remote address, a fresh ephemeral port on every redial. Over a
// thousand connect → one shard → disconnect cycles the strikes some of
// them earn must be pruned a window later, so the strike book does not
// grow with the number of workers the coordinator has ever seen.
func TestUnnamedWorkerChurnStaysBounded(t *testing.T) {
	clk := &stubClock{t: time.Unix(1000, 0)}
	c := New(Config{now: clk.Now})
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer c.Close()
	poll := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	struck := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.strikes.Len()
	}
	// One stub second per cycle against a 4 × 15 s strike window: a
	// strike every tenth cycle keeps at most seven records alive.
	const cycles, strikeEvery, maxStruck = 1000, 10, 7
	for i := 0; i < cycles; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("cycle %d: dial: %v", i, err)
		}
		if err := WriteFrame(conn, &Frame{T: TypeHello, V: ProtocolVersion, Slots: 1}); err != nil {
			t.Fatalf("cycle %d: hello: %v", i, err)
		}
		if f, err := ReadFrame(conn); err != nil || f.T != TypeHello {
			t.Fatalf("cycle %d: hello ack = %+v, %v", i, f, err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := c.Run(context.Background(), Task{Kind: "k", Spec: []byte(strconv.Itoa(i)), N: 1})
			done <- err
		}()
		lease, err := ReadFrame(conn)
		if err != nil || lease.T != TypeLease {
			t.Fatalf("cycle %d: lease = %+v, %v", i, lease, err)
		}
		if i%strikeEvery == 0 {
			// Fail the shard once: a strike against this connection's
			// ephemeral name, then a re-grant once the backoff has passed.
			before := struck()
			if err := WriteFrame(conn, &Frame{T: TypeNack, Addr: lease.Lease.Addr, Err: "synthetic"}); err != nil {
				t.Fatalf("cycle %d: nack: %v", i, err)
			}
			poll("the nack's strike", func() bool { return struck() == before+1 })
			clk.Advance(time.Second)
			c.sweepOnce()
			if lease, err = ReadFrame(conn); err != nil || lease.T != TypeLease {
				t.Fatalf("cycle %d: re-grant = %+v, %v", i, lease, err)
			}
		}
		if err := WriteFrame(conn, &Frame{T: TypeResult, Addr: lease.Lease.Addr, Payload: []byte(`[0]`)}); err != nil {
			t.Fatalf("cycle %d: result: %v", i, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("cycle %d: run: %v", i, err)
		}
		_ = conn.Close()
		poll("the worker to unregister", func() bool { return c.Workers() == 0 })
		clk.Advance(time.Second)
		c.sweepOnce()
		if s := struck(); s > maxStruck {
			t.Fatalf("cycle %d: %d strike records, want <= %d", i, s, maxStruck)
		}
	}
	if struck() == 0 {
		t.Fatal("no strike record survived to the end: the nack cycles did not strike")
	}
	clk.Advance(strikeWindowTTLs*DefaultLeaseTTL + time.Second)
	c.sweepOnce()
	if s := struck(); s != 0 {
		t.Fatalf("%d strike records a full window after the last strike, want 0", s)
	}
}

// TestHedgeSkipsQuarantinedWorker: a hedge duplicates a shard that
// still holds a live lease, so it never goes to a quarantined worker —
// not even when that worker is the only idle one, where a queued shard
// would take it so the queue never starves. Once the quarantine ends,
// the same shard is hedged onto the same worker.
func TestHedgeSkipsQuarantinedWorker(t *testing.T) {
	clk := &stubClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry()
	c := New(Config{Registry: reg, now: clk.Now})
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer c.Close()
	dial := func(name string) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		if err := WriteFrame(conn, &Frame{T: TypeHello, V: ProtocolVersion, Worker: name, Slots: 1}); err != nil {
			t.Fatalf("%s: hello: %v", name, err)
		}
		if f, err := ReadFrame(conn); err != nil || f.T != TypeHello {
			t.Fatalf("%s: hello ack = %+v, %v", name, f, err)
		}
		return conn
	}
	lease := func(conn net.Conn) *Lease {
		t.Helper()
		f, err := ReadFrame(conn)
		if err != nil || f.T != TypeLease {
			t.Fatalf("lease = %+v, %v", f, err)
		}
		return f.Lease
	}
	send := func(conn net.Conn, f *Frame) {
		t.Helper()
		if err := WriteFrame(conn, f); err != nil {
			t.Fatalf("write %s: %v", f.T, err)
		}
	}
	run := func(spec string) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := c.Run(context.Background(), Task{Kind: "k", Spec: []byte(spec), N: 1})
			done <- err
		}()
		return done
	}
	strikes := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.strikes.Strikes("b")
	}
	hedges := func() int64 { return reg.Snapshot().Counters["dist.hedges"] }

	// b strikes out: four nacks on one task quarantine it for two strike
	// windows; its fifth lease, granted because nobody else is free,
	// completes the task.
	b := dial("b")
	done := run("1")
	for n := 1; n <= strikeThreshold+1; n++ {
		send(b, &Frame{T: TypeNack, Addr: lease(b).Addr, Err: "synthetic"})
		for deadline := time.Now().Add(10 * time.Second); strikes() < n; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("nack %d never struck", n)
			}
		}
		clk.Advance(5 * time.Second) // past the requeue backoff
		c.sweepOnce()
	}
	send(b, &Frame{T: TypeResult, Addr: lease(b).Addr, Payload: []byte(`[1]`)})
	if err := <-done; err != nil {
		t.Fatalf("run 1: %v", err)
	}

	// a takes the next shard and holds it past the re-issue age: the only
	// idle worker is b, quarantined, so nothing is hedged.
	a := dial("a")
	done = run("2")
	held := lease(a)
	var wa *workerConn
	c.mu.Lock()
	for w := range c.workers {
		if w.name == "a" {
			wa = w
		}
	}
	c.mu.Unlock()
	clk.Advance(reissueAfter(0, 0, DefaultLeaseTTL, c.cfg.SweepEvery) + time.Second)
	c.handleHeartbeat(wa, held.Addr)
	c.sweepOnce()
	if h := c.HealthyWorkers(); h != 1 {
		t.Fatalf("healthy workers = %d at the re-issue age, want 1 (b quarantined)", h)
	}
	if n := hedges(); n != 0 {
		t.Fatalf("dist.hedges = %d: a hedge went to the quarantined worker", n)
	}

	// b's quarantine ends (2 windows after its fourth strike): the same
	// over-age shard is now hedged onto it.
	clk.Advance(2*strikeWindowTTLs*DefaultLeaseTTL - reissueAfter(0, 0, DefaultLeaseTTL, c.cfg.SweepEvery))
	c.handleHeartbeat(wa, held.Addr)
	c.sweepOnce()
	if n := hedges(); n != 1 {
		t.Fatalf("dist.hedges = %d once b's quarantine ended, want 1", n)
	}
	if l := lease(b); l.Addr != held.Addr {
		t.Fatalf("hedge lease for %s, want %s", l.Addr, held.Addr)
	}
	send(a, &Frame{T: TypeResult, Addr: held.Addr, Payload: []byte(`[2]`)})
	if err := <-done; err != nil {
		t.Fatalf("run 2: %v", err)
	}
}
