package dist

import (
	"context"
	"errors"
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

// stubPool starts a coordinator on clk with a 100 ms LeaseTTL whose
// background sweeper never fires: the test sweeps by hand.
func stubPool(t *testing.T, clk *stubClock, reg *obs.Registry) (*Coordinator, string) {
	t.Helper()
	c := New(Config{Registry: reg, LeaseTTL: 100 * time.Millisecond, SweepEvery: time.Hour, now: clk.Now})
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(c.Close)
	return c, addr
}

// dialRaw connects to addr as a worker the test speaks for frame by
// frame, and completes its hello.
func dialRaw(t *testing.T, addr, name string, slots int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("%s: dial: %v", name, err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	sendFrame(t, conn, &Frame{T: TypeHello, V: ProtocolVersion, Worker: name, Slots: slots})
	if f, err := ReadFrame(conn); err != nil || f.T != TypeHello {
		t.Fatalf("%s: hello ack = %+v, %v", name, f, err)
	}
	return conn
}

func sendFrame(t *testing.T, conn net.Conn, f *Frame) {
	t.Helper()
	if err := WriteFrame(conn, f); err != nil {
		t.Fatalf("write %s: %v", f.T, err)
	}
}

// readSkippingPings reads conn's next frame that is not a sweeper ping.
func readSkippingPings(conn net.Conn) (*Frame, error) {
	for {
		f, err := ReadFrame(conn)
		if err != nil || f.T != TypeHeartbeat {
			return f, err
		}
	}
}

// readLease reads conn's next lease, skipping pings.
func readLease(t *testing.T, conn net.Conn) *Lease {
	t.Helper()
	f, err := readSkippingPings(conn)
	if err != nil || f.T != TypeLease {
		t.Fatalf("lease = %+v, %v", f, err)
	}
	return f.Lease
}

// runAsync submits a one-shard task and returns its Run result channel.
func runAsync(c *Coordinator, spec string) chan error {
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), Task{Kind: "k", Spec: []byte(spec), N: 1})
		done <- err
	}()
	return done
}

// echoPing answers the ping c's last sweep sent on conn, as a worker's
// read loop does, and waits until c has recorded the echo.
func echoPing(t *testing.T, c *Coordinator, conn net.Conn) {
	t.Helper()
	f, err := ReadFrame(conn)
	if err != nil || f.T != TypeHeartbeat {
		t.Fatalf("ping = %+v, %v", f, err)
	}
	sendFrame(t, conn, f)
	poll(t, "the echo", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		for w := range c.workers {
			if w.pinged {
				return false
			}
		}
		return true
	})
}

// echoAll stands for every worker having echoed its pings meanwhile.
func echoAll(c *Coordinator) {
	c.mu.Lock()
	ws := make([]*workerConn, 0, len(c.workers))
	for w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	for _, w := range ws {
		c.handleEcho(w)
	}
}

// poll waits up to 10 s for ok.
func poll(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestSweepGraceResultRace: a lease older than LeaseTTL on a connection
// that echoes every ping is never expired — liveness is the
// connection's, not the lease's — and its result counts as a result:
// no strike, no reassignment.
func TestSweepGraceResultRace(t *testing.T) {
	clk := &stubClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry()
	c, addr := stubPool(t, clk, reg)
	conn := dialRaw(t, addr, "w0", 1)
	done := runAsync(c, "1")
	l := readLease(t, conn)
	for i := 0; i < 5; i++ { // the lease ends 2.5 TTLs old
		clk.Advance(50 * time.Millisecond)
		c.sweepOnce()
		echoPing(t, c, conn)
	}
	if n := c.Workers(); n != 1 {
		t.Fatalf("workers = %d: an echoing connection was closed", n)
	}
	sendFrame(t, conn, &Frame{T: TypeResult, Addr: l.Addr, Payload: []byte(`[0]`)})
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["dist.results"] != 1 || snap.Counters["dist.late_results"] != 0 ||
		snap.Counters["dist.reassignments"] != 0 || snap.Counters["dist.strikes"] != 0 {
		t.Fatalf("an old lease on a live connection was expired: %+v", snap.Counters)
	}
}

// TestSweepSecondTickExpires: a connection that has echoed nothing for
// LeaseTTL is kept; the next sweep, with it silent past LeaseTTL, closes
// it, and the disconnect requeues its lease and charges one strike.
func TestSweepSecondTickExpires(t *testing.T) {
	clk := &stubClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry()
	c, addr := stubPool(t, clk, reg)
	conn := dialRaw(t, addr, "w0", 1)
	done := runAsync(c, "1")
	l := readLease(t, conn)

	clk.Advance(100 * time.Millisecond)
	c.sweepOnce() // silent for exactly LeaseTTL: pinged, not closed
	if n := c.Workers(); n != 1 {
		t.Fatalf("workers = %d after LeaseTTL of silence, want 1", n)
	}
	clk.Advance(50 * time.Millisecond)
	c.sweepOnce() // the ping unanswered, silent past LeaseTTL: closed
	if _, err := readSkippingPings(conn); err == nil {
		t.Fatal("silent connection still open after the sweep")
	}
	poll(t, "the silent worker to unregister", func() bool { return c.Workers() == 0 })
	c.mu.Lock()
	strikes := c.strikes.Strikes("w0")
	c.mu.Unlock()
	if strikes != 1 {
		t.Fatalf("strikes = %d, want 1", strikes)
	}
	if n := reg.Snapshot().Counters["dist.reassignments"]; n != 1 {
		t.Fatalf("reassignments = %d, want 1", n)
	}

	// A worker joining once the backoff has passed takes the shard.
	clk.Advance(5 * time.Second)
	conn = dialRaw(t, addr, "w1", 1)
	if again := readLease(t, conn); again.Addr != l.Addr {
		t.Fatalf("re-grant for %s, want %s", again.Addr, l.Addr)
	}
	sendFrame(t, conn, &Frame{T: TypeResult, Addr: l.Addr, Payload: []byte(`[0]`)})
	if err := <-done; err != nil {
		t.Fatalf("run after reassignment: %v", err)
	}
}

// TestHeartbeatClearsLapsedGrace: an echo keeps the connection alive —
// three TTLs of echoed pings leave it open — and the same connection,
// once it stops echoing, is closed; holding no lease, it is not struck.
func TestHeartbeatClearsLapsedGrace(t *testing.T) {
	clk := &stubClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry()
	c, addr := stubPool(t, clk, reg)
	conn := dialRaw(t, addr, "w0", 1)
	for i := 0; i < 4; i++ {
		clk.Advance(75 * time.Millisecond)
		c.sweepOnce()
		echoPing(t, c, conn)
	}
	if n := c.Workers(); n != 1 {
		t.Fatalf("workers = %d: an echoing connection was closed", n)
	}
	clk.Advance(75 * time.Millisecond)
	c.sweepOnce() // pinged; no echo this time
	clk.Advance(75 * time.Millisecond)
	c.sweepOnce()
	poll(t, "the silent worker to unregister", func() bool { return c.Workers() == 0 })
	if n := reg.Snapshot().Counters["dist.strikes"]; n != 0 {
		t.Fatalf("strikes = %d for a silent worker holding no lease, want 0", n)
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
		lease, err := readSkippingPings(conn)
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
			poll(t, "the nack's strike", func() bool { return struck() == before+1 })
			clk.Advance(time.Second)
			c.sweepOnce()
			if lease, err = readSkippingPings(conn); err != nil || lease.T != TypeLease {
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
		poll(t, "the worker to unregister", func() bool { return c.Workers() == 0 })
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

// TestHedgeSkipsQuarantinedWorker: a quarantined worker gets no lease
// at all. A task whose shard is ready while every worker is quarantined
// fails at once with ErrNoHealthyWorker, and a hedge never goes to a
// quarantined worker, not even when it is the only idle one. Once the
// quarantine ends, the same shard is hedged onto the same worker.
func TestHedgeSkipsQuarantinedWorker(t *testing.T) {
	clk := &stubClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry()
	c := New(Config{Registry: reg, now: clk.Now})
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer c.Close()
	strikes := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.strikes.Strikes("b")
	}
	hedges := func() int64 { return reg.Snapshot().Counters["dist.hedges"] }

	// b strikes out: it nacks both shards of a task twice. The third
	// strike quarantines it and the fourth, landing inside that
	// quarantine, doubles it to two strike windows. The requeued shards
	// then find no worker that may take them, and the task fails.
	b := dialRaw(t, addr, "b", 2)
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), Task{Kind: "k", Spec: []byte("1"), N: 2, ShardSize: 1})
		done <- err
	}()
	for round := 1; round <= 2; round++ {
		for range 2 {
			sendFrame(t, b, &Frame{T: TypeNack, Addr: readLease(t, b).Addr, Err: "synthetic"})
		}
		poll(t, "the nacks' strikes", func() bool { return strikes() == 2*round })
		clk.Advance(5 * time.Second) // past the requeue backoff
		c.sweepOnce()
	}
	if err := <-done; !errors.Is(err, ErrNoHealthyWorker) {
		t.Fatalf("run 1 on a struck-out pool: %v, want ErrNoHealthyWorker", err)
	}

	// a takes the next shard and holds it past the re-issue age: the only
	// idle worker is b, quarantined, so nothing is hedged.
	a := dialRaw(t, addr, "a", 1)
	done = runAsync(c, "2")
	held := readLease(t, a)
	clk.Advance(reissueAfter(0, 0, DefaultLeaseTTL, c.cfg.SweepEvery) + time.Second)
	echoAll(c)
	c.sweepOnce()
	if q := reg.Snapshot().Gauges["dist.quarantined_workers"]; q != 1 {
		t.Fatalf("dist.quarantined_workers = %v at the re-issue age, want 1 (b)", q)
	}
	if n := hedges(); n != 0 {
		t.Fatalf("dist.hedges = %d: a hedge went to the quarantined worker", n)
	}

	// b's quarantine ends (2 windows after its fourth strike): the same
	// over-age shard is now hedged onto it.
	clk.Advance(2*strikeWindowTTLs*DefaultLeaseTTL - reissueAfter(0, 0, DefaultLeaseTTL, c.cfg.SweepEvery))
	echoAll(c)
	c.sweepOnce()
	if n := hedges(); n != 1 {
		t.Fatalf("dist.hedges = %d once b's quarantine ended, want 1", n)
	}
	if l := readLease(t, b); l.Addr != held.Addr {
		t.Fatalf("hedge lease for %s, want %s", l.Addr, held.Addr)
	}
	sendFrame(t, a, &Frame{T: TypeResult, Addr: held.Addr, Payload: []byte(`[2]`)})
	if err := <-done; err != nil {
		t.Fatalf("run 2: %v", err)
	}
}
