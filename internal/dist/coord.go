package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/retry"
)

// Defaults for Config zero values.
const (
	DefaultLeaseTTL      = 15 * time.Second
	defaultRequeueBase   = 50 * time.Millisecond
	defaultRequeueMax    = 2 * time.Second
	defaultShardAttempts = 8
)

// Worker quarantine: strikeThreshold strikes (nacks, disconnects with
// leases held, silent connections included) inside strikeWindowTTLs ×
// LeaseTTL take a worker out of scheduling for that long, doubling per
// further strike (internal/health).
const (
	strikeThreshold  = 3
	strikeWindowTTLs = 4
)

// ErrCoordinatorClosed reports a Run against a closed coordinator (or a
// task interrupted by Close).
var ErrCoordinatorClosed = errors.New("dist: coordinator closed")

// ErrNoHealthyWorker fails a task whose ready shard finds every connected
// worker quarantined: none may take it.
var ErrNoHealthyWorker = errors.New("dist: every worker is quarantined")

// Config configures a Coordinator. Zero values take the defaults noted.
type Config struct {
	// LeaseTTL is how long a worker connection may stay silent: each
	// sweep pings it, the worker echoes, and a connection with no echo
	// for LeaseTTL is closed, requeueing its leases. It also bounds the
	// hello and scales the strike window (DefaultLeaseTTL when zero).
	LeaseTTL time.Duration
	// SweepEvery is the janitor interval: each pass closes silent
	// connections, pings the others and re-issues over-age shards
	// (LeaseTTL/4 when zero, floor 5ms).
	SweepEvery time.Duration
	// Requeue shapes reassignment: Delay(attempt) spaces out re-grants of
	// a shard after failures, and MaxAttempts bounds lease grants per
	// shard before the whole task fails (default 8 attempts, 50ms base,
	// 2s cap).
	Requeue retry.Policy
	// Registry receives the dist.* metrics (nil disables).
	Registry *obs.Registry
	// Logger receives coordinator events (nil = discard).
	Logger *slog.Logger

	// now overrides the clock (tests only; nil = time.Now).
	now func() time.Time
}

// Coordinator owns the shard queue and the worker pool: it accepts
// worker connections, leases shards, drops connections that stop
// echoing its pings, requeues lost shards with backoff, speculatively
// re-issues over-age shards, scores worker health (quarantining repeat
// offenders), and accepts results idempotently by
// shard content address. Construct with New, attach a listener with
// Start, submit work with Run, and Close when done.
type Coordinator struct {
	cfg    Config
	logger *slog.Logger
	now    func() time.Time

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{} // every accepted connection, registered or not
	workers map[*workerConn]struct{}
	strikes *health.Book[string] // by worker name, so a reconnect must live its record down
	// open maps shard address → every open shard with that address
	// (identical computations submitted concurrently share results).
	open   map[string][]*shard
	queue  []*shard
	closed bool
	wg     sync.WaitGroup // accept loop + per-conn readers + sweeper
	stop   chan struct{}
	wake   *time.Timer // dispatches when the earliest backoff gate opens

	// Metrics (always non-nil; unregistered when cfg.Registry is nil).
	gWorkers, gLeases, gPending, gQuarantined *obs.Gauge
	cResults, cReassigned, cDuplicates        *obs.Counter
	cNacks, cLate                             *obs.Counter
	cHedges, cHedgeWins, cStrikes             *obs.Counter
	hShardLatency, hRemoteEval                *obs.Histogram
}

// shard is one leased unit of a task.
type shard struct {
	task *task
	idx  int // ordinal within the task (payload slot)
	lo   int
	hi   int
	addr string

	attempts   int                  // queue-grant count (speculative re-issues excluded)
	leases     map[*workerConn]bool // active lease holder → whether its grant is a hedge
	firstIssue time.Time            // first grant, for latency and re-issue age
	notBefore  time.Time            // requeue backoff gate
	queued     bool
	done       bool

	// ref is the submitting request's trace binding (invalid when tracing
	// is off); spans holds the open per-grant "shard" span for each lease
	// holder, so a requeue or speculative re-issue shows up as a second
	// child span with its own outcome.
	ref   trace.Ref
	spans map[*workerConn]*trace.Span
}

// endSpanLocked closes the grant span held for w (if any) with an
// outcome annotation. Nil-safe when tracing is off.
func (s *shard) endSpanLocked(w *workerConn, outcome string) {
	sp := s.spans[w]
	if sp == nil {
		return
	}
	delete(s.spans, w)
	sp.Annotate("outcome", outcome)
	sp.End()
}

// task aggregates a Run call.
type task struct {
	t         Task
	payloads  [][]byte
	remaining int
	err       error
	doneCh    chan struct{}
}

// workerConn is one connected worker.
type workerConn struct {
	conn  net.Conn
	name  string
	slots int
	// active counts leases currently held; leased tracks which shard
	// addresses they are, so late results release exactly once.
	active int
	leased map[string]int // addr → leases held on this conn for it
	out    chan *Frame
	// heard is when the worker last echoed a ping (its registration
	// until the first echo); pinged marks a ping still awaiting its echo.
	heard  time.Time
	pinged bool
}

// New builds a Coordinator from cfg (defaults applied lazily).
func New(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = cfg.LeaseTTL / 4
	}
	if cfg.SweepEvery < 5*time.Millisecond {
		cfg.SweepEvery = 5 * time.Millisecond
	}
	if cfg.Requeue.MaxAttempts < 1 {
		cfg.Requeue.MaxAttempts = defaultShardAttempts
	}
	if cfg.Requeue.BaseDelay <= 0 {
		cfg.Requeue.BaseDelay = defaultRequeueBase
	}
	if cfg.Requeue.MaxDelay <= 0 {
		cfg.Requeue.MaxDelay = defaultRequeueMax
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	reg := cfg.Registry // nil hands out unregistered handles: metrics off
	return &Coordinator{
		cfg:     cfg,
		logger:  obs.Component(obs.OrNop(cfg.Logger), "dist"),
		now:     cfg.now,
		conns:   make(map[net.Conn]struct{}),
		workers: make(map[*workerConn]struct{}),
		strikes: health.NewBook[string](strikeThreshold, strikeWindowTTLs*cfg.LeaseTTL),
		open:    make(map[string][]*shard),
		stop:    make(chan struct{}),

		gWorkers:      reg.Gauge("dist.workers"),
		gLeases:       reg.Gauge("dist.leases"),
		gPending:      reg.Gauge("dist.pending_shards"),
		gQuarantined:  reg.Gauge("dist.quarantined_workers"),
		cResults:      reg.Counter("dist.results"),
		cReassigned:   reg.Counter("dist.reassignments"),
		cDuplicates:   reg.Counter("dist.duplicate_results"),
		cNacks:        reg.Counter("dist.nacks"),
		cLate:         reg.Counter("dist.late_results"),
		cHedges:       reg.Counter("dist.hedges"),
		cHedgeWins:    reg.Counter("dist.hedge_wins"),
		cStrikes:      reg.Counter("dist.strikes"),
		hShardLatency: reg.Histogram("dist.shard_latency_ms"),
		hRemoteEval:   reg.Histogram("dist.remote_eval_ms"),
	}
}

// Start begins accepting worker connections on ln and launches the
// lease janitor. It returns immediately; Close stops everything.
func (c *Coordinator) Start(ln net.Listener) {
	c.mu.Lock()
	c.ln = ln
	c.mu.Unlock()
	c.wg.Add(2)
	go c.acceptLoop(ln)
	go c.sweeper()
}

// Listen is Start over a fresh TCP listener on addr; it returns the
// bound address (useful with ":0").
func (c *Coordinator) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	c.Start(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener, closes every accepted connection — a dialer
// that has not said hello yet too — and fails every pending task with
// ErrCoordinatorClosed. Safe to call more than once.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	if c.wake != nil {
		c.wake.Stop()
	}
	if c.ln != nil {
		_ = c.ln.Close()
	}
	for conn := range c.conns {
		_ = conn.Close()
	}
	tasks := map[*task]struct{}{}
	for _, ss := range c.open {
		for _, s := range ss {
			tasks[s.task] = struct{}{}
		}
	}
	for t := range tasks {
		c.failTaskLocked(t, ErrCoordinatorClosed)
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// Workers returns the number of connected workers.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// refreshHealthGaugeLocked republishes the quarantined-worker gauge.
func (c *Coordinator) refreshHealthGaugeLocked(now time.Time) {
	q := 0
	for w := range c.workers {
		if c.strikes.Quarantined(w.name, now) {
			q++
		}
	}
	c.gQuarantined.Set(float64(q))
}

// strikeLocked charges one health strike against w and logs the
// quarantine it starts, if any (a strike inside a running quarantine
// only lengthens it).
func (c *Coordinator) strikeLocked(w *workerConn, now time.Time, why string) {
	c.cStrikes.Inc()
	wasQuarantined := c.strikes.Quarantined(w.name, now)
	if c.strikes.Strike(w.name, now) && !wasQuarantined {
		c.logger.Warn("worker quarantined", "worker", w.name,
			"strikes", c.strikes.Strikes(w.name), "why", why)
	}
	c.refreshHealthGaugeLocked(now)
}

// Run submits a task, blocks until every shard has a result (or the
// task fails, the coordinator closes, or ctx fires), and returns the
// shard payloads in shard (index) order. Payload order depends only on
// (N, ShardSize) — never on worker count or scheduling — which is what
// lets an ordered merge reproduce the serial computation bit for bit.
func (c *Coordinator) Run(ctx context.Context, t Task) ([][]byte, error) {
	if t.Kind == "" {
		return nil, errors.New("dist: task kind required")
	}
	if t.N <= 0 {
		return nil, fmt.Errorf("dist: task needs n > 0 units (got %d)", t.N)
	}
	// Spec rides inside lease frames as json.RawMessage; a non-JSON spec
	// would poison every lease write, so reject it here instead.
	if len(t.Spec) > 0 && !json.Valid(t.Spec) {
		return nil, errors.New("dist: task spec must be valid JSON")
	}
	ranges := t.shards()
	tk := &task{
		t:         t,
		payloads:  make([][]byte, len(ranges)),
		remaining: len(ranges),
		doneCh:    make(chan struct{}),
	}
	canonical := t.canonical()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrCoordinatorClosed
	}
	// Capture the caller's trace binding once: grant spans are created
	// later from sweeper/dispatch goroutines, long after ctx may be gone.
	ref := trace.ContextRef(ctx)
	shards := make([]*shard, len(ranges))
	for i, r := range ranges {
		s := &shard{
			task: tk, idx: i, lo: r[0], hi: r[1],
			addr:   ShardAddr(t.Kind, canonical, r[0], r[1]),
			leases: make(map[*workerConn]bool),
			ref:    ref,
		}
		shards[i] = s
		c.open[s.addr] = append(c.open[s.addr], s)
		c.enqueueLocked(s, time.Time{})
	}
	c.dispatchLocked(c.now())
	c.mu.Unlock()

	select {
	case <-tk.doneCh:
		if tk.err != nil {
			return nil, tk.err
		}
		return tk.payloads, nil
	case <-ctx.Done():
		c.mu.Lock()
		c.failTaskLocked(tk, ctx.Err())
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// enqueueLocked puts s on the dispatch queue gated by notBefore.
func (c *Coordinator) enqueueLocked(s *shard, notBefore time.Time) {
	if s.done || s.queued {
		return
	}
	s.notBefore = notBefore
	s.queued = true
	c.queue = append(c.queue, s)
	c.gPending.Set(float64(len(c.queue)))
}

// reissueAfter is the age at which a shard still on its first lease is
// speculatively duplicated onto an idle worker (the first result wins,
// the other is dropped whole): 4 × ttl until 8 shards have completed,
// then 3 × their p95 latency, kept within [2 × sweepEvery, 4 × ttl] —
// the floor so that sub-millisecond p95s cannot duplicate every shard.
func reissueAfter(samples int64, p95, ttl, sweepEvery time.Duration) time.Duration {
	const (
		maxTTLs    = 4
		minSamples = 8
		p95s       = 3
		minSweeps  = 2
	)
	if samples < minSamples {
		return maxTTLs * ttl
	}
	return min(max(p95s*p95, minSweeps*sweepEvery), maxTTLs*ttl)
}

// dispatchLocked matches queued shards to workers with free slots, fails
// a task whose ready shard finds every worker quarantined, and
// speculatively re-issues over-age shards when capacity is left over.
func (c *Coordinator) dispatchLocked(now time.Time) {
	if c.closed {
		return
	}
	// Pending shards first, in queue order.
	rest := c.queue[:0]
	var gate time.Time // earliest backoff gate still closed
	for _, s := range c.queue {
		if s.done || s.task.err != nil {
			s.queued = false
			continue
		}
		if now.Before(s.notBefore) {
			if gate.IsZero() || s.notBefore.Before(gate) {
				gate = s.notBefore
			}
			rest = append(rest, s)
			continue
		}
		w, struckOut := c.freeWorkerLocked(nil, now)
		if struckOut {
			s.queued = false
			c.failTaskLocked(s.task, ErrNoHealthyWorker)
			continue
		}
		if w == nil {
			rest = append(rest, s)
			continue
		}
		s.queued = false
		s.attempts++
		c.grantLocked(w, s, now, false)
	}
	// Drop the tail's pointers: granted shards must not stay reachable —
	// with their task and its payloads — from the backing array.
	clear(c.queue[len(rest):])
	c.queue = rest
	c.gPending.Set(float64(len(c.queue)))
	if !gate.IsZero() && c.wake == nil {
		c.wake = time.AfterFunc(gate.Sub(now), func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.dispatchLocked(c.now())
		})
	} else if !gate.IsZero() {
		c.wake.Reset(gate.Sub(now))
	}

	// Speculative re-issue: only when nothing is pending and capacity is
	// idle, duplicate over-age single-leased shards.
	if len(c.queue) > 0 {
		return
	}
	snap := c.hShardLatency.Snapshot()
	after := reissueAfter(snap.Count, time.Duration(snap.P95*float64(time.Millisecond)),
		c.cfg.LeaseTTL, c.cfg.SweepEvery)
	for _, ss := range c.open {
		for _, s := range ss {
			if s.done || len(s.leases) != 1 || s.firstIssue.IsZero() {
				continue
			}
			age := now.Sub(s.firstIssue)
			if age < after {
				continue
			}
			var holder *workerConn
			for w := range s.leases {
				holder = w
			}
			w, _ := c.freeWorkerLocked(holder, now)
			if w == nil {
				return // no idle healthy capacity anywhere; stop scanning
			}
			c.cHedges.Inc()
			c.logger.Debug("hedge re-issue", "shard", s.addr[:12], "age", age, "threshold", after)
			c.grantLocked(w, s, now, true)
		}
	}
}

// freeWorkerLocked returns the worker with a free slot that is not
// quarantined — the least loaded, then the lower name — or nil; holder,
// a hedge's current lease holder, is excluded. struckOut reports that
// some worker is connected and every one is quarantined: a quarantined
// worker never gets a lease.
func (c *Coordinator) freeWorkerLocked(holder *workerConn, now time.Time) (best *workerConn, struckOut bool) {
	healthy := 0
	for w := range c.workers {
		if c.strikes.Quarantined(w.name, now) {
			continue
		}
		healthy++
		if w == holder || w.active >= w.slots {
			continue
		}
		if best == nil || w.active < best.active || w.active == best.active && w.name < best.name {
			best = w
		}
	}
	return best, len(c.workers) > 0 && healthy == 0
}

// grantLocked leases s to w and pushes the lease frame; hedge marks a
// speculative duplicate.
func (c *Coordinator) grantLocked(w *workerConn, s *shard, now time.Time, hedge bool) {
	if s.firstIssue.IsZero() {
		s.firstIssue = now
	}
	s.leases[w] = hedge
	w.active++
	w.leased[s.addr]++
	c.gLeases.Add(1)
	l := &Lease{
		Addr: s.addr, Kind: s.task.t.Kind, Spec: s.task.t.Spec,
		Lo: s.lo, Hi: s.hi,
	}
	if s.ref.Valid() {
		sp := s.ref.Start("shard")
		sp.Annotate("addr", s.addr[:12])
		sp.AnnotateInt("lo", s.lo)
		sp.AnnotateInt("hi", s.hi)
		sp.AnnotateInt("attempt", s.attempts)
		sp.Annotate("worker", w.name)
		if hedge {
			sp.Annotate("hedge", "true")
		}
		if s.spans == nil {
			s.spans = make(map[*workerConn]*trace.Span)
		}
		s.spans[w] = sp
		l.TraceID = s.ref.Trace
		l.ParentSpanID = sp.ID()
	}
	c.pushLocked(w, &Frame{T: TypeLease, Lease: l})
}

// pushLocked queues f on w's outbox (room for the hello ack, a lease per
// slot and one ping); a full one means a wedged writer: drop the worker.
func (c *Coordinator) pushLocked(w *workerConn, f *Frame) {
	select {
	case w.out <- f:
	default:
		c.logger.Warn("worker outbox full, dropping", "worker", w.name)
		_ = w.conn.Close()
	}
}

// releaseLeaseLocked removes w's lease on s (if any) and returns whether
// one was held.
func (c *Coordinator) releaseLeaseLocked(w *workerConn, s *shard) bool {
	if _, ok := s.leases[w]; !ok {
		return false
	}
	delete(s.leases, w)
	c.releaseSlotLocked(w, s.addr)
	return true
}

// releaseSlotLocked frees one of w's slots held for addr.
func (c *Coordinator) releaseSlotLocked(w *workerConn, addr string) {
	if w.leased[addr] > 0 {
		w.leased[addr]--
		if w.leased[addr] == 0 {
			delete(w.leased, addr)
		}
		w.active--
		c.gLeases.Add(-1)
	}
}

// requeueLocked returns a lost shard to the queue with backoff, failing
// the task once attempts are exhausted. A shard already on the queue
// lost nothing: the sweeper reaches every open shard without a lease,
// and counting those would book each waiting shard once per sweep.
func (c *Coordinator) requeueLocked(s *shard, now time.Time, why string) {
	if s.done || s.queued || s.task.err != nil || len(s.leases) > 0 {
		return
	}
	if s.attempts >= c.cfg.Requeue.MaxAttempts {
		c.failTaskLocked(s.task, fmt.Errorf(
			"dist: shard %s… [%d,%d) exhausted %d lease attempts (last: %s)",
			s.addr[:12], s.lo, s.hi, s.attempts, why))
		return
	}
	c.cReassigned.Inc()
	c.logger.Debug("shard requeued", "shard", s.addr[:12], "why", why, "attempt", s.attempts)
	c.enqueueLocked(s, now.Add(c.cfg.Requeue.Delay(s.attempts)))
}

// failTaskLocked fails t and detaches all its shards.
func (c *Coordinator) failTaskLocked(t *task, err error) {
	if t.err != nil || t.remaining == 0 {
		return
	}
	t.err = err
	for addr, ss := range c.open {
		keep := ss[:0]
		for _, s := range ss {
			if s.task != t {
				keep = append(keep, s)
				continue
			}
			s.done = true
			for w := range s.leases {
				s.endSpanLocked(w, "task-failed")
				c.releaseLeaseLocked(w, s)
			}
		}
		if len(keep) == 0 {
			delete(c.open, addr)
		} else {
			c.open[addr] = keep
		}
	}
	close(t.doneCh)
}

// handleResult accepts a shard payload idempotently: the first result
// for an address completes every open shard under it; later duplicates
// (hedge twins, deliveries after a requeue) are counted and dropped.
func (c *Coordinator) handleResult(w *workerConn, addr string, payload []byte, spans []trace.SpanData) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseSlotLocked(w, addr)
	ss, ok := c.open[addr]
	if !ok {
		c.cLate.Inc()
		return
	}
	c.cResults.Inc()
	c.adoptSpansLocked(ss, spans)
	for _, s := range ss {
		// A hedge grant winning is the hedge surface's success signal.
		if s.leases[w] {
			c.cHedgeWins.Inc()
		}
		// Release every other holder's lease on this shard: their slots
		// free up now; their eventual results land in the duplicate path.
		for h, hedge := range s.leases {
			switch {
			case h == w && hedge:
				s.endSpanLocked(h, "hedge-win")
			case h == w:
				s.endSpanLocked(h, "result")
			case hedge:
				c.cDuplicates.Inc()
				s.endSpanLocked(h, "hedge-lose")
			default:
				c.cDuplicates.Inc()
				s.endSpanLocked(h, "superseded")
			}
			c.releaseLeaseLocked(h, s)
		}
		s.done = true
		if !s.firstIssue.IsZero() {
			c.hShardLatency.Observe(obs.Ms(now.Sub(s.firstIssue)))
		}
		t := s.task
		t.payloads[s.idx] = payload
		t.remaining--
		if t.remaining == 0 && t.err == nil {
			close(t.doneCh)
		}
	}
	delete(c.open, addr)
	c.dispatchLocked(now)
}

// adoptSpansLocked stitches worker-shipped spans into the request's
// trace. The bundle's root (the worker.eval span) names its grant span
// as Parent; route the whole bundle into that grant span's sink, or the
// first traced shard when no grant span matches (e.g. the grant span
// already closed as disconnected before the late result landed).
func (c *Coordinator) adoptSpansLocked(ss []*shard, spans []trace.SpanData) {
	if len(spans) == 0 {
		return
	}
	byID := map[string]*trace.Span{}
	var target *trace.Span
	for _, s := range ss {
		for _, sp := range s.spans {
			if sp == nil {
				continue
			}
			if target == nil {
				target = sp
			}
			byID[sp.ID()] = sp
		}
	}
	for _, sd := range spans {
		if sp, ok := byID[sd.Parent]; ok {
			target = sp
			break
		}
	}
	for _, sd := range spans {
		target.Adopt(sd)
	}
}

// handleNack requeues a worker-failed shard with backoff and charges
// the worker a strike.
func (c *Coordinator) handleNack(w *workerConn, addr, reason string) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cNacks.Inc()
	c.strikeLocked(w, now, "nack: "+reason)
	c.releaseSlotLocked(w, addr)
	for _, s := range c.open[addr] {
		s.endSpanLocked(w, "nack")
		delete(s.leases, w)
		c.requeueLocked(s, now, "nack: "+reason)
	}
	c.dispatchLocked(now)
}

// handleEcho records w's echo of a sweeper ping. The ping was queued
// behind every lease sent to w before it, and TCP keeps that order, so
// the echo also says w has read all of them.
func (c *Coordinator) handleEcho(w *workerConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.heard = c.now()
	w.pinged = false
}

// sweeper periodically runs sweepOnce.
func (c *Coordinator) sweeper() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.sweepOnce()
		}
	}
}

// sweepOnce runs one janitor pass. A connection that has echoed no ping
// for longer than LeaseTTL is closed: its read loop ends, and the
// disconnect path in serveConn requeues its leases and charges it one
// strike. Every other connection without a ping in flight gets one.
func (c *Coordinator) sweepOnce() {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for w := range c.workers {
		if silent := now.Sub(w.heard); silent > c.cfg.LeaseTTL {
			c.logger.Warn("worker silent, disconnecting", "worker", w.name, "silent", silent)
			_ = w.conn.Close()
		} else if !w.pinged {
			w.pinged = true
			c.pushLocked(w, &Frame{T: TypeHeartbeat})
		}
	}
	c.strikes.Prune(now)
	c.refreshHealthGaugeLocked(now)
	c.dispatchLocked(now)
}

// acceptLoop admits worker connections until the listener closes.
func (c *Coordinator) acceptLoop(ln net.Listener) {
	defer c.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			_ = conn.Close()
			return
		}
		c.conns[conn] = struct{}{}
		c.wg.Add(1)
		c.mu.Unlock()
		go c.serveConn(conn)
	}
}

// serveConn runs one worker connection: handshake, register, read loop.
func (c *Coordinator) serveConn(conn net.Conn) {
	defer c.wg.Done()
	defer func() {
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
		_ = conn.Close()
	}()
	// A dialer that never says hello is dropped after one LeaseTTL.
	_ = conn.SetReadDeadline(time.Now().Add(c.cfg.LeaseTTL))
	hello, err := ReadFrame(conn)
	if err != nil || hello.T != TypeHello {
		c.logger.Warn("bad handshake", "err", err)
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	if hello.V != ProtocolVersion {
		_ = WriteFrame(conn, &Frame{T: TypeNack, Err: fmt.Sprintf(
			"dist: protocol version %d unsupported (coordinator speaks v%d)", hello.V, ProtocolVersion)})
		return
	}
	w := &workerConn{
		conn: conn, name: hello.Worker, slots: hello.Slots,
		leased: make(map[string]int),
	}
	if w.slots < 1 {
		w.slots = 1
	}
	if w.name == "" {
		w.name = conn.RemoteAddr().String()
	}
	// The outbox holds the hello ack, one lease per slot and one ping.
	w.out = make(chan *Frame, w.slots*2+2)

	// After Close the conn is closed: the read loop ends and unregisters w.
	c.mu.Lock()
	w.heard = c.now()
	c.workers[w] = struct{}{}
	c.gWorkers.Set(float64(len(c.workers)))
	w.out <- &Frame{T: TypeHello, V: ProtocolVersion}
	c.dispatchLocked(c.now())
	c.mu.Unlock()
	c.logger.Info("worker joined", "worker", w.name, "slots", w.slots)

	// Writer: drains the outbox so dispatch never blocks on a slow conn.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for f := range w.out {
			if err := WriteFrame(conn, f); err != nil {
				_ = conn.Close()
				return
			}
		}
	}()

	// Labeled so CPU profiles attribute frame handling (result merges,
	// requeue dispatch) to the worker connection that triggered it.
	pprof.Do(context.Background(), pprof.Labels("dist.conn", w.name), func(context.Context) {
		for {
			f, err := ReadFrame(conn)
			if err != nil {
				break
			}
			switch f.T {
			case TypeHeartbeat:
				c.handleEcho(w)
			case TypeResult:
				c.hRemoteEval.Observe(f.EvalMs)
				c.handleResult(w, f.Addr, f.Payload, f.Spans)
			case TypeNack:
				c.handleNack(w, f.Addr, f.Err)
			default:
				c.logger.Warn("unexpected frame from worker", "worker", w.name, "type", f.T)
			}
		}
	})

	// Unregister: requeue everything this worker held. A worker that
	// vanished or fell silent mid-lease is charged one strike.
	now := c.now()
	c.mu.Lock()
	delete(c.workers, w)
	c.gWorkers.Set(float64(len(c.workers)))
	held := false
	for addr := range w.leased {
		for _, s := range c.open[addr] {
			if c.releaseLeaseLocked(w, s) {
				held = true
				s.endSpanLocked(w, "disconnected")
				c.requeueLocked(s, now, "worker "+w.name+" disconnected")
			}
		}
	}
	if held {
		c.strikeLocked(w, now, "disconnected with leases held")
	}
	// Slots held for already-closed shards.
	for addr, n := range w.leased {
		for i := 0; i < n; i++ {
			c.releaseSlotLocked(w, addr)
		}
	}
	close(w.out)
	c.dispatchLocked(now)
	c.mu.Unlock()
	<-writerDone
	c.logger.Info("worker left", "worker", w.name)
}
