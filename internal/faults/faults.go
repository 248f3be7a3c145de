// Package faults is a deterministic, seed-driven fault injector for the
// live client/tracker stack and the swarm simulator.
//
// The paper's efficiency model (Section 5) derives swarm efficiency from
// connection failure alone: downward transitions of the migration chain
// are binomial in 1-p_r. This package makes that failure process an
// injectable, reproducible input instead of an accident of the network:
// net.Conn/net.Listener wrappers (latency, drop-after-N-bytes, corrupt,
// refuse, stall) for the loopback swarms, and a round-driven failure
// schedule (Plan) for internal/sim. Every decision is drawn from a seeded
// RNG in arrival order, so the same Spec yields the same fault schedule.
package faults

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// ErrInjected marks failures produced by the injector, so tests and logs
// can tell injected faults from real ones.
var ErrInjected = errors.New("faults: injected failure")

// DefaultCorruptThreshold is the minimum write size CorruptConn garbles.
// Frames below it (handshakes, control messages) pass untouched so the
// connection survives long enough to deliver corrupt payload — the
// scenario that exercises piece verification and peer quarantine.
const DefaultCorruptThreshold = 128

// LatencyConn returns a conn that sleeps d before every Read, modeling
// added network latency.
func LatencyConn(c net.Conn, d time.Duration) net.Conn {
	return &latencyConn{Conn: c, d: d}
}

type latencyConn struct {
	net.Conn
	d time.Duration
}

func (l *latencyConn) Read(p []byte) (int, error) {
	time.Sleep(l.d)
	return l.Conn.Read(p)
}

// DropConn returns a conn that fails with ErrInjected (and closes the
// underlying conn) once n total bytes have moved in either direction —
// the connection-failure primitive behind the model's 1-p_r.
func DropConn(c net.Conn, n int64) net.Conn {
	return &dropConn{Conn: c, budget: n}
}

type dropConn struct {
	net.Conn
	mu     sync.Mutex
	budget int64
	dead   bool
}

func (d *dropConn) spend(n int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead {
		return fmt.Errorf("%w: connection dropped", ErrInjected)
	}
	d.budget -= int64(n)
	if d.budget <= 0 {
		d.dead = true
		_ = d.Conn.Close()
		return fmt.Errorf("%w: connection dropped", ErrInjected)
	}
	return nil
}

func (d *dropConn) Read(p []byte) (int, error) {
	n, err := d.Conn.Read(p)
	if err != nil {
		return n, err
	}
	if derr := d.spend(n); derr != nil {
		return n, derr
	}
	return n, nil
}

func (d *dropConn) Write(p []byte) (int, error) {
	d.mu.Lock()
	dead := d.dead
	d.mu.Unlock()
	if dead {
		return 0, fmt.Errorf("%w: connection dropped", ErrInjected)
	}
	n, err := d.Conn.Write(p)
	if err != nil {
		return n, err
	}
	if derr := d.spend(n); derr != nil {
		return n, derr
	}
	return n, nil
}

// CorruptConn returns a conn that flips the final byte of every Write
// larger than threshold bytes (DefaultCorruptThreshold when threshold
// <= 0). Small frames — handshakes, control messages — pass through
// intact, so the peer stays connected while every large payload (piece
// blocks) it sends arrives corrupt and fails hash verification.
func CorruptConn(c net.Conn, threshold int) net.Conn {
	if threshold <= 0 {
		threshold = DefaultCorruptThreshold
	}
	return &corruptConn{Conn: c, threshold: threshold}
}

type corruptConn struct {
	net.Conn
	threshold int
}

func (cc *corruptConn) Write(p []byte) (int, error) {
	if len(p) <= cc.threshold {
		return cc.Conn.Write(p)
	}
	buf := make([]byte, len(p))
	copy(buf, p)
	buf[len(buf)-1] ^= 0xFF
	return cc.Conn.Write(buf)
}

// StallConn returns a conn whose reads block forever (until the conn is
// closed) once n total bytes have been read — a peer that wedges
// mid-transfer without disconnecting.
func StallConn(c net.Conn, n int64) net.Conn {
	return &stallConn{Conn: c, budget: n, unblock: make(chan struct{})}
}

type stallConn struct {
	net.Conn
	mu      sync.Mutex
	budget  int64
	stalled bool
	once    sync.Once
	unblock chan struct{}
}

func (s *stallConn) Read(p []byte) (int, error) {
	s.mu.Lock()
	stalled := s.stalled
	s.mu.Unlock()
	if stalled {
		<-s.unblock
		return 0, fmt.Errorf("%w: stalled connection closed", ErrInjected)
	}
	n, err := s.Conn.Read(p)
	s.mu.Lock()
	s.budget -= int64(n)
	if s.budget <= 0 {
		s.stalled = true
	}
	s.mu.Unlock()
	return n, err
}

func (s *stallConn) Close() error {
	s.once.Do(func() { close(s.unblock) })
	return s.Conn.Close()
}

// RefuseListener returns a listener that accepts every connection and
// immediately closes it — the caller-visible behavior of a dark service
// (dial succeeds, protocol exchange fails instantly). Used to stand in
// for a refused or blacked-out tracker tier.
func RefuseListener(ln net.Listener) net.Listener {
	return &refuseListener{Listener: ln}
}

type refuseListener struct {
	net.Listener
}

func (r *refuseListener) Accept() (net.Conn, error) {
	for {
		c, err := r.Listener.Accept()
		if err != nil {
			return nil, err
		}
		_ = c.Close()
	}
}

// BlackoutListener returns a listener that behaves like RefuseListener
// during the given windows (measured from the first Accept call) and
// passes connections through otherwise — a tracker that goes dark and
// comes back.
func BlackoutListener(ln net.Listener, windows []Window) net.Listener {
	return &blackoutListener{Listener: ln, windows: windows}
}

type blackoutListener struct {
	net.Listener
	mu      sync.Mutex
	started time.Time
	windows []Window
}

func (b *blackoutListener) dark() bool {
	b.mu.Lock()
	if b.started.IsZero() {
		b.started = time.Now()
	}
	at := time.Since(b.started).Seconds()
	b.mu.Unlock()
	for _, w := range b.windows {
		if w.Contains(at) {
			return true
		}
	}
	return false
}

func (b *blackoutListener) Accept() (net.Conn, error) {
	for {
		c, err := b.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if b.dark() {
			_ = c.Close()
			continue
		}
		return c, nil
	}
}

// Decision records what the injector chose for one connection, in arrival
// order. The sequence of decisions IS the fault schedule: two injectors
// built from the same Spec produce identical sequences.
type Decision struct {
	// Conn is the 0-based arrival ordinal of the connection.
	Conn int
	// Drop, when positive, is the byte budget before the connection fails.
	Drop int64
	// Corrupt marks the connection's large writes for corruption.
	Corrupt bool
	// Stall, when positive, is the bytes read before reads wedge.
	Stall int64
	// Latency is the added per-read delay.
	Latency time.Duration
}

// Injector wraps live connections with faults sampled deterministically
// from a Spec. Safe for concurrent use; decisions are drawn in
// connection-arrival order from the seeded stream.
type Injector struct {
	spec Spec

	mu    sync.Mutex
	rng   *stats.RNG
	next  int
	sched []Decision

	wrapped  *obs.Counter
	injected *obs.Counter
}

// NewInjector builds an injector for the spec. The same spec always
// produces the same decision sequence.
func NewInjector(spec Spec) *Injector {
	in := &Injector{
		spec: spec,
		rng:  stats.NewRNG(spec.Seed, spec.Seed^0xFA17),
	}
	in.Instrument(nil)
	return in
}

// Instrument registers faults.conns_wrapped and faults.conns_injected in
// reg. Call before use; a nil reg counts into unregistered handles.
func (in *Injector) Instrument(reg *obs.Registry) {
	in.wrapped = reg.Counter("faults.conns_wrapped")
	in.injected = reg.Counter("faults.conns_injected")
}

// decide draws the next connection's faults from the seeded stream.
func (in *Injector) decide() Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	d := Decision{Conn: in.next, Latency: in.spec.Latency}
	in.next++
	// Draw every probability in a fixed order so the stream position, and
	// therefore the whole schedule, depends only on arrival ordinals.
	if in.rng.Bernoulli(in.spec.DropRate) {
		d.Drop = in.spec.dropAfter()
	}
	if in.rng.Bernoulli(in.spec.CorruptRate) {
		d.Corrupt = true
	}
	if in.rng.Bernoulli(in.spec.StallRate) {
		d.Stall = in.spec.dropAfter()
	}
	in.sched = append(in.sched, d)
	return d
}

// WrapConn applies the next sampled fault decision to c. It is the hook
// the client Config exposes (ConnWrapper); nil injectors need no guard
// because callers check for nil before installing the hook.
func (in *Injector) WrapConn(c net.Conn) net.Conn {
	d := in.decide()
	in.wrapped.Inc()
	faulted := false
	if d.Latency > 0 {
		c = LatencyConn(c, d.Latency)
		faulted = true
	}
	if d.Corrupt {
		c = CorruptConn(c, 0)
		faulted = true
	}
	if d.Stall > 0 {
		c = StallConn(c, d.Stall)
		faulted = true
	}
	if d.Drop > 0 {
		c = DropConn(c, d.Drop)
		faulted = true
	}
	if faulted {
		in.injected.Inc()
	}
	return c
}

// Schedule returns a copy of the decisions drawn so far, in arrival
// order — the run's realized fault schedule.
func (in *Injector) Schedule() []Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Decision, len(in.sched))
	copy(out, in.sched)
	return out
}
