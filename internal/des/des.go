// Package des is a deterministic discrete-event simulation kernel: a
// virtual clock, a binary-heap event queue with stable tie-breaking, and
// cancellable timers. It is the substrate for the BitTorrent swarm
// simulator (internal/sim), mirroring the role of the custom C++
// simulator used in the paper's validation.
package des

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrPastEvent is returned for an event scheduled before the clock.
var ErrPastEvent = errors.New("des: event scheduled in the past")

// Event is a scheduled callback. The callback runs with the clock set to
// the event's time.
type Event struct {
	at     float64
	seq    uint64 // schedule order; breaks ties deterministically
	fn     func()
	index  int // heap index; -1 when not queued
	cancel bool
}

// Cancel prevents the event from firing. Cancelling an event that already
// fired or was cancelled is a no-op.
func (e *Event) Cancel() { e.cancel = true }

// Simulator owns the virtual clock and the pending-event queue.
// A Simulator is not safe for concurrent use; all scheduling must happen
// from the goroutine running it (typically from within event callbacks).
type Simulator struct {
	now     float64
	queue   eventQueue
	seq     uint64
	stopped bool
	fired   uint64

	// Kernel telemetry (see Stats).
	cancelled uint64
	maxDepth  int
	wall      time.Duration
}

// Stats is the kernel's own telemetry: how much event work a run did and
// how expensive it was in wall-clock terms.
type Stats struct {
	// Fired is the number of events executed.
	Fired uint64
	// Cancelled is the number of cancelled events discarded from the
	// queue without firing.
	Cancelled uint64
	// MaxQueueDepth is the high-water mark of the pending-event heap.
	MaxQueueDepth int
	// Pending is the current queue length (including not-yet-discarded
	// cancelled events).
	Pending int
	// VirtualTime is the current clock reading.
	VirtualTime float64
	// WallSeconds is the wall-clock time spent inside Run so far;
	// WallSeconds/VirtualTime is the cost of one virtual-time unit.
	WallSeconds float64
}

// WallPerVirtualUnit returns the wall-clock seconds spent per unit of
// virtual time, or 0 before the clock has advanced.
func (st Stats) WallPerVirtualUnit() float64 {
	if st.VirtualTime <= 0 {
		return 0
	}
	return st.WallSeconds / st.VirtualTime
}

// Stats returns the kernel telemetry accumulated so far.
func (s *Simulator) Stats() Stats {
	return Stats{
		Fired:         s.fired,
		Cancelled:     s.cancelled,
		MaxQueueDepth: s.maxDepth,
		Pending:       s.queue.Len(),
		VirtualTime:   s.now,
		WallSeconds:   s.wall.Seconds(),
	}
}

// New returns a simulator with the clock at 0.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() float64 { return s.now }

// At schedules fn at absolute virtual time at. It returns the Event handle
// so the caller may cancel it.
func (s *Simulator) At(at float64, fn func()) (*Event, error) {
	if at < s.now || math.IsNaN(at) {
		return nil, fmt.Errorf("%w: at=%g now=%g", ErrPastEvent, at, s.now)
	}
	if fn == nil {
		return nil, errors.New("des: nil event callback")
	}
	e := &Event{at: at, seq: s.seq, fn: fn, index: -1}
	s.seq++
	heap.Push(&s.queue, e)
	if d := s.queue.Len(); d > s.maxDepth {
		s.maxDepth = d
	}
	return e, nil
}

// After schedules fn delay time units from now.
func (s *Simulator) After(delay float64, fn func()) (*Event, error) {
	if delay < 0 || math.IsNaN(delay) {
		return nil, fmt.Errorf("%w: delay=%g", ErrPastEvent, delay)
	}
	return s.At(s.now+delay, fn)
}

// Stop makes Run return after the current event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Step executes the next pending event (skipping cancelled ones) and
// returns true, or returns false when the queue is empty or the simulator
// is stopped.
func (s *Simulator) Step() bool {
	for {
		if s.stopped || s.queue.Len() == 0 {
			return false
		}
		e, ok := heap.Pop(&s.queue).(*Event)
		if !ok {
			return false
		}
		if e.cancel {
			s.cancelled++
			continue
		}
		s.now = e.at
		s.fired++
		e.fn()
		return true
	}
}

// Run executes events until the queue drains, Stop is called, or the clock
// would pass horizon (exclusive; use math.Inf(1) for no horizon). It
// returns the virtual time at which it stopped.
func (s *Simulator) Run(horizon float64) float64 {
	start := time.Now()
	defer func() { s.wall += time.Since(start) }()
	for {
		if s.stopped {
			return s.now
		}
		next, ok := s.peek()
		if !ok {
			return s.now
		}
		if next > horizon {
			// Advance the clock to the horizon but leave the event queued.
			s.now = horizon
			return s.now
		}
		s.Step()
	}
}

// peek returns the time of the next live event.
func (s *Simulator) peek() (float64, bool) {
	for s.queue.Len() > 0 {
		e := s.queue[0]
		if !e.cancel {
			return e.at, true
		}
		heap.Pop(&s.queue)
		s.cancelled++
	}
	return 0, false
}

// eventQueue implements heap.Interface ordered by (time, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e, ok := x.(*Event)
	if !ok {
		panic("des: push of non-event")
	}
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// requeue re-inserts a previously-fired event at a new absolute time,
// reusing the Event struct. The event must not currently be queued.
func (s *Simulator) requeue(e *Event, at float64) error {
	if at < s.now || math.IsNaN(at) {
		return fmt.Errorf("%w: at=%g now=%g", ErrPastEvent, at, s.now)
	}
	if e.index != -1 {
		return errors.New("des: requeue of a still-pending event")
	}
	e.at = at
	e.seq = s.seq
	e.cancel = false
	s.seq++
	heap.Push(&s.queue, e)
	if d := s.queue.Len(); d > s.maxDepth {
		s.maxDepth = d
	}
	return nil
}

// Ticker fires a callback at a fixed period until stopped. It reschedules
// itself from within the event, so cancellation takes effect at the next
// tick boundary. The tick closure and Event struct are created once and
// reused, so a steady-state tick performs no allocation.
type Ticker struct {
	sim     *Simulator
	period  float64
	fn      func()
	tick    func()
	next    *Event
	stopped bool
}

// NewTicker schedules fn every period time units, first firing one period
// from now.
func NewTicker(sim *Simulator, period float64, fn func()) (*Ticker, error) {
	if period <= 0 || math.IsNaN(period) {
		return nil, fmt.Errorf("des: ticker period must be positive, got %g", period)
	}
	t := &Ticker{sim: sim, period: period, fn: fn}
	t.tick = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			_ = t.sim.requeue(t.next, t.sim.now+t.period)
		}
	}
	ev, err := sim.After(t.period, t.tick)
	if err != nil {
		return nil, err
	}
	t.next = ev
	return t, nil
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.next != nil {
		t.next.Cancel()
	}
}
