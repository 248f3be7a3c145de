package par

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrSaturated reports an admission attempt against a Gate whose waiting
// room is already full. Callers translate it into back-pressure (an HTTP
// 429, a dropped job, a retry with backoff).
var ErrSaturated = errors.New("par: admission queue full")

// Gate is a bounded-concurrency admission controller: at most `workers`
// holders run at once, at most `queue` more wait for a slot, and anything
// beyond that is rejected immediately with ErrSaturated instead of piling
// up. It is the serving-side complement of the Map worker pool — Map
// bounds the fan-out of one computation, Gate bounds how many
// computations are allowed to exist at all.
type Gate struct {
	slots    chan struct{}
	capacity int64        // workers + queue
	admitted atomic.Int64 // waiting + running holders

	// Optional gauges (see Instrument): queue depth and running holders.
	depth    atomic.Pointer[obs.Gauge]
	inflight atomic.Pointer[obs.Gauge]
}

// NewGate returns a gate admitting `workers` concurrent holders with a
// waiting room of `queue`. Non-positive workers default to 1; a negative
// queue defaults to 0 (admit-or-shed, no waiting).
func NewGate(workers, queue int) *Gate {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Gate{
		slots:    make(chan struct{}, workers),
		capacity: int64(workers + queue),
	}
}

// Instrument publishes the gate's state to reg as gauges named
// prefix+".queue_depth" (admitted but not yet running) and
// prefix+".inflight" (currently running holders).
func (g *Gate) Instrument(reg *obs.Registry, prefix string) {
	g.depth.Store(reg.Gauge(prefix + ".queue_depth"))
	g.inflight.Store(reg.Gauge(prefix + ".inflight"))
}

// Acquire admits the caller: it returns a release function once a worker
// slot is held, ErrSaturated if the waiting room is full, or the
// context's error if it fires while queued. The release function must be
// called exactly once.
func (g *Gate) Acquire(ctx context.Context) (release func(), err error) {
	if g.admitted.Add(1) > g.capacity {
		g.admitted.Add(-1)
		return nil, ErrSaturated
	}
	g.publish()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case g.slots <- struct{}{}:
		if gi := g.inflight.Load(); gi != nil {
			gi.Add(1)
		}
		g.publish()
		return func() {
			<-g.slots
			g.admitted.Add(-1)
			if gi := g.inflight.Load(); gi != nil {
				gi.Add(-1)
			}
			g.publish()
		}, nil
	case <-ctx.Done():
		g.admitted.Add(-1)
		g.publish()
		return nil, ctx.Err()
	}
}

// Admitted returns the number of current holders, waiting or running.
func (g *Gate) Admitted() int { return int(g.admitted.Load()) }

// publish refreshes the queue-depth gauge (admitted minus running). The
// two reads are not atomic together, so the gauge is an approximation —
// fine for telemetry, never used for control flow.
func (g *Gate) publish() {
	gd := g.depth.Load()
	if gd == nil {
		return
	}
	d := g.admitted.Load() - int64(len(g.slots))
	if d < 0 {
		d = 0
	}
	gd.Set(float64(d))
}
