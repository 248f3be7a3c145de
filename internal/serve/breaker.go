package serve

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
)

// Breaker states. Exported as strings for logs/tests; the gauge encodes
// them 0/1/2 in state order.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// The pool's strike policy (internal/health): breakerThreshold
// infrastructure failures inside breakerWindow quarantine the pool for
// that long, doubling per further strike.
const (
	breakerThreshold = 3
	breakerWindow    = 5 * time.Second
)

// HealthyPool is the optional pool introspection surface the breaker
// uses: a pool that can report zero healthy workers is failed over
// immediately, without waiting for Run to time out against an empty
// pool. *dist.Coordinator satisfies it.
type HealthyPool interface {
	HealthyWorkers() int
}

// BreakerConfig configures a Breaker.
type BreakerConfig struct {
	// Registry receives serve.breaker_* metrics (nil = unregistered).
	Registry *obs.Registry
	// Logger receives state transitions (nil = discard).
	Logger *slog.Logger

	// now overrides the clock (tests only; nil = time.Now).
	now func() time.Time
}

// Breaker guards the pool evaluator with the strike book the gateway
// keeps per replica and dist per worker, over the one key it has: a
// pool infrastructure failure is a strike, and while the pool is
// quarantined (open) — or reports zero healthy workers — every request
// is served by the local evaluator instead: degraded capacity, identical
// bytes, since pooled and local evaluation are bit-equal by
// construction. Quarantine expiry admits the next request as the probe
// (half-open): success closes the breaker, failure is one more strike
// under the book's policy — doubling the quarantine on a record the book
// still holds, counting from one on a record it has forgiven.
type Breaker struct {
	logger *slog.Logger
	now    func() time.Time

	mu   sync.Mutex
	book *health.Book[struct{}]
	// tripped is set by a quarantine and cleared by the pool's next
	// answer: between the two, an unquarantined pool is half-open.
	tripped bool

	gState                      *obs.Gauge
	cOpens, cFallbacks, cProbes *obs.Counter
}

// NewBreaker builds a Breaker from cfg.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	reg := cfg.Registry
	return &Breaker{
		logger: obs.Component(obs.OrNop(cfg.Logger), "serve.breaker"),
		now:    cfg.now,
		book:   health.NewBook[struct{}](breakerThreshold, breakerWindow),

		gState:     reg.Gauge("serve.breaker_state"),
		cOpens:     reg.Counter("serve.breaker_opens"),
		cFallbacks: reg.Counter("serve.breaker_fallbacks"),
		cProbes:    reg.Counter("serve.breaker_probes"),
	}
}

// State returns the current breaker state (one of the Breaker*
// constants).
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.book.Quarantined(struct{}{}, b.now()):
		return BreakerOpen
	case b.tripped:
		return BreakerHalfOpen
	}
	return BreakerClosed
}

// usePool decides one request's route: false while the pool is
// quarantined, true otherwise — as the probe, if the quarantine has
// just expired.
func (b *Breaker) usePool() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.book.Quarantined(struct{}{}, b.now()) {
		return false
	}
	if b.tripped {
		b.cProbes.Inc()
		b.gState.Set(2)
	}
	return true
}

// record folds a pool attempt's outcome into the book. infra reports
// whether a failure is the pool's fault (as opposed to a bad request or
// the caller's context, which say nothing about pool health).
func (b *Breaker) record(err error, infra bool) {
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	// An attempt that was already in flight when the pool was quarantined
	// still strikes (the ban escalates), but neither opens nor closes it.
	open := b.book.Quarantined(struct{}{}, now)
	switch {
	case err == nil && b.tripped && !open:
		b.tripped = false
		b.gState.Set(0)
		b.logger.Info("breaker closed: probe succeeded")
	case infra:
		if b.book.Strike(struct{}{}, now) && !open {
			b.tripped = true
			b.cOpens.Inc()
			b.gState.Set(1)
			b.logger.Warn("breaker opened: pool infrastructure failures",
				"strikes", b.book.Strikes(struct{}{}), "err", err)
		}
	}
}

// poolInfraFailure classifies an error from a pool attempt: bad
// requests and the caller's own context expiring are not evidence of
// pool trouble, everything else (coordinator closed, shard attempts
// exhausted, transport faults) is.
func poolInfraFailure(ctx context.Context, err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrBadRequest) {
		return false
	}
	if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return false
	}
	return true
}

// Evaluator wraps PoolEvaluator(pool, shardRuns) with this breaker:
// pool attempts feed the strike book, and any request the breaker
// routes away from the pool — or that fails there for infrastructure
// reasons — is answered by the local evaluator instead. Local fallback
// is degraded (single-process) but returns byte-identical results, so
// clients cannot observe which path answered.
func (b *Breaker) Evaluator(pool Pool, shardRuns int) func(ctx context.Context, req *Request) (any, error) {
	pooled := PoolEvaluator(pool, shardRuns)
	hp, hasHealth := pool.(HealthyPool)
	return func(ctx context.Context, req *Request) (any, error) {
		// A pool with zero healthy workers cannot answer; trying would block
		// Run until the request deadline. Nothing was attempted, so it is
		// not a strike either: the pool is used again as soon as it reports
		// capacity.
		if (!hasHealth || hp.HealthyWorkers() > 0) && b.usePool() {
			result, err := pooled(ctx, req)
			infra := poolInfraFailure(ctx, err)
			b.record(err, infra)
			if !infra {
				return result, err
			}
			b.logger.Warn("pool evaluation failed, falling back to local", "err", err)
		}
		b.cFallbacks.Inc()
		return Evaluate(ctx, req)
	}
}
