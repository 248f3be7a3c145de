// Package retry implements context-aware, jittered exponential backoff
// with bounded attempts and per-attempt budgets.
//
// The paper's efficiency model (Section 5) is driven entirely by
// connection failure: every downward transition of the migration chain is
// a failed connection, and the system's efficiency is determined by how it
// re-establishes them. This package is the live stack's re-establishment
// primitive: tracker announces, peer dials, and UDP exchanges all retry
// through a Policy, so failure handling is uniform, bounded, and
// observable (attempt/giveup counters in internal/obs).
package retry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultBaseDelay is the first backoff delay when a Policy leaves
// BaseDelay zero.
const DefaultBaseDelay = 200 * time.Millisecond

// DefaultMaxDelay caps backoff delays when a Policy leaves MaxDelay zero.
const DefaultMaxDelay = 10 * time.Second

// Policy describes a bounded retry loop: up to MaxAttempts tries separated
// by exponentially growing, optionally jittered delays. The zero value
// performs exactly one attempt (no retries), so embedding a Policy is
// always safe.
type Policy struct {
	// MaxAttempts bounds the total number of tries, including the first.
	// Values below 1 mean a single attempt.
	MaxAttempts int
	// BaseDelay is the pause before the second attempt
	// (DefaultBaseDelay when zero).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (DefaultMaxDelay when zero).
	MaxDelay time.Duration
	// Jitter is the fraction of each delay replaced by a uniform random
	// draw in [1-Jitter, 1], e.g. 0.25 shortens delays by up to 25%.
	// Zero disables jitter; values are clamped to [0, 1].
	Jitter float64
	// AttemptTimeout bounds each individual attempt with its own context
	// deadline (0 = attempts share the caller's context unchanged).
	AttemptTimeout time.Duration
	// Retryable classifies errors: a false return stops the loop
	// immediately. Nil treats every error as retryable. Context
	// cancellation always stops the loop regardless.
	Retryable func(error) bool
}

// attempts normalizes MaxAttempts.
func (p Policy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Delay returns the backoff before attempt n+1 (n is the 1-based attempt
// that just failed), before jitter. Deterministic in the policy alone.
func (p Policy) Delay(n int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = DefaultBaseDelay
	}
	maxD := p.MaxDelay
	if maxD <= 0 {
		maxD = DefaultMaxDelay
	}
	d := float64(base)
	for i := 1; i < n; i++ {
		d *= 2
		if d >= float64(maxD) {
			return maxD
		}
	}
	if d > float64(maxD) {
		return maxD
	}
	return time.Duration(d)
}

// Rand is the randomness source for jitter. *stats.RNG satisfies it.
type Rand interface {
	Float64() float64
}

// LockedRand wraps r so concurrent Do calls can share one deterministic
// jitter stream.
func LockedRand(r Rand) Rand { return &lockedRand{r: r} }

type lockedRand struct {
	mu sync.Mutex
	r  Rand
}

func (l *lockedRand) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Float64()
}

// Metrics carries the obs counters a retry loop increments.
type Metrics struct {
	// Attempts counts every try (first and retried alike).
	Attempts *obs.Counter
	// Retries counts tries after the first.
	Retries *obs.Counter
	// GiveUps counts loops that exhausted their attempts or hit a
	// non-retryable error after at least one failure.
	GiveUps *obs.Counter
}

// NewMetrics registers <prefix>attempts, <prefix>retries and
// <prefix>giveups in reg (a nil reg leaves them unregistered).
func NewMetrics(reg *obs.Registry, prefix string) *Metrics {
	return &Metrics{
		Attempts: reg.Counter(prefix + "attempts"),
		Retries:  reg.Counter(prefix + "retries"),
		GiveUps:  reg.Counter(prefix + "giveups"),
	}
}

// uncounted is where loops run with a nil *Metrics count; nobody reads it.
var uncounted = NewMetrics(nil, "")

// Do runs fn under the policy until it succeeds, a non-retryable error
// occurs, the attempts are exhausted, or ctx is done. Backoff sleeps are
// context-cancellable, so a Do loop can never outlive its caller. rng
// supplies jitter (nil disables jitter, keeping delays fully
// deterministic); m receives attempt/giveup counts (nil: uncounted).
func Do(ctx context.Context, p Policy, rng Rand, m *Metrics, fn func(ctx context.Context) error) error {
	_, err := DoValue(ctx, p, rng, m, func(ctx context.Context) (struct{}, error) {
		return struct{}{}, fn(ctx)
	})
	return err
}

// DoValue is Do for functions that produce a value alongside the error.
func DoValue[T any](ctx context.Context, p Policy, rng Rand, m *Metrics, fn func(ctx context.Context) (T, error)) (T, error) {
	var zero T
	if m == nil {
		m = uncounted
	}
	attempts := p.attempts()
	var lastErr error
	for n := 1; ; n++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return zero, fmt.Errorf("retry: %d attempts: %v: %w", n-1, lastErr, err)
			}
			return zero, err
		}
		m.Attempts.Inc()
		if n > 1 {
			m.Retries.Inc()
		}
		v, err := runAttempt(ctx, p.AttemptTimeout, fn)
		if err == nil {
			return v, nil
		}
		lastErr = err
		if errors.Is(err, context.Canceled) ||
			(p.Retryable != nil && !p.Retryable(err)) {
			m.GiveUps.Inc()
			return zero, fmt.Errorf("retry: attempt %d: %w", n, err)
		}
		if n >= attempts {
			m.GiveUps.Inc()
			if attempts == 1 {
				return zero, err // single-shot policies stay transparent
			}
			return zero, fmt.Errorf("retry: %d attempts exhausted: %w", attempts, err)
		}
		if err := sleep(ctx, jittered(p.Delay(n), p.Jitter, rng)); err != nil {
			m.GiveUps.Inc()
			return zero, fmt.Errorf("retry: %d attempts: %v: %w", n, lastErr, err)
		}
	}
}

// runAttempt invokes fn with the per-attempt budget applied.
func runAttempt[T any](ctx context.Context, budget time.Duration, fn func(ctx context.Context) (T, error)) (T, error) {
	if budget <= 0 {
		return fn(ctx)
	}
	actx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	return fn(actx)
}

// jittered applies the jitter fraction to d using rng.
func jittered(d time.Duration, jitter float64, rng Rand) time.Duration {
	if jitter <= 0 || rng == nil || d <= 0 {
		return d
	}
	if jitter > 1 {
		jitter = 1
	}
	scale := 1 - jitter*rng.Float64()
	return time.Duration(float64(d) * scale)
}

// sleep waits for d or until ctx is done, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
