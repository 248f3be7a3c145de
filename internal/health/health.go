// Package health is the one place the strike → decay → escalating-ban
// policy lives. A key (a peer address, a worker name, a replica index)
// accumulates strikes; at the threshold it is quarantined for one
// window, and every further strike doubles the quarantine up to
// window<<8. A key that stays clean for a full window past its
// quarantine is forgiven: its next strike counts from one.
//
// What a strike is, and what to do with a quarantined key, is the
// caller's business: internal/client refuses to dial banned peers,
// internal/dist never leases to a quarantined worker, and
// internal/gateway routes around quarantined replicas, falling back to
// the least banned one rather than stall when nothing healthy is left.
package health

import (
	"math"
	"time"
)

// maxShift caps ban escalation at window<<8 (256 windows).
const maxShift = 8

// Book is a strike ledger over keys of type K. It holds no clock and no
// lock: callers pass the time in and confine the book to one goroutine
// or one mutex.
type Book[K comparable] struct {
	threshold int
	window    time.Duration
	entries   map[K]entry
}

type entry struct {
	strikes int
	last    time.Time // most recent strike
	until   time.Time // quarantine expiry (zero until the threshold is reached)
}

// NewBook returns a book that quarantines a key at threshold strikes
// inside window; window is also the base quarantine and the decay time.
func NewBook[K comparable](threshold int, window time.Duration) *Book[K] {
	return &Book[K]{threshold: threshold, window: window, entries: make(map[K]entry)}
}

// decayed reports whether e is out of quarantine and a full window past
// its last strike — the point at which the record no longer matters.
func (b *Book[K]) decayed(e entry, now time.Time) bool {
	return now.Sub(e.last) > b.window && now.After(e.until)
}

// Strike records one strike against k and reports whether k is now
// quarantined.
func (b *Book[K]) Strike(k K, now time.Time) bool {
	e, ok := b.entries[k]
	if ok && b.decayed(e, now) {
		e = entry{} // clean for a full window: forgiven
	}
	e.strikes++
	e.last = now
	banned := e.strikes >= b.threshold
	if banned {
		// Each strike past the threshold doubles the quarantine, up to
		// window<<maxShift however long the history.
		d := b.window << uint(min(e.strikes-b.threshold, maxShift))
		if d <= 0 {
			d = math.MaxInt64 // a window too wide to double this far
		}
		e.until = now.Add(d)
	}
	b.entries[k] = e
	return banned
}

// Quarantined reports whether k is currently quarantined.
func (b *Book[K]) Quarantined(k K, now time.Time) bool {
	return now.Before(b.entries[k].until)
}

// Strikes returns k's recorded strike count.
func (b *Book[K]) Strikes(k K) int { return b.entries[k].strikes }

// LeastBanned returns the key among keys whose quarantine expires
// soonest, the first winning ties — the fallback target when every
// candidate is quarantined. keys must not be empty.
func (b *Book[K]) LeastBanned(keys []K) K {
	best := keys[0]
	for _, k := range keys[1:] {
		if b.entries[k].until.Before(b.entries[best].until) {
			best = k
		}
	}
	return best
}

// Prune drops every fully decayed entry, so a book keyed by short-lived
// names (ephemeral ports) stays bounded by the keys struck within the
// last window or ban.
func (b *Book[K]) Prune(now time.Time) {
	for k, e := range b.entries {
		if b.decayed(e, now) {
			delete(b.entries, k)
		}
	}
}

// Len returns the number of keys with a live record.
func (b *Book[K]) Len() int { return len(b.entries) }
