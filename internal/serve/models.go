package serve

import (
	"container/list"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// modelBudget bounds the bytes of tables (core.Model.Bytes) models
// keeps. The largest model serve admits (B = maxPieces, S = maxNeighbor,
// K = maxConns) holds ~24.6 MB and fits; serve_dist's holds ~49 KB.
const modelBudget = 32 << 20

// models is the one place serve builds a core.Model: the local evaluator
// and every worker's shards take theirs from it. A hit is safe because a
// core.Model is an immutable pure function of its parameters: it is,
// table for table, what a fresh build would return.
var models = &modelMemo{budget: modelBudget, byKey: map[modelKey]*memoEntry{}}

// modelKey is every field core.NewModel reads from a canonical query
// (not the seed, not the run count), probabilities by bit pattern.
type modelKey struct {
	b, k, s                     int
	pInit, alpha, gamma, pr, pn uint64
}

type memoEntry struct {
	key   modelKey
	ready chan struct{} // closed once m and err are set
	m     *core.Model
	err   error
	el    *list.Element // in lru while kept
}

// modelMemo keeps built models within budget bytes, evicting the least
// recently used. Concurrent misses on one key wait for a single build; a
// model larger than the whole budget is returned but not kept.
type modelMemo struct {
	budget int
	builds atomic.Int64 // core.NewModel calls
	mu     sync.Mutex
	byKey  map[modelKey]*memoEntry
	lru    list.List // of kept *memoEntry, most recent first
	bytes  int
}

// get returns the model of a canonicalized query.
func (c *modelMemo) get(q *ModelQuery) (*core.Model, error) {
	k := modelKey{q.B, q.K, q.S, math.Float64bits(*q.PInit), math.Float64bits(*q.Alpha),
		math.Float64bits(*q.Gamma), math.Float64bits(*q.PR), math.Float64bits(*q.PN)}
	c.mu.Lock()
	e, hit := c.byKey[k]
	if !hit {
		e = &memoEntry{key: k, ready: make(chan struct{})}
		c.byKey[k] = e
	} else if e.el != nil {
		c.lru.MoveToFront(e.el)
	}
	c.mu.Unlock()
	if hit {
		<-e.ready
		return e.m, e.err
	}
	c.builds.Add(1)
	if e.m, e.err = core.NewModel(q.params()); e.err != nil {
		e.err = fmt.Errorf("%w: %v", ErrBadRequest, e.err)
	}
	c.mu.Lock()
	if e.err != nil || e.m.Bytes() > c.budget {
		delete(c.byKey, k)
	} else {
		e.el = c.lru.PushFront(e)
		c.bytes += e.m.Bytes()
		for c.bytes > c.budget {
			old := c.lru.Remove(c.lru.Back()).(*memoEntry)
			delete(c.byKey, old.key)
			c.bytes -= old.m.Bytes()
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return e.m, e.err
}
