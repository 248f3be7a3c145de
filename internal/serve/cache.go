package serve

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/obs"
)

// Cache is an LRU result cache with an optional TTL. Entries are the
// marshaled results keyed by the requests' compute keys (keyed), so a
// hit replays exactly the bytes a recomputation would produce
// — the determinism discipline makes "cache" and "memoization"
// synonymous here.
//
// All methods are safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	max   int
	ttl   time.Duration
	now   func() time.Time // injectable for TTL tests
	order *list.List       // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions, expirations *obs.Counter
	entries                              *obs.Gauge
}

type cacheEntry struct {
	key     string
	body    []byte
	expires time.Time // zero = never
}

// NewCache returns a cache holding at most max entries; entries older
// than ttl are dropped on access (ttl <= 0 disables expiry). max < 1 is
// clamped to 1.
func NewCache(max int, ttl time.Duration) *Cache {
	if max < 1 {
		max = 1
	}
	c := &Cache{
		max:   max,
		ttl:   ttl,
		now:   time.Now,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
	// Unregistered handles so the hot path never nil-checks; a later
	// Instrument swaps in registry-backed ones.
	c.Instrument(nil, "")
	return c
}

// Instrument routes the cache's telemetry into reg under prefix:
// counters prefix.hits, prefix.misses, prefix.evictions,
// prefix.expirations and gauge prefix.entries.
func (c *Cache) Instrument(reg *obs.Registry, prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits = reg.Counter(prefix + ".hits")
	c.misses = reg.Counter(prefix + ".misses")
	c.evictions = reg.Counter(prefix + ".evictions")
	c.expirations = reg.Counter(prefix + ".expirations")
	c.entries = reg.Gauge(prefix + ".entries")
	c.entries.Set(float64(len(c.items)))
}

// Get returns the cached body for key and whether it was present and
// fresh. A hit promotes the entry to most recently used.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if !ent.expires.IsZero() && c.now().After(ent.expires) {
		c.removeLocked(el)
		c.expirations.Inc()
		c.misses.Inc()
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Inc()
	return ent.body, true
}

// Put stores body under key, evicting the least recently used entry if
// the cache is full. Storing an existing key refreshes its body and TTL.
func (c *Cache) Put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.body, ent.expires = body, expires
		c.order.MoveToFront(el)
		return
	}
	for len(c.items) >= c.max {
		c.removeLocked(c.order.Back())
		c.evictions.Inc()
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, body: body, expires: expires})
	c.entries.Set(float64(len(c.items)))
}

func (c *Cache) removeLocked(el *list.Element) {
	if el == nil {
		return
	}
	ent := c.order.Remove(el).(*cacheEntry)
	delete(c.items, ent.key)
	c.entries.Set(float64(len(c.items)))
}
