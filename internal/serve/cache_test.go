package serve

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(2, 0)
	c.Instrument(reg, "serve.cache")
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if got := reg.Counter("serve.cache.evictions").Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := reg.Gauge("serve.cache.entries").Value(); got != 2 {
		t.Fatalf("entries gauge = %v, want 2", got)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := NewCache(8, time.Minute)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	c.Put("k", []byte("v"))
	if _, ok := c.Get("k"); !ok {
		t.Fatal("fresh entry missed")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Get("k"); ok {
		t.Fatal("expired entry served")
	}
	if len(c.items) != 0 {
		t.Fatalf("expired entry not removed, len = %d", len(c.items))
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c := NewCache(4, 0)
	c.Put("k", []byte("old"))
	c.Put("k", []byte("new"))
	if len(c.items) != 1 {
		t.Fatalf("len = %d, want 1", len(c.items))
	}
	body, ok := c.Get("k")
	if !ok || string(body) != "new" {
		t.Fatalf("got %q, %v", body, ok)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(16, 0)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%24)
				c.Put(key, []byte(key))
				if body, ok := c.Get(key); ok && string(body) != key {
					panic("cache returned wrong body for " + key)
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if len(c.items) > 16 {
		t.Fatalf("cache exceeded capacity: %d", len(c.items))
	}
}
