package serve

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// canonicalModel returns the canonical query of q.
func canonicalModel(t testing.TB, q ModelQuery) *ModelQuery {
	t.Helper()
	req := &Request{Kind: KindModel, Model: &q}
	if err := req.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	return req.Model
}

func f64p(v float64) *float64 { return &v }

func newModelMemo(budget int) *modelMemo {
	return &modelMemo{budget: budget, byKey: map[modelKey]*memoEntry{}}
}

// TestModelMemoConcurrentMissesBuildOnce: goroutines that miss on one
// key at once share a single build and the same model. Under -race it
// also shows the build counter and the entry are read safely.
func TestModelMemoConcurrentMissesBuildOnce(t *testing.T) {
	c := newModelMemo(modelBudget)
	const n = 8
	got := make([]*core.Model, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range got {
		q := canonicalModel(t, ModelQuery{B: 100, S: 40, Runs: i + 1}) // runs is not part of the key
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			m, err := c.get(q)
			if err != nil {
				t.Error(err)
			}
			got[i] = m
			if b := c.builds.Load(); b != 1 {
				t.Errorf("builds = %d after a get returned, want 1", b)
			}
		}()
	}
	start.Done()
	wg.Wait()
	for i, m := range got {
		if m == nil || m != got[0] {
			t.Fatalf("get %d returned model %p, get 0 returned %p", i, m, got[0])
		}
	}
}

// TestModelMemoEvictsLeastRecentlyUsed: the memo stays within its
// budget and evicts the model used longest ago, and a model larger than
// the whole budget is returned but not kept.
func TestModelMemoEvictsLeastRecentlyUsed(t *testing.T) {
	q := func(p float64) *ModelQuery { return canonicalModel(t, ModelQuery{B: 30, PInit: f64p(p)}) }
	a, b, d := q(0.1), q(0.2), q(0.3) // equal sizes: only PInit differs
	size := func() int {
		m, err := core.NewModel(a.params())
		if err != nil {
			t.Fatal(err)
		}
		return m.Bytes()
	}()
	c := newModelMemo(2 * size)
	get := func(q *ModelQuery, wantBuilds int64) {
		t.Helper()
		if _, err := c.get(q); err != nil {
			t.Fatal(err)
		}
		if got := c.builds.Load(); got != wantBuilds {
			t.Fatalf("builds = %d, want %d", got, wantBuilds)
		}
		if c.bytes > c.budget || c.bytes != size*c.lru.Len() || len(c.byKey) != c.lru.Len() {
			t.Fatalf("memo holds %d bytes in %d models (%d keys), budget %d", c.bytes, c.lru.Len(), len(c.byKey), c.budget)
		}
	}
	get(a, 1)
	get(b, 2)
	get(a, 2) // a is now the most recent, b the least
	get(d, 3) // evicts b
	get(a, 3)
	get(d, 3)
	get(b, 4) // b was gone; its rebuild evicts a, the least recent now
	get(d, 4)
	get(a, 5)

	small := newModelMemo(size - 1)
	for i := int64(1); i <= 2; i++ {
		m, err := small.get(a)
		if err != nil || m == nil {
			t.Fatalf("oversized model: %v, %v", m, err)
		}
		if small.builds.Load() != i || small.bytes != 0 || len(small.byKey) != 0 {
			t.Fatalf("oversized model was kept: builds %d, %d bytes, %d keys", small.builds.Load(), small.bytes, len(small.byKey))
		}
	}
}

// BenchmarkModelMemoMiss is traffic whose parameters never repeat:
// every iteration a new key, through the memo and, as the floor it must
// stay within noise of, through core.NewModel alone. The parameters are
// serve_dist's (B = 100, K = 7, S = 40).
func BenchmarkModelMemoMiss(b *testing.B) {
	queries := func(b *testing.B) []*ModelQuery {
		qs := make([]*ModelQuery, b.N)
		for i := range qs {
			qs[i] = canonicalModel(b, ModelQuery{B: 100, K: 7, S: 40, PInit: f64p(float64(i) / float64(b.N))})
		}
		return qs
	}
	b.Run("memo", func(b *testing.B) {
		c := newModelMemo(modelBudget)
		qs := queries(b)
		b.ReportAllocs()
		b.ResetTimer()
		for _, q := range qs {
			if _, err := c.get(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("newModel", func(b *testing.B) {
		qs := queries(b)
		b.ReportAllocs()
		b.ResetTimer()
		for _, q := range qs {
			if _, err := core.NewModel(q.params()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
