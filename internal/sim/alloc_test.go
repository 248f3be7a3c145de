package sim

import (
	"runtime"
	"testing"

	"repro/internal/stats"
)

// TestRoundSteadyStateAllocs drives the round loop directly (white-box)
// and asserts the hot path stays allocation-free once the swarm's scratch
// buffers have warmed up. Before the buffer-reuse pass a round allocated
// its shuffled leecher list, per-peer connection and neighbor orderings,
// candidate sets, replication-degree tables, and a fresh
// connection-measurement map — over a dozen allocations per round on the
// first configuration.
func TestRoundSteadyStateAllocs(t *testing.T) {
	trading := DefaultConfig()
	trading.Pieces = 400 // large file: nobody completes inside the window
	trading.InitialPeers = 60

	// The large-swarm gate: 10^5 peers pinned in place (no completions:
	// everyone holds only the over-replicated piece 0, the collapsed
	// endpoint of Figure 4b/4c), so every round walks the struct-of-arrays
	// loop at full breadth and the quiescence memos at full depth.
	quiescent := DefaultConfig()
	quiescent.Pieces = 3
	quiescent.InitialSkew = 1.0 // everyone starts with exactly piece 0
	quiescent.Seeds = 0
	quiescent.SeedUpload = 0
	quiescent.InitialPeers = 100_000
	quiescent.NeighborSet = 20
	quiescent.MaxConns = 4

	for _, tc := range []struct {
		name           string
		cfg            Config
		warmup, rounds int
	}{
		{"trading-60", trading, 50, 100},
		{"quiescent-100k", quiescent, 8, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.ArrivalRate = 0
			tc.cfg.TrackPeers = 0
			s, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm-up: let neighbor sets, connections, piece inventories,
			// memo tables and the reusable buffers reach steady-state
			// capacity.
			for i := 0; i < tc.warmup; i++ {
				s.round()
			}
			// Zero: the struct-of-arrays core reuses every buffer, and the
			// Result series are preallocated for the whole horizon, so a
			// steady-state round performs no allocation at all.
			if avg := testing.AllocsPerRun(tc.rounds, s.round); avg > 0 {
				t.Errorf("round loop allocates %.2f times per round at steady state, want 0", avg)
			}
		})
	}
}

// TestTradingRoundAllocsBounded is the same gate for a swarm that is
// really trading: a round may allocate the completion log's page pair
// per 64 completions, and at most one more allocation on average for
// the peer store's pages, the amortized growth of its flat arrays and
// of the log's page tables, and the free list — and nothing per
// completion, per arrival, per exchange, per link or per neighbor scan.
// The bound is derived from the pages the log added in the measured
// rounds, so a busier swarm does not fail it: at ≈ 92 completions a
// round the log adds 11 pages in 8 rounds, the bound reads
// 2·11/8 + 1 = 3.75 and a round allocates 3 times.
func TestTradingRoundAllocsBounded(t *testing.T) {
	cfg := churnConfig()
	cfg.InitialPeers, cfg.Seeds, cfg.ArrivalRate = 200, 20, 80
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(30); err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	arrivals, completions := s.res.arrivals, s.res.NumCompletions()
	at := s.now
	calls, pages := 0, 0
	// AllocsPerRun calls once to warm up, then rounds times.
	avg := testing.AllocsPerRun(rounds, func() {
		if calls++; calls == 2 {
			pages = len(s.res.recs.pages) // as the first measured round begins
		}
		at++
		if err := s.Advance(at); err != nil {
			t.Fatal(err)
		}
	})
	arrived := float64(s.res.arrivals-arrivals) / (rounds + 1)
	done := float64(s.res.NumCompletions()-completions) / (rounds + 1)
	if arrived+done < 100 {
		t.Fatalf("only %.0f arrivals + completions per round: the swarm is not churning", arrived+done)
	}
	added := len(s.res.recs.pages) - pages
	if bound := float64(2*added)/rounds + 1; avg > bound {
		t.Errorf("a trading round allocates %.1f times for %.1f completions (and %.1f arrivals), want at most %.2f (%d log pages in %d rounds)",
			avg, done, arrived, bound, added, rounds)
	}
}

// TestRunAllocatesWhatItKeeps holds a churning run's whole allocation,
// New to its Result, to 1.3× the bytes it keeps at the end: the peer
// store (memBytes), the completion log's pages and the Result's series.
// What lies between is growth garbage: the flat per-slot arrays' copies
// and the swarm's scratch buffers. It reads 1.22× here, and 2.8× with
// completion records grown by append and a store that copied every array
// as it passed capacity.
func TestRunAllocatesWhatItKeeps(t *testing.T) {
	cfg := churnConfig() // at half its population and arrival rate
	cfg.InitialPeers, cfg.Seeds, cfg.ArrivalRate = 1000, 100, 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	kept := s.ps.memBytes() + res.recs.bytes() + res.rows.bytes()
	for _, ser := range []*stats.Series{res.PopulationSeries, res.EntropySeries, res.EfficiencySeries, res.PRSeries} {
		kept += int64(cap(ser.T)+cap(ser.V)) * 8
	}
	if res.NumCompletions() < 2*cfg.InitialPeers || len(s.ps.free) == 0 {
		t.Fatalf("%d completions, %d free slots: the swarm is not churning", res.NumCompletions(), len(s.ps.free))
	}
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.3*float64(kept) {
		t.Errorf("the run allocated %d B for %d B it keeps (%.2f×), want at most 1.3×",
			got, kept, float64(got)/float64(kept))
	}
}
