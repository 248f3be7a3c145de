package sim

import "testing"

// TestRoundSteadyStateAllocs drives the round loop directly (white-box)
// and asserts the hot path stays essentially allocation-free once the
// swarm's scratch buffers have warmed up. Before the buffer-reuse pass a
// round allocated its shuffled leecher list, per-peer connection and
// neighbor orderings, candidate sets, replication-degree tables, and a
// fresh connection-measurement map — over a dozen allocations per round
// on this configuration.
func TestRoundSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pieces = 400 // large file: nobody completes inside the window
	cfg.InitialPeers = 60
	cfg.ArrivalRate = 0
	cfg.TrackPeers = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: let neighbor sets, connections, piece inventories, and the
	// reusable buffers reach steady-state capacity.
	for i := 0; i < 50; i++ {
		s.round()
	}
	// Zero: the struct-of-arrays core reuses every buffer, and the Result
	// series are preallocated for the whole horizon, so a steady-state
	// round performs no allocation at all.
	if avg := testing.AllocsPerRun(100, s.round); avg > 0 {
		t.Errorf("round loop allocates %.2f times per round at steady state, want 0", avg)
	}
}

// TestTradingRoundAllocsBounded is the same gate for a swarm that is
// really trading: with arrivals on, a round may allocate one des.Event
// per arrival and one TTD slice per completion, plus a small constant for
// the amortized growth of the peer store, the completion log and the
// free list — and nothing per exchange, per link or per neighbor scan.
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
	arrivals, completions := s.res.arrivals, len(s.res.Completions)
	at := s.sim.Now()
	// AllocsPerRun calls once to warm up, then rounds times.
	avg := testing.AllocsPerRun(rounds, func() {
		at += cfg.PieceTime
		if err := s.Advance(at); err != nil {
			t.Fatal(err)
		}
	})
	events := float64(s.res.arrivals-arrivals+len(s.res.Completions)-completions) / (rounds + 1)
	if events < 100 {
		t.Fatalf("only %.0f arrivals + completions per round: the swarm is not churning", events)
	}
	if avg > events+8 {
		t.Errorf("a trading round allocates %.1f times for %.1f arrivals + completions, want at most 8 more", avg, events)
	}
}
