package sim

import (
	"math"
	"testing"

	"repro/internal/bitset"
)

// completionTimesByClass runs a heterogeneous swarm and splits completion
// durations by peer class.
func completionTimesByClass(t *testing.T, slowFraction, slowRate float64) (fast, slow []float64) {
	t.Helper()
	cfg := smallConfig()
	cfg.SlowPeerFraction = slowFraction
	cfg.SlowPeerRate = slowRate
	cfg.Horizon = 200
	cfg.TrackPeers = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Identify the slow peers before running.
	slowIDs := make(map[PeerID]bool)
	for _, sl := range s.alive {
		if s.ps.slow[sl] {
			slowIDs[s.ps.id[sl]] = true
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.NumCompletions() {
		c := res.Completion(i)
		if slowIDs[c.ID] {
			slow = append(slow, c.Duration())
		} else {
			fast = append(fast, c.Duration())
		}
	}
	return fast, slow
}

func TestHeterogeneousBandwidthSlowsSlowPeers(t *testing.T) {
	fast, slow := completionTimesByClass(t, 0.5, 0.3)
	if len(fast) < 5 || len(slow) < 5 {
		t.Fatalf("too few completions to compare: %d fast, %d slow", len(fast), len(slow))
	}
	meanOf := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	mf, ms := meanOf(fast), meanOf(slow)
	if ms <= mf {
		t.Errorf("slow peers (mean %g) must download slower than fast peers (mean %g)", ms, mf)
	}
	// Participating in only 30% of rounds must cost substantially more
	// than noise (the penalty is sublinear because waiting components —
	// bootstrap, seed service — are class-independent).
	if ms < 1.3*mf {
		t.Errorf("slow-peer penalty too small: %g vs %g", ms, mf)
	}
}

func TestSlowPeerConfigValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.SlowPeerFraction = 0.5
	cfg.SlowPeerRate = 0
	if err := cfg.Validate(); err == nil {
		t.Error("slow peers with zero rate must be rejected")
	}
	cfg.SlowPeerFraction = 1.5
	if err := cfg.Validate(); err == nil {
		t.Error("fraction > 1 must be rejected")
	}
	cfg.SlowPeerFraction = 0
	cfg.SlowPeerRate = 0 // ignored when fraction is 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("fraction 0 must not require a rate: %v", err)
	}
}

// distinctSeedPieces counts how many distinct pieces the seed injected in
// the first `rounds` rounds of a fresh swarm (no arrivals, everyone empty,
// trading disabled via OptimisticProb=0 + a huge piece count so nobody
// completes).
func distinctSeedPieces(t *testing.T, super bool) int {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Pieces = 60
	cfg.NeighborSet = 20
	cfg.MaxConns = 4
	cfg.InitialPeers = 12
	cfg.ArrivalRate = 0
	cfg.SeedUpload = 3
	cfg.SuperSeed = super
	cfg.OptimisticProb = 0
	// Random-first models leechers that cannot see global rarity; the
	// super-seed's value is injecting diversity on the seed side.
	cfg.PieceSelection = RandomFirst
	cfg.Horizon = 8 // few rounds: watch the injection pattern only
	cfg.TrackPeers = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Count distinct pieces present among leechers.
	seen := make(map[int]bool)
	for _, sl := range s.alive {
		if s.ps.seed[sl] {
			continue
		}
		for _, j := range bitset.RowAppendIndices(nil, s.ps.pieceRow(sl)) {
			seen[j] = true
		}
	}
	return len(seen)
}

func TestSuperSeedInjectsMoreDistinctPieces(t *testing.T) {
	normal := distinctSeedPieces(t, false)
	super := distinctSeedPieces(t, true)
	if super <= normal {
		t.Errorf("super-seeding injected %d distinct pieces, normal %d; want more", super, normal)
	}
}

func TestSuperSeedSwarmStillCompletes(t *testing.T) {
	cfg := smallConfig()
	cfg.SuperSeed = true
	res := runSwarm(t, cfg)
	if res.NumCompletions() == 0 {
		t.Fatal("super-seeded swarm made no progress")
	}
	if math.IsNaN(res.MeanDownloadTime()) {
		t.Error("mean download time NaN")
	}
}

func TestSuperSeedImprovesSkewedEntropy(t *testing.T) {
	run := func(super bool) float64 {
		cfg := DefaultConfig()
		cfg.Pieces = 10
		cfg.NeighborSet = 20
		cfg.MaxConns = 4
		cfg.InitialPeers = 150
		cfg.InitialSkew = 0.95
		cfg.ArrivalRate = 4
		cfg.SeedUpload = 4
		cfg.SuperSeed = super
		cfg.Horizon = 60
		cfg.TrackPeers = 0
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Mean entropy over the recovery window.
		sum := 0.0
		for _, v := range res.EntropySeries.V {
			sum += v
		}
		return sum / float64(res.EntropySeries.Len())
	}
	normal := run(false)
	super := run(true)
	// Super-seeding targets under-replicated pieces, so the recovery from
	// skew must be at least as fast on average.
	if super < normal*0.9 {
		t.Errorf("super-seed mean entropy %g much worse than normal %g", super, normal)
	}
}

func TestAbortRateDrainsLeechers(t *testing.T) {
	cfg := smallConfig()
	cfg.AbortRate = 0.05
	cfg.Horizon = 80
	res := runSwarm(t, cfg)
	if res.Aborts() == 0 {
		t.Error("no aborts despite positive abort rate")
	}
	// Aborted peers are gone: population plus cumulative departures stays
	// consistent (indirect check: no negative population, completions
	// still occur).
	if res.NumCompletions() == 0 {
		t.Error("aborts should not prevent all completions")
	}
}

func TestSeedLingeringImprovesDownloads(t *testing.T) {
	run := func(linger int) *Result {
		cfg := smallConfig()
		cfg.SeedUpload = 2
		cfg.NeighborSet = 10
		cfg.ArrivalRate = 2
		cfg.SeedLingerRounds = linger
		cfg.Horizon = 120
		return runSwarm(t, cfg)
	}
	base := run(0)
	linger := run(10)
	if linger.Lingered() == 0 {
		t.Fatal("no peer lingered despite SeedLingerRounds > 0")
	}
	if base.Lingered() != 0 {
		t.Fatal("baseline must not linger")
	}
	// Extra seed capacity must not slow the swarm down; expect a
	// same-or-better mean download time.
	if linger.MeanDownloadTime() > base.MeanDownloadTime()*1.1 {
		t.Errorf("lingering slowed downloads: %g vs %g",
			linger.MeanDownloadTime(), base.MeanDownloadTime())
	}
	// Completion durations must be recorded at completion, not at the
	// end of lingering: durations cannot systematically exceed the
	// horizon and must be positive.
	for i := range linger.NumCompletions() {
		c := linger.Completion(i)
		if c.Duration() <= 0 {
			t.Fatalf("non-positive duration %g", c.Duration())
		}
	}
}

func TestLingeringSeedsServeWithoutTFT(t *testing.T) {
	// With lingering enabled, seed uploads should exceed the origin
	// seed's own budget because completed peers also push pieces.
	run := func(linger int) int {
		cfg := smallConfig()
		cfg.SeedUpload = 2
		cfg.SeedLingerRounds = linger
		cfg.Horizon = 100
		return runSwarm(t, cfg).SeedUploads()
	}
	if withLinger, without := run(15), run(0); withLinger <= without {
		t.Errorf("lingering seeds must add uploads: %d vs %d", withLinger, without)
	}
}
