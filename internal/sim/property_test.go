package sim

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/faults"
	"repro/internal/stats"
)

// randomConfig draws one point of the configuration space from seed:
// every feature that branches the round loop is on in roughly half the
// draws, and half carry a fault plan (conn-fail, crash with and without
// rejoin, one blackout window).
func randomConfig(seed uint64) Config {
	r := stats.NewRNG(seed, seed^0xFACE)
	cfg := Config{
		Pieces:               r.IntN(40) + 2,
		MaxConns:             r.IntN(6) + 1,
		NeighborSet:          r.IntN(20) + 2,
		ArrivalRate:          float64(r.IntN(3)),
		InitialPeers:         r.IntN(40) + 5,
		InitialSkew:          float64(r.IntN(2)) * 0.9,
		Seeds:                r.IntN(2) + 1,
		SeedUpload:           r.IntN(4) + 1,
		SuperSeed:            r.IntN(3) == 0,
		OptimisticProb:       0.1 + 0.4*r.Float64(),
		PieceSelection:       Strategy(r.IntN(2) + 1),
		ShakeThreshold:       float64(r.IntN(2)) * 0.9,
		TrackerRefreshRounds: r.IntN(10) + 1,
		Horizon:              float64(r.IntN(40) + 20),
		Seed1:                seed,
		Seed2:                seed + 1,
		TrackPeers:           r.IntN(4),
		SlowPeerFraction:     float64(r.IntN(2)) * 0.3,
		SlowPeerRate:         0.5,
		AbortRate:            float64(r.IntN(2)) * 0.02,
		SeedLingerRounds:     r.IntN(2) * 5,
		PieceCensus:          r.IntN(2) == 0,
	}
	if r.IntN(2) == 0 {
		from := float64(r.IntN(20))
		cfg.Faults = &faults.Plan{
			Seed:             seed ^ 0xFA17,
			ConnFailRate:     0.1 * r.Float64(),
			CrashRate:        0.03 * r.Float64(),
			RejoinAfter:      r.IntN(2) * (r.IntN(6) + 1),
			TrackerBlackouts: []faults.Window{{From: from, To: from + float64(r.IntN(15)+1)}},
		}
	}
	return cfg
}

// checkRandomConfig runs randomConfig(seed) round by round through
// checkInvariants and checkDetachAll and then checks the run-level properties of its Result:
// bounded series, sane completions, monotone traces.
func checkRandomConfig(t testing.TB, seed uint64) {
	t.Helper()
	cfg := randomConfig(seed)
	_, res := runChecked(t, cfg, checkDetachAll)
	for _, ser := range [][]float64{res.EntropySeries.V, res.EfficiencySeries.V, res.PRSeries.V} {
		for _, v := range ser {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("seed %d: series value %g outside [0,1]", seed, v)
			}
		}
	}
	for i := range res.NumCompletions() {
		c := res.Completion(i)
		if c.Duration() < 0 || len(res.Acquisitions(i)) != cfg.Pieces {
			t.Fatalf("seed %d: completion %+v", seed, c)
		}
	}
	for _, tr := range res.Traces {
		prev := -1
		for _, smp := range tr.Samples {
			if smp.Pieces < prev || smp.Pieces > cfg.Pieces {
				t.Fatalf("seed %d: trace pieces %d after %d", seed, smp.Pieces, prev)
			}
			prev = smp.Pieces
		}
	}
}

// TestRandomConfigsSatisfyInvariants sweeps a fixed block of generator
// seeds (fixed so a failure names a config anyone can rerun) and makes
// sure the sweep really covers fault plans.
func TestRandomConfigsSatisfyInvariants(t *testing.T) {
	const n = 30
	withPlan := 0
	for seed := uint64(1); seed <= n; seed++ {
		if randomConfig(seed).Faults != nil {
			withPlan++
		}
		t.Run(strconv.FormatUint(seed, 10), func(t *testing.T) { checkRandomConfig(t, seed) })
	}
	if 3*withPlan < n {
		t.Errorf("only %d of %d generated configs carry a fault plan, want at least a third", withPlan, n)
	}
}

// FuzzSwarmConfig drives the same generator from the fuzzer's seed; plain
// `go test` runs the corpus below.
func FuzzSwarmConfig(f *testing.F) {
	for _, seed := range []uint64{0, 31, 0xBEEF, 0xF164BC, 1 << 63, math.MaxUint64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { checkRandomConfig(t, seed) })
}
