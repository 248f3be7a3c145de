package sim

import (
	"testing"

	"repro/internal/obs"
)

// BenchmarkSwarmRound measures simulator throughput on a mid-size swarm;
// BenchmarkSwarmRoundObserved is the same run with a registry observer
// attached. Comparing the two shows the per-round cost of the
// observability hook (expected: a few metric stores, no extra allocs).
func BenchmarkSwarmRound(b *testing.B)         { benchSwarmRound(b, nil) }
func BenchmarkSwarmRoundObserved(b *testing.B) { benchSwarmRound(b, obs.NewRegistry()) }

func benchSwarmRound(b *testing.B, reg *obs.Registry) {
	cfg := DefaultConfig()
	cfg.Pieces = 100
	cfg.InitialPeers = 200
	cfg.ArrivalRate = 0
	cfg.Horizon = float64(b.N)
	cfg.TrackPeers = 0
	if reg != nil {
		cfg.Observer = NewRegistryObserver(reg)
	}
	sw, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := sw.Run(); err != nil {
		b.Fatal(err)
	}
	if reg != nil {
		b.ReportMetric(float64(reg.Snapshot().Counters["sim.exchanges"])/float64(b.N), "exchanges/round")
	}
}

// churnConfig is the steady-churn shape of the repository benchmark's
// sim_steady workload (bench/workload_sim.go: B=20, k=7, s=40, 2000
// initial leechers, 200 seeds, 800 arrivals per round matched by as many
// departures once the swarm fills) at a short horizon.
func churnConfig() Config {
	cfg := DefaultConfig()
	cfg.Pieces = 20
	cfg.InitialPeers = 2000
	cfg.Seeds = 200
	cfg.ArrivalRate = 800
	cfg.Horizon = 40
	cfg.TrackPeers = 0
	cfg.Seed1, cfg.Seed2 = 20000, 0xF10C
	return cfg
}

// BenchmarkSwarmChurn runs churnConfig end to end, so
//
//	go test ./internal/sim -run '^$' -bench SwarmChurn -cpuprofile cpu.out
//
// profiles the regime DESIGN §14's "Where a round goes" table describes
// without the bench/ harness.
func BenchmarkSwarmChurn(b *testing.B) { benchSwarm(b, churnConfig()) }

// BenchmarkSwarmSmall is Figure 1(b)'s s = 50 swarm (internal/experiments
// fig1.go: B = 50, k = 7, 120 initial leechers, λ = 2, seed upload 6, at
// the full horizon of 300): a small swarm whose tracker spends most of its
// tries on draws that cannot link.
func BenchmarkSwarmSmall(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Pieces = 50
	cfg.MaxConns = 7
	cfg.NeighborSet = 50
	cfg.InitialPeers = 120
	cfg.ArrivalRate = 2
	cfg.SeedUpload = 6
	cfg.Horizon = 300
	cfg.TrackPeers = 0
	cfg.Seed1, cfg.Seed2 = 50, 0x51B
	benchSwarm(b, cfg)
}

// BenchmarkSwarmLastPhase is the normal arm of Figure 4(d) at quick scale
// (internal/experiments fig4.go's fig4dConfig: B = 120, s = 8,
// random-first, 150 initial leechers, λ = 3, seed upload 2, horizon 400),
// the longest single job of a quick figures pass. Its B/op is where a
// change to the peer store's bytes per slot shows.
func BenchmarkSwarmLastPhase(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Pieces = 120
	cfg.NeighborSet = 8
	cfg.MaxConns = 7
	cfg.InitialPeers = 150
	cfg.ArrivalRate = 3
	cfg.SeedUpload = 2
	cfg.OptimisticProb = 0.1
	cfg.PieceSelection = RandomFirst
	cfg.TrackerRefreshRounds = 1000
	cfg.Horizon = 400
	cfg.TrackPeers = 0
	cfg.Seed1, cfg.Seed2 = 0xF164D, 99
	benchSwarm(b, cfg)
}

// benchSwarm runs cfg end to end b.N times and reports peer-rounds/s and
// tracker tries per link made.
func benchSwarm(b *testing.B, cfg Config) {
	var peerRounds, tries, links float64
	for i := 0; i < b.N; i++ {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		peerRounds += float64(s.cfg.Seeds * res.Rounds())
		for _, v := range res.PopulationSeries.V {
			peerRounds += v
		}
		tries += float64(s.res.trackerTries)
		links += float64(s.res.trackerLinks)
	}
	b.ReportMetric(peerRounds/b.Elapsed().Seconds(), "peer-rounds/s")
	b.ReportMetric(tries/links, "tries/link")
}
