package sim

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
)

// smallConfig is a quick stable swarm for unit tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Pieces = 30
	cfg.NeighborSet = 15
	cfg.MaxConns = 4
	cfg.InitialPeers = 30
	cfg.ArrivalRate = 1
	cfg.Horizon = 120
	cfg.SeedUpload = 6
	cfg.TrackPeers = 10
	return cfg
}

func runSwarm(t *testing.T, cfg Config) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Pieces = 0 },
		func(c *Config) { c.MaxConns = 0 },
		func(c *Config) { c.NeighborSet = 0 },
		func(c *Config) { c.ArrivalRate = -1 },
		func(c *Config) { c.ArrivalRate = math.Inf(1) },
		func(c *Config) { c.InitialPeers = -1 },
		func(c *Config) { c.InitialSkew = 2 },
		func(c *Config) { c.Seeds = -1 },
		func(c *Config) { c.Seeds = 1; c.SeedUpload = 0 },
		func(c *Config) { c.OptimisticProb = -0.5 },
		func(c *Config) { c.PieceSelection = Strategy(99) },
		func(c *Config) { c.ShakeThreshold = 1.5 },
		func(c *Config) { c.TrackerRefreshRounds = 0 },
		func(c *Config) { c.Horizon = -1 },
		func(c *Config) { c.Horizon = math.Inf(1) },
		func(c *Config) { c.Horizon = math.MaxInt32 + 1 },
		func(c *Config) { c.TrackPeers = -1 },
		func(c *Config) { c.MaxPeers = -1 },
		func(c *Config) { c.InitialPeers = 0; c.ArrivalRate = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New must reject the zero config")
	}
	cfg := DefaultConfig()
	cfg.Horizon = math.MaxInt32 // the last round the int32 acquisition log holds
	if err := cfg.Validate(); err != nil {
		t.Errorf("Horizon = MaxInt32 rejected: %v", err)
	}
}

func TestStrategyString(t *testing.T) {
	if RarestFirst.String() != "rarest-first" ||
		RandomFirst.String() != "random-first" ||
		Strategy(0).String() != "unknown" {
		t.Error("strategy names wrong")
	}
}

func TestSwarmDownloadsComplete(t *testing.T) {
	res := runSwarm(t, smallConfig())
	if res.NumCompletions() == 0 {
		t.Fatal("no downloads completed")
	}
	for i := range res.NumCompletions() {
		c := res.Completion(i)
		if c.DoneAt < c.ArrivedAt {
			t.Fatalf("completion %d before arrival", c.ID)
		}
		row := res.Acquisitions(i)
		if len(row) != smallConfig().Pieces {
			t.Fatalf("completion %d has %d acquisition rounds, want %d",
				c.ID, len(row), smallConfig().Pieces)
		}
		if float64(row[0]) < c.ArrivedAt || !slices.IsSorted(row) {
			t.Fatalf("completion %d arrived at %g, acquisition rounds %v", c.ID, c.ArrivedAt, row)
		}
	}
	if res.Exchanges() == 0 {
		t.Error("no tit-for-tat exchanges happened")
	}
	if res.SeedUploads() == 0 {
		t.Error("seed never uploaded")
	}
	if math.IsNaN(res.MeanDownloadTime()) {
		t.Error("mean download time NaN despite completions")
	}
}

func TestSwarmDeterminism(t *testing.T) {
	cfg := smallConfig()
	cfg.Horizon = 60
	a := runSwarm(t, cfg)
	b := runSwarm(t, cfg)
	if a.NumCompletions() != b.NumCompletions() {
		t.Fatalf("completions differ: %d vs %d", a.NumCompletions(), b.NumCompletions())
	}
	for i := range a.NumCompletions() {
		if a.Completion(i) != b.Completion(i) {
			t.Fatalf("completion %d differs", i)
		}
	}
	if a.Exchanges() != b.Exchanges() || a.SeedUploads() != b.SeedUploads() {
		t.Error("transfer counters differ between identical runs")
	}
	cfg2 := cfg
	cfg2.Seed1 = 999
	c := runSwarm(t, cfg2)
	if c.Exchanges() == a.Exchanges() && c.NumCompletions() == a.NumCompletions() &&
		(a.NumCompletions() == 0 || c.Completion(0).DoneAt == a.Completion(0).DoneAt) {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestSwarmSeriesShape(t *testing.T) {
	cfg := smallConfig()
	res := runSwarm(t, cfg)
	if res.PopulationSeries.Len() == 0 {
		t.Fatal("no population samples")
	}
	for _, v := range res.PopulationSeries.V {
		if v < 0 {
			t.Fatal("negative population")
		}
	}
	for _, v := range res.EntropySeries.V {
		if v < 0 || v > 1 {
			t.Fatalf("entropy %g out of [0,1]", v)
		}
	}
	for _, v := range res.EfficiencySeries.V {
		if v < 0 || v > 1 {
			t.Fatalf("efficiency %g out of [0,1]", v)
		}
	}
	for _, v := range res.PRSeries.V {
		if v < 0 || v > 1 {
			t.Fatalf("pr %g out of [0,1]", v)
		}
	}
	if res.EndTime != cfg.Horizon {
		t.Errorf("end time %g, want %g", res.EndTime, cfg.Horizon)
	}
}

func TestTrackedTraces(t *testing.T) {
	cfg := smallConfig()
	res := runSwarm(t, cfg)
	if len(res.Traces) == 0 {
		t.Fatal("no traces despite TrackPeers > 0")
	}
	for _, tr := range res.Traces {
		prevT := -1.0
		prevB := 0
		for _, s := range tr.Samples {
			if s.Time < prevT {
				t.Fatal("trace time not monotone")
			}
			if s.Pieces < prevB {
				t.Fatal("pieces decreased in trace")
			}
			if s.Potential < 0 || s.Potential > cfg.NeighborSet || s.Conns < 0 || s.Conns > cfg.MaxConns {
				t.Fatalf("bad sample %+v", s)
			}
			prevT, prevB = s.Time, s.Pieces
		}
	}
}

// TestMeanPotentialByPieces averages the tracked peers' potential-set
// sizes (the simulator's only potential-set measurement) by piece count:
// every observed mean lies in [0, s] and at least one is positive.
func TestMeanPotentialByPieces(t *testing.T) {
	cfg := smallConfig()
	res := runSwarm(t, cfg)
	sum := make([]float64, cfg.Pieces+1)
	cnt := make([]int, cfg.Pieces+1)
	for _, tr := range res.Traces {
		for _, s := range tr.Samples {
			sum[s.Pieces] += float64(s.Potential)
			cnt[s.Pieces]++
		}
	}
	sawData, sawPositive := false, false
	for b, n := range cnt {
		if n == 0 {
			continue
		}
		sawData = true
		v := sum[b] / float64(n)
		if v < 0 || v > float64(cfg.NeighborSet) {
			t.Fatalf("potential[%d] = %g out of range", b, v)
		}
		sawPositive = sawPositive || v > 0
	}
	if !sawData {
		t.Fatal("no potential-set observations")
	}
	if !sawPositive {
		t.Fatal("no tracked sample saw a nonempty potential set")
	}
}

// TestNeighborSetInvariants steps a plain swarm round by round through
// the structural oracle (symmetry, capacity, conns within neighbors, …).
func TestNeighborSetInvariants(t *testing.T) {
	cfg := smallConfig()
	cfg.Horizon = 40
	runChecked(t, cfg)
}

func TestMaxPeersBound(t *testing.T) {
	cfg := smallConfig()
	cfg.InitialPeers = 5
	cfg.MaxPeers = 20
	cfg.ArrivalRate = 50
	cfg.Horizon = 30
	res := runSwarm(t, cfg)
	for _, v := range res.PopulationSeries.V {
		if v > 20 {
			t.Fatalf("population %g exceeded MaxPeers", v)
		}
	}
}

func TestNoSeedsNoCompletions(t *testing.T) {
	// Without any piece source, empty peers can never complete.
	cfg := smallConfig()
	cfg.Seeds = 0
	cfg.SeedUpload = 0
	cfg.Horizon = 50
	res := runSwarm(t, cfg)
	if res.NumCompletions() != 0 {
		t.Errorf("%d completions without any piece source", res.NumCompletions())
	}
}

func TestShakeTriggers(t *testing.T) {
	cfg := smallConfig()
	cfg.ShakeThreshold = 0.9
	res := runSwarm(t, cfg)
	if res.Shakes() == 0 {
		t.Error("no peer ever shook despite threshold")
	}
	if res.NumCompletions() == 0 {
		t.Error("shaking prevented completion entirely")
	}
}

func TestCompletionRecordTTDConsistency(t *testing.T) {
	cfg := smallConfig()
	res := runSwarm(t, cfg)
	for i := range res.NumCompletions() {
		c := res.Completion(i)
		row := res.Acquisitions(i)
		total := float64(row[0]) - c.ArrivedAt
		for m := 1; m < len(row); m++ {
			total += float64(row[m]) - float64(row[m-1])
		}
		if diff := math.Abs(total - c.Duration()); diff > 1e-9 {
			t.Fatalf("TTD sum %g != duration %g", total, c.Duration())
		}
	}
}

func TestMeanTTDByOrdinal(t *testing.T) {
	cfg := smallConfig()
	res := runSwarm(t, cfg)
	ttd := res.MeanTTDByOrdinal()
	if len(ttd) != cfg.Pieces {
		t.Fatalf("TTD length %d, want %d", len(ttd), cfg.Pieces)
	}
	for i, v := range ttd {
		if !math.IsNaN(v) && v < 0 {
			t.Fatalf("negative mean TTD at ordinal %d", i)
		}
	}
	var empty Result
	if empty.MeanTTDByOrdinal() != nil {
		t.Error("no completions must yield nil TTD")
	}
}

func TestRandomFirstStrategyRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.PieceSelection = RandomFirst
	res := runSwarm(t, cfg)
	if res.NumCompletions() == 0 {
		t.Error("random-first swarm made no progress")
	}
}

func TestPopulationConservation(t *testing.T) {
	// Every peer that ever joined stays accounted for (checkInvariants'
	// conservation sum) when leechers abort and completed peers linger as
	// seeds whose completions were already recorded.
	cfg := smallConfig()
	cfg.AbortRate = 0.02
	cfg.SeedLingerRounds = 5
	cfg.Horizon = 90
	_, res := runChecked(t, cfg)
	if res.Aborts() == 0 || res.Lingered() == 0 {
		t.Fatalf("aborts %d, lingered %d: the scenario exercised neither", res.Aborts(), res.Lingered())
	}
}

// TestAdvanceMatchesRun: stepping the simulation with Advance and then
// finishing with Run replays the exact trajectory of a single
// uninterrupted Run, which fires every round up to and including the
// horizon and stops the clock on it.
func TestAdvanceMatchesRun(t *testing.T) {
	for _, horizon := range []float64{60, 60.5} {
		t.Run(fmt.Sprintf("horizon_%g", horizon), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Pieces = 30
			cfg.InitialPeers = 40
			cfg.ArrivalRate = 2
			cfg.Horizon = horizon
			cfg.TrackPeers = 4

			resA, err := mustRun(t, cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			stepped := mustRun(t, cfg)
			if err := stepped.Advance(cfg.Horizon / 3); err != nil {
				t.Fatal(err)
			}
			if err := stepped.Advance(2 * cfg.Horizon / 3); err != nil {
				t.Fatal(err)
			}
			resB, err := stepped.Run()
			if err != nil {
				t.Fatal(err)
			}

			if a, b := oracleJSON(t, resA), oracleJSON(t, resB); !bytes.Equal(a, b) {
				t.Fatal("Advance-then-Run diverged from a straight Run")
			}
			if resA.Rounds() != 60 || resA.EndTime != horizon {
				t.Errorf("%d rounds ending at %g, want 60 ending at the horizon", resA.Rounds(), resA.EndTime)
			}
		})
	}
}
