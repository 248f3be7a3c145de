package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// countingObserver accumulates RoundStats totals in plain ints.
type countingObserver struct {
	rounds, arrivals, exchanges, seedUploads, optimistic int
	shakes, aborts, completions, connsFormed, connsDrop  int
	lastLeechers, lastSeeds                              int
	lastEntropy, lastEff, lastPR                         float64
}

func (c *countingObserver) ObserveRound(rs RoundStats) {
	c.rounds++
	c.arrivals += rs.Arrivals
	c.exchanges += rs.Exchanges
	c.seedUploads += rs.SeedUploads
	c.optimistic += rs.Optimistic
	c.shakes += rs.Shakes
	c.aborts += rs.Aborts
	c.completions += rs.Completions
	c.connsFormed += rs.ConnsFormed
	c.connsDrop += rs.ConnsDropped
	c.lastLeechers = rs.Leechers
	c.lastSeeds = rs.Seeds
	c.lastEntropy = rs.Entropy
	c.lastEff = rs.Efficiency
	c.lastPR = rs.PR
}

// TestObserverMatchesResult checks that the per-round deltas delivered to
// the observer sum to exactly the totals the Result reports, for every
// counter, on a run exercising arrivals, aborts, shakes, and completions.
func TestObserverMatchesResult(t *testing.T) {
	cfg := smallConfig()
	cfg.AbortRate = 0.01
	cfg.ShakeThreshold = 0.5
	co := &countingObserver{}
	cfg.Observer = co
	res := runSwarm(t, cfg)

	if co.rounds != res.Rounds() {
		t.Errorf("rounds: observer %d, result %d", co.rounds, res.Rounds())
	}
	if co.exchanges != res.Exchanges() {
		t.Errorf("exchanges: observer %d, result %d", co.exchanges, res.Exchanges())
	}
	if co.seedUploads != res.SeedUploads() {
		t.Errorf("seed uploads: observer %d, result %d", co.seedUploads, res.SeedUploads())
	}
	if co.optimistic != res.OptimisticUploads() {
		t.Errorf("optimistic: observer %d, result %d", co.optimistic, res.OptimisticUploads())
	}
	if co.shakes != res.Shakes() {
		t.Errorf("shakes: observer %d, result %d", co.shakes, res.Shakes())
	}
	if co.aborts != res.Aborts() {
		t.Errorf("aborts: observer %d, result %d", co.aborts, res.Aborts())
	}
	if co.completions != res.NumCompletions() {
		t.Errorf("completions: observer %d, result %d", co.completions, res.NumCompletions())
	}
	if co.connsFormed != res.ConnsFormed() {
		t.Errorf("conns formed: observer %d, result %d", co.connsFormed, res.ConnsFormed())
	}
	if co.connsDrop != res.connsDropped {
		t.Errorf("conns dropped: observer %d, result %d", co.connsDrop, res.connsDropped)
	}
	// Arrivals fire between rounds; every arrival before the final round is
	// attributed to some round. At most the post-final-round stragglers are
	// unseen.
	if co.arrivals > res.Arrivals() {
		t.Errorf("observer saw %d arrivals, result only %d", co.arrivals, res.Arrivals())
	}
	if res.Arrivals()-co.arrivals > 5 {
		t.Errorf("observer missed %d arrivals", res.Arrivals()-co.arrivals)
	}
	if co.lastEntropy < 0 || co.lastEntropy > 1 {
		t.Errorf("entropy gauge %g out of [0,1]", co.lastEntropy)
	}
	if !math.IsNaN(co.lastEff) && (co.lastEff < 0 || co.lastEff > 1) {
		t.Errorf("efficiency gauge %g out of [0,1]", co.lastEff)
	}
}

// TestObserverDeterminismUnchanged checks that attaching an observer does
// not perturb the simulation: identical seeds produce identical results
// with and without one.
func TestObserverDeterminismUnchanged(t *testing.T) {
	cfg := smallConfig()
	plain := runSwarm(t, cfg)

	cfg.Observer = &countingObserver{}
	observed := runSwarm(t, cfg)

	if plain.Exchanges() != observed.Exchanges() ||
		plain.Rounds() != observed.Rounds() ||
		plain.NumCompletions() != observed.NumCompletions() ||
		plain.EndTime != observed.EndTime {
		t.Fatalf("observer changed the run: %d/%d/%d vs %d/%d/%d",
			plain.Exchanges(), plain.Rounds(), plain.NumCompletions(),
			observed.Exchanges(), observed.Rounds(), observed.NumCompletions())
	}
}

// TestRegistryObserverPopulates runs a swarm with the standard registry
// sink and checks the sim.* metrics agree with the Result.
func TestRegistryObserverPopulates(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := smallConfig()
	cfg.Observer = NewRegistryObserver(reg)
	res := runSwarm(t, cfg)

	snap := reg.Snapshot()
	wantCounters := map[string]int64{
		"sim.rounds":        int64(res.Rounds()),
		"sim.exchanges":     int64(res.Exchanges()),
		"sim.seed_uploads":  int64(res.SeedUploads()),
		"sim.optimistic":    int64(res.OptimisticUploads()),
		"sim.completions":   int64(res.NumCompletions()),
		"sim.conns_formed":  int64(res.ConnsFormed()),
		"sim.conns_dropped": int64(res.connsDropped),
	}
	for name, want := range wantCounters {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if snap.Gauges["sim.time"] <= 0 {
		t.Errorf("sim.time gauge = %g", snap.Gauges["sim.time"])
	}
	h, ok := snap.Histograms["sim.round_exchanges"]
	if !ok {
		t.Fatal("sim.round_exchanges histogram missing")
	}
	if h.Count != int64(res.Rounds()) {
		t.Errorf("round_exchanges count %d, want %d", h.Count, res.Rounds())
	}
	if int64(h.Sum) != int64(res.Exchanges()) {
		t.Errorf("round_exchanges sum %g, want %d", h.Sum, res.Exchanges())
	}
}

// stepObserver sums the round decomposition.
type stepObserver struct {
	steps        [NumSteps]int64
	tries, links int
}

func (o *stepObserver) ObserveRound(rs RoundStats) {
	for i, ns := range rs.StepNanos {
		o.steps[i] += ns
	}
	o.tries += rs.TrackerTries
	o.links += rs.TrackerLinks
}

// TestStepNanosDecomposeTheRun checks the inside view of a round: the
// per-step host times are nonnegative, cover the steps that certainly
// ran, and add up to no more than the run took from outside; the tracker
// deltas add up to the run's totals (less the arrivals after the last
// round); and the registry observer exports both under the StepNames.
func TestStepNanosDecomposeTheRun(t *testing.T) {
	reg := obs.NewRegistry()
	so := &stepObserver{}
	cfg := smallConfig()
	cfg.Observer = both{so, NewRegistryObserver(reg)}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(t0).Nanoseconds()

	var sum int64
	for i, ns := range so.steps {
		if ns < 0 {
			t.Errorf("step %s took %d ns", StepNames[i], ns)
		}
		sum += ns
	}
	for _, step := range []int{stepArrivals, stepShuffle, stepEstablish, stepExchange, stepMetrics} {
		if so.steps[step] == 0 {
			t.Errorf("step %s never took any time", StepNames[step])
		}
	}
	if sum > wall {
		t.Errorf("steps sum to %d ns, the whole run took %d ns", sum, wall)
	}
	if so.links == 0 || so.links > so.tries || so.tries > s.res.trackerTries ||
		s.res.trackerLinks-so.links > 5*cfg.NeighborSet {
		t.Errorf("observer saw %d tries / %d links, the run made %d / %d",
			so.tries, so.links, s.res.trackerTries, s.res.trackerLinks)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sim.tracker_tries"]; got != int64(so.tries) {
		t.Errorf("sim.tracker_tries = %d, want %d", got, so.tries)
	}
	if got := snap.Counters["sim.tracker_links"]; got != int64(so.links) {
		t.Errorf("sim.tracker_links = %d, want %d", got, so.links)
	}
	for i, name := range StepNames {
		if got := snap.Counters["sim.round_step_ns."+name]; got != so.steps[i] {
			t.Errorf("sim.round_step_ns.%s = %d, want %d", name, got, so.steps[i])
		}
	}
}

// both fans one round out to two observers.
type both [2]Observer

func (b both) ObserveRound(rs RoundStats) {
	b[0].ObserveRound(rs)
	b[1].ObserveRound(rs)
}

// nopObserver is a minimal do-nothing Observer used to measure the cost of
// the hook itself.
type nopObserver struct{}

func (nopObserver) ObserveRound(RoundStats) {}

// TestDisabledObserverZeroAlloc proves the tentpole claim: a nil Observer
// adds zero allocations per round over the exact same run with a no-op
// observer attached (the RoundStats value is delivered without boxing, and
// the bookkeeping is plain integer arithmetic either way).
func TestDisabledObserverZeroAlloc(t *testing.T) {
	run := func(o Observer) float64 {
		cfg := smallConfig()
		cfg.ArrivalRate = 0 // keep the two runs structurally identical
		cfg.TrackPeers = 0
		cfg.Horizon = 30
		cfg.Observer = o
		return testing.AllocsPerRun(5, func() {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	nilAllocs := run(nil)
	nopAllocs := run(nopObserver{})
	// The run executes Horizon = 30 rounds. A hook that
	// allocated even once per round would show a difference of 30+; the
	// runtime itself wobbles the totals by ±1 between identical runs, so
	// tolerate that jitter and nothing more.
	if diff := math.Abs(nopAllocs - nilAllocs); diff > 2 {
		t.Errorf("observer hook allocates %g per run over the nil baseline", nopAllocs-nilAllocs)
	}
}
