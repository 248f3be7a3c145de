package sim

import (
	"math"

	"repro/internal/obs"
)

// RoundStats is the per-round telemetry delivered to an Observer: the
// event mix of one exchange round plus the round-level gauges behind the
// paper's Figure 4 series.
type RoundStats struct {
	// Time is the virtual time of the round.
	Time float64
	// Round is the 1-based round ordinal.
	Round int
	// Leechers and Seeds are the population at the top of the round.
	Leechers int
	Seeds    int
	// Peers is the total live population (leechers plus origin and
	// lingering seeds) at the end of the round.
	Peers int
	// MemBytes estimates the peer store's resident footprint in bytes
	// (the capacity of every struct-of-arrays column), the numerator of
	// the bytes-per-peer gauge.
	MemBytes int64

	// Event counts within this round.
	Arrivals     int
	Exchanges    int
	SeedUploads  int
	Optimistic   int
	Shakes       int
	Aborts       int
	Completions  int
	ConnsFormed  int
	ConnsDropped int
	// FaultDrops is how many of ConnsDropped were injected by the fault
	// plan; Crashes and Rejoins count injected churn events.
	FaultDrops int
	Crashes    int
	Rejoins    int
	// TrackerDark reports whether this round fell inside an injected
	// tracker blackout window.
	TrackerDark bool

	// Entropy is the system entropy E = min d / max d this round.
	Entropy float64
	// Efficiency is the fraction of connection slots in use (η), NaN
	// when unmeasured (no leechers).
	Efficiency float64
	// PR is the connection persistence probability p_r, NaN on the
	// first round (nothing to persist from).
	PR float64

	// TrackerTries is how many random candidates the tracker top-ups drew
	// since the previous round's delivery and TrackerLinks how many of
	// them became neighbors; the rest were rejected (self, already a
	// neighbor, or partner full).
	TrackerTries int
	TrackerLinks int
	// StepNanos is the host time, in nanoseconds, each step of the round
	// took, indexed as StepNames. Entry 0 is everything since the previous
	// round's steps ended: the Poisson arrival events with their tracker
	// top-ups, and the previous delivery. The entries sum to the host time
	// between two deliveries.
	StepNanos [NumSteps]int64
}

// The steps of one exchange round, in execution order: indices into
// RoundStats.StepNanos.
const (
	stepArrivals = iota
	stepShuffle
	stepFaults
	stepParticipation
	stepTracker
	stepMaintain
	stepEstablish
	stepConnFailures
	stepMeasure
	stepExchange
	stepSeedUploads
	stepOptimistic
	stepMetrics
	stepDepartures
	NumSteps
)

// StepNames names the entries of RoundStats.StepNanos.
var StepNames = [NumSteps]string{
	"arrivals", "shuffle", "faults", "participation", "tracker", "maintain", "establish",
	"conn_failures", "measure", "exchange", "seed_uploads", "optimistic", "metrics", "departures",
}

// Observer receives simulator telemetry once per exchange round. A nil
// Config.Observer disables observation entirely: the hook costs a nil
// check and a handful of integer bookkeeping increments, and allocates
// nothing. Implementations must not retain the RoundStats value's
// address and must not mutate the swarm.
type Observer interface {
	ObserveRound(RoundStats)
}

// registryObserver maps round telemetry onto an obs.Registry under the
// "sim." namespace.
type registryObserver struct {
	rounds, arrivals, exchanges, seedUploads, optimistic *obs.Counter
	shakes, aborts, completions, connsFormed, connsDrop  *obs.Counter
	faultDrops, crashes, rejoins, blackoutRounds         *obs.Counter
	leechers, seeds, entropy, efficiency, pr, vtime      *obs.Gauge
	peers, memBytes, bytesPerPeer                        *obs.Gauge
	roundExchanges                                       *obs.Histogram
	trackerTries, trackerLinks                           *obs.Counter
	stepNs                                               [NumSteps]*obs.Counter
}

// NewRegistryObserver returns an Observer that accumulates round
// telemetry into reg: counters sim.rounds, sim.arrivals, sim.exchanges,
// sim.seed_uploads, sim.optimistic, sim.shakes, sim.aborts,
// sim.completions, sim.conns_formed, sim.conns_dropped, sim.fault_drops,
// sim.crashes, sim.rejoins, sim.blackout_rounds; gauges
// sim.leechers, sim.seeds, sim.peers, sim.mem_bytes, sim.bytes_per_peer,
// sim.entropy, sim.efficiency, sim.pr, sim.time; histogram
// sim.round_exchanges; and where the rounds went: counters
// sim.tracker_tries, sim.tracker_links and one cumulative
// sim.round_step_ns.<step> per entry of StepNames.
func NewRegistryObserver(reg *obs.Registry) Observer {
	o := &registryObserver{
		rounds:         reg.Counter("sim.rounds"),
		arrivals:       reg.Counter("sim.arrivals"),
		exchanges:      reg.Counter("sim.exchanges"),
		seedUploads:    reg.Counter("sim.seed_uploads"),
		optimistic:     reg.Counter("sim.optimistic"),
		shakes:         reg.Counter("sim.shakes"),
		aborts:         reg.Counter("sim.aborts"),
		completions:    reg.Counter("sim.completions"),
		connsFormed:    reg.Counter("sim.conns_formed"),
		connsDrop:      reg.Counter("sim.conns_dropped"),
		faultDrops:     reg.Counter("sim.fault_drops"),
		crashes:        reg.Counter("sim.crashes"),
		rejoins:        reg.Counter("sim.rejoins"),
		blackoutRounds: reg.Counter("sim.blackout_rounds"),
		leechers:       reg.Gauge("sim.leechers"),
		seeds:          reg.Gauge("sim.seeds"),
		entropy:        reg.Gauge("sim.entropy"),
		efficiency:     reg.Gauge("sim.efficiency"),
		pr:             reg.Gauge("sim.pr"),
		peers:          reg.Gauge("sim.peers"),
		memBytes:       reg.Gauge("sim.mem_bytes"),
		bytesPerPeer:   reg.Gauge("sim.bytes_per_peer"),
		vtime:          reg.Gauge("sim.time"),
		roundExchanges: reg.Histogram("sim.round_exchanges"),
		trackerTries:   reg.Counter("sim.tracker_tries"),
		trackerLinks:   reg.Counter("sim.tracker_links"),
	}
	for i, name := range StepNames {
		o.stepNs[i] = reg.Counter("sim.round_step_ns." + name)
	}
	return o
}

func (o *registryObserver) ObserveRound(rs RoundStats) {
	o.rounds.Inc()
	o.arrivals.Add(int64(rs.Arrivals))
	o.exchanges.Add(int64(rs.Exchanges))
	o.seedUploads.Add(int64(rs.SeedUploads))
	o.optimistic.Add(int64(rs.Optimistic))
	o.shakes.Add(int64(rs.Shakes))
	o.aborts.Add(int64(rs.Aborts))
	o.completions.Add(int64(rs.Completions))
	o.connsFormed.Add(int64(rs.ConnsFormed))
	o.connsDrop.Add(int64(rs.ConnsDropped))
	o.faultDrops.Add(int64(rs.FaultDrops))
	o.crashes.Add(int64(rs.Crashes))
	o.rejoins.Add(int64(rs.Rejoins))
	if rs.TrackerDark {
		o.blackoutRounds.Inc()
	}
	o.leechers.Set(float64(rs.Leechers))
	o.seeds.Set(float64(rs.Seeds))
	o.peers.Set(float64(rs.Peers))
	o.memBytes.Set(float64(rs.MemBytes))
	if rs.Peers > 0 {
		o.bytesPerPeer.Set(float64(rs.MemBytes) / float64(rs.Peers))
	}
	o.entropy.Set(rs.Entropy)
	if !math.IsNaN(rs.Efficiency) {
		o.efficiency.Set(rs.Efficiency)
	}
	if !math.IsNaN(rs.PR) {
		o.pr.Set(rs.PR)
	}
	o.vtime.Set(rs.Time)
	o.roundExchanges.Observe(float64(rs.Exchanges))
	o.trackerTries.Add(int64(rs.TrackerTries))
	o.trackerLinks.Add(int64(rs.TrackerLinks))
	for i, ns := range rs.StepNanos {
		o.stepNs[i].Add(ns)
	}
}
