// Package sim is a discrete-event BitTorrent swarm simulator, the Go
// counterpart of the custom C++ simulator the paper used for validation.
//
// Peers arrive as a Poisson process, obtain a neighbor set from a tracker,
// trade pieces in strict tit-for-tat rounds over at most k simultaneous
// connections, and depart as soon as they hold all B pieces. One exchange
// round is one unit of virtual time, the chain's time step. The simulator
// exposes the measurements behind the paper's figures: per-peer download
// and potential-set trajectories (Figs. 1–2), connection utilization and
// persistence (Fig. 4a), swarm population and entropy under skewed starts
// (Fig. 4b/c), and per-piece download times with and without peer-set
// shaking (Fig. 4d).
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/faults"
)

// Strategy selects which piece to request from a connected peer.
type Strategy int

// Piece selection strategies (Section 2.1 of the paper).
const (
	// RarestFirst requests the piece held by the fewest neighbors.
	RarestFirst Strategy = iota + 1
	// RandomFirst requests a uniformly random needed piece.
	RandomFirst
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case RarestFirst:
		return "rarest-first"
	case RandomFirst:
		return "random-first"
	default:
		return "unknown"
	}
}

// Config parameterizes a swarm simulation. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// Pieces is B, the number of pieces in the file.
	Pieces int
	// MaxConns is k, the maximum simultaneous active connections per peer.
	MaxConns int
	// NeighborSet is s, the maximum neighbor-set size.
	NeighborSet int
	// ArrivalRate is λ, the Poisson arrival rate of new leechers per unit
	// of virtual time (per round). Zero disables arrivals.
	ArrivalRate float64
	// InitialPeers seeds the swarm with leechers present at time zero.
	InitialPeers int
	// InitialSkew, when positive, gives each initial peer piece 0 with
	// probability InitialSkew and each other piece with a small residual
	// probability — the skewed starting state of Figure 4(b)/(c).
	// When zero, initial peers start empty.
	InitialSkew float64
	// Seeds is the number of origin seeds (peers that hold the full file
	// and never leave). At least one source of pieces must exist for any
	// download to complete.
	Seeds int
	// SeedUpload is the number of pieces each seed uploads per round.
	SeedUpload int
	// SuperSeed enables super-seeding (the Section 7.2 technique): a seed
	// hands out each piece once and withholds further copies until it has
	// seen the piece replicated on at least two leechers, maximizing the
	// diversity injected per unit of seed bandwidth.
	SuperSeed bool
	// OptimisticProb is the per-round probability that a leecher with a
	// spare upload slot donates one piece to a random neighbor that has
	// nothing to trade — BitTorrent's optimistic unchoking, which is what
	// bootstraps empty peers.
	OptimisticProb float64
	// SlowPeerFraction makes this share of arriving leechers "slow":
	// they participate in an exchange round only with probability
	// SlowPeerRate, modeling heterogeneous access bandwidth (the paper's
	// homogeneity assumption relaxed, cf. its Section 7 discussion).
	SlowPeerFraction float64
	// SlowPeerRate is the per-round participation probability of slow
	// peers; ignored when SlowPeerFraction is 0.
	SlowPeerRate float64
	// AbortRate is the per-round probability that a leecher gives up and
	// leaves before completing (the fluid model's θ). Zero disables
	// aborts, matching the paper's model assumptions.
	AbortRate float64
	// SeedLingerRounds keeps a completed peer in the swarm as a seed for
	// this many rounds before it departs (0 = leave immediately, the
	// paper's assumption). Lingering seeds serve without tit-for-tat,
	// like the origin seeds.
	SeedLingerRounds int
	// PieceSelection is the piece-picking strategy.
	PieceSelection Strategy
	// ShakeThreshold, when positive, applies the Section 7.1 mitigation:
	// a leecher whose completion fraction reaches the threshold drops its
	// entire neighbor set and asks the tracker for a fresh random one.
	ShakeThreshold float64
	// TrackerRefreshRounds is how many rounds pass between a peer's
	// tracker re-contacts to top up a depleted neighbor set.
	TrackerRefreshRounds int
	// Horizon is the virtual end time of the simulation; the rounds fire
	// at 1, 2, … up to and including it.
	Horizon float64
	// Seed1, Seed2 seed the deterministic RNG.
	Seed1, Seed2 uint64
	// TrackPeers is the number of arriving leechers to instrument with
	// full download/potential-set trajectories (0 disables).
	TrackPeers int
	// MaxPeers aborts arrivals beyond this population, bounding memory in
	// deliberately unstable configurations. Zero means no bound.
	MaxPeers int
	// PieceCensus records, each metrics round, the full piece-count
	// population vector (how many leechers hold exactly b pieces) into
	// Result.Census. This is the population-path extraction hook the
	// fluid-convergence harness compares against the chunk-level ODE;
	// off by default because the census row costs O(Pieces) per round.
	PieceCensus bool
	// Observer, when non-nil, receives per-round telemetry (event
	// counts, entropy/efficiency gauges). Nil disables observation at
	// zero allocation cost; see NewRegistryObserver for the standard
	// metrics-registry sink.
	Observer Observer
	// Faults, when non-nil, injects a deterministic failure schedule:
	// per-round connection failure (the Section 5 model's 1-p_r as an
	// input), leecher crash/rejoin churn, and tracker blackout windows.
	// Fault randomness is drawn from a dedicated stream seeded by the
	// plan, so a nil plan leaves the swarm's RNG sequence untouched.
	Faults *faults.Plan
}

// DefaultConfig returns a stable mid-size swarm configuration.
func DefaultConfig() Config {
	return Config{
		Pieces:               200,
		MaxConns:             7,
		NeighborSet:          40,
		ArrivalRate:          2,
		InitialPeers:         50,
		Seeds:                1,
		SeedUpload:           4,
		OptimisticProb:       0.25,
		PieceSelection:       RarestFirst,
		TrackerRefreshRounds: 5,
		Horizon:              400,
		Seed1:                1,
		Seed2:                2,
		TrackPeers:           64,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Pieces < 1:
		return fmt.Errorf("sim: Pieces = %d, need >= 1", c.Pieces)
	case c.MaxConns < 1:
		return fmt.Errorf("sim: MaxConns = %d, need >= 1", c.MaxConns)
	case c.NeighborSet < 1:
		return fmt.Errorf("sim: NeighborSet = %d, need >= 1", c.NeighborSet)
	case c.NeighborSet > 65535:
		// The rarest-first replication tables hold one uint16 count per
		// (peer, piece); a neighbor set beyond 65535 could overflow them.
		return fmt.Errorf("sim: NeighborSet = %d, need <= 65535", c.NeighborSet)
	case !(c.ArrivalRate >= 0 && c.ArrivalRate <= math.MaxFloat64):
		return fmt.Errorf("sim: ArrivalRate = %g, need finite >= 0", c.ArrivalRate)
	case c.InitialPeers < 0:
		return fmt.Errorf("sim: InitialPeers = %d", c.InitialPeers)
	case c.InitialSkew < 0 || c.InitialSkew > 1 || math.IsNaN(c.InitialSkew):
		return fmt.Errorf("sim: InitialSkew = %g", c.InitialSkew)
	case c.Seeds < 0:
		return fmt.Errorf("sim: Seeds = %d", c.Seeds)
	case c.Seeds > 0 && c.SeedUpload < 1:
		return fmt.Errorf("sim: SeedUpload = %d with %d seeds", c.SeedUpload, c.Seeds)
	case c.OptimisticProb < 0 || c.OptimisticProb > 1 || math.IsNaN(c.OptimisticProb):
		return fmt.Errorf("sim: OptimisticProb = %g", c.OptimisticProb)
	case c.SlowPeerFraction < 0 || c.SlowPeerFraction > 1 || math.IsNaN(c.SlowPeerFraction):
		return fmt.Errorf("sim: SlowPeerFraction = %g", c.SlowPeerFraction)
	case c.SlowPeerFraction > 0 && (c.SlowPeerRate <= 0 || c.SlowPeerRate > 1 || math.IsNaN(c.SlowPeerRate)):
		return fmt.Errorf("sim: SlowPeerRate = %g with slow peers enabled", c.SlowPeerRate)
	case c.AbortRate < 0 || c.AbortRate > 1 || math.IsNaN(c.AbortRate):
		return fmt.Errorf("sim: AbortRate = %g", c.AbortRate)
	case c.SeedLingerRounds < 0:
		return fmt.Errorf("sim: SeedLingerRounds = %d", c.SeedLingerRounds)
	case c.PieceSelection != RarestFirst && c.PieceSelection != RandomFirst:
		return fmt.Errorf("sim: unknown piece selection %d", c.PieceSelection)
	case c.ShakeThreshold < 0 || c.ShakeThreshold > 1 || math.IsNaN(c.ShakeThreshold):
		return fmt.Errorf("sim: ShakeThreshold = %g", c.ShakeThreshold)
	case c.TrackerRefreshRounds < 1:
		return fmt.Errorf("sim: TrackerRefreshRounds = %d, need >= 1", c.TrackerRefreshRounds)
	case !(c.Horizon > 0 && c.Horizon <= math.MaxInt32):
		// The acquisition log holds each piece's round as an int32.
		return fmt.Errorf("sim: Horizon = %g, need > 0 and <= %d", c.Horizon, math.MaxInt32)
	case c.TrackPeers < 0:
		return fmt.Errorf("sim: TrackPeers = %d", c.TrackPeers)
	case c.MaxPeers < 0:
		return fmt.Errorf("sim: MaxPeers = %d", c.MaxPeers)
	case c.InitialPeers == 0 && c.ArrivalRate == 0:
		return errors.New("sim: no initial peers and no arrivals")
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}
