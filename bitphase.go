// Package bitphase is a library for modeling and analyzing the BitTorrent
// protocol, reproducing "A Multiphased Approach for Modeling and Analysis
// of the BitTorrent Protocol" (Rai, Sivasubramanian, Bhulai, Garbacki,
// van Steen — ICDCS 2007).
//
// The package is a curated facade over the implementation packages:
//
//   - The multiphased download model: a Markov chain over (connections,
//     pieces, potential-set size) with the paper's f/g/h transition kernel,
//     Equation (1) trading power, phase classification, the Section 5
//     efficiency model, and the Section 6 entropy stability analysis.
//   - A discrete-event BitTorrent swarm simulator (the validation
//     substrate): Poisson arrivals, strict tit-for-tat trading, neighbor
//     and potential sets, rarest-first/random-first piece selection,
//     seeds, optimistic unchoking, and the Section 7.1 peer-set shake.
//   - A runnable mini-BitTorrent client and HTTP tracker over real TCP
//     with the paper's download instrumentation (Section 4.2).
//   - A download-trace format with a phase analyzer, and one experiment
//     harness per figure of the paper's evaluation.
//
// Quick start:
//
//	model, err := bitphase.NewModel(bitphase.DefaultParams(40))
//	if err != nil { ... }
//	stats, err := model.Ensemble(bitphase.NewRNG(1, 2), 400)
package bitphase

import (
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fluid"
	"repro/internal/metainfo"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracker"
)

// RNG is a deterministic, splittable random-number stream; every API in
// this library that samples takes one explicitly so results reproduce.
type RNG = stats.RNG

// NewRNG returns a stream seeded with (s1, s2).
func NewRNG(s1, s2 uint64) *RNG { return stats.NewRNG(s1, s2) }

// The multiphased download model (paper Section 3).
type (
	// Params are the model parameters in the paper's notation: B pieces,
	// K connections, S neighbor-set size, and the α/γ/p_* probabilities.
	Params = core.Params
	// Model is a Params set with precomputed transition tables.
	Model = core.Model
	// ModelState is one (n, b, i) point of the chain's state space.
	ModelState = core.State
	// Trajectory is one sampled download realization.
	Trajectory = core.Trajectory
	// EnsembleStats aggregates Monte-Carlo trajectories into the curves
	// the paper plots (potential-set ratio, first-passage timeline).
	EnsembleStats = core.EnsembleStats
	// PieceDist is the piece-count distribution ϕ over swarm peers.
	PieceDist = core.PieceDist
	// PhaseBreakdown counts steps per download phase for one trajectory.
	PhaseBreakdown = core.PhaseBreakdown
	// PhaseSummary aggregates phase breakdowns over an ensemble.
	PhaseSummary = core.PhaseSummary
)

// NewModel validates parameters and precomputes the transition tables.
func NewModel(p Params) (*Model, error) { return core.NewModel(p) }

// DefaultParams returns the paper's validation configuration (B = 200,
// k = 7) for the given neighbor-set size.
func DefaultParams(s int) Params { return core.DefaultParams(s) }

// UniformPhi is the uniform piece distribution ϕ(j) = 1/B, the stable
// regime of Section 6.
func UniformPhi(b int) PieceDist { return core.UniformPhi(b) }

// EmpiricalPhi builds ϕ from observed piece counts (counts[j] = number of
// peers holding exactly j pieces; counts[0] ignored).
func EmpiricalPhi(counts []int) (PieceDist, error) { return core.EmpiricalPhi(counts) }

// TradingPower evaluates Equation (1): the probability that a random peer
// can trade with a peer holding x pieces.
func TradingPower(phi PieceDist, x int) float64 { return core.TradingPower(phi, x) }

// ClassifyPhases attributes a trajectory's steps to the bootstrap,
// efficient, and last download phases.
func ClassifyPhases(p Params, t Trajectory) PhaseBreakdown { return core.ClassifyPhases(p, t) }

// The Section 5 efficiency model.
type (
	// EfficiencyParams configure the connection-migration chain.
	EfficiencyParams = core.EfficiencyParams
	// EfficiencyResult is its steady state and η.
	EfficiencyResult = core.EfficiencyResult
)

// SolveEfficiency iterates the balance equations (4)–(6) to steady state.
func SolveEfficiency(e EfficiencyParams, tol float64, maxIter int) (EfficiencyResult, error) {
	return core.SolveEfficiency(e, tol, maxIter)
}

// CalibratedPR returns the connection-persistence probability calibrated
// against the swarm simulator for a given k (see Figure 4a).
func CalibratedPR(k int) float64 { return core.CalibratedPR(k) }

// Entropy returns the Section 6 system entropy min(d)/max(d) over piece
// replication degrees.
func Entropy(degrees []int) float64 { return core.Entropy(degrees) }

// StabilityAssessment summarizes an entropy drift analysis.
type StabilityAssessment = core.StabilityAssessment

// AssessStability applies the paper's stability criterion to an entropy
// time series.
func AssessStability(times, entropy []float64) (StabilityAssessment, error) {
	return core.AssessStability(times, entropy)
}

// The swarm simulator (the paper's validation substrate).
type (
	// SwarmConfig parameterizes a simulation run.
	SwarmConfig = sim.Config
	// Swarm is one simulation instance.
	Swarm = sim.Swarm
	// SwarmResult holds every measurement of a run.
	SwarmResult = sim.Result
	// PieceStrategy selects rarest-first or random-first picking.
	PieceStrategy = sim.Strategy
)

// Piece selection strategies.
const (
	RarestFirst = sim.RarestFirst
	RandomFirst = sim.RandomFirst
)

// DefaultSwarmConfig returns a stable mid-size swarm configuration.
func DefaultSwarmConfig() SwarmConfig { return sim.DefaultConfig() }

// NewSwarm validates the configuration and builds the initial swarm.
func NewSwarm(cfg SwarmConfig) (*Swarm, error) { return sim.New(cfg) }

// Download traces and phase analysis (paper Section 4).
type (
	// DownloadTrace is a per-peer instrumentation log.
	DownloadTrace = trace.Download
	// PhaseReport is the analyzer's segmentation of one trace.
	PhaseReport = trace.PhaseReport
	// Regime is the Figure 2 classification of a trace.
	Regime = trace.Regime
)

// Figure 2 regimes.
const (
	RegimeSmooth    = trace.RegimeSmooth
	RegimeLastPhase = trace.RegimeLastPhase
	RegimeBootstrap = trace.RegimeBootstrap
)

// AnalyzeTrace segments a download trace into the three phases.
func AnalyzeTrace(d *DownloadTrace) (PhaseReport, error) { return trace.Analyze(d) }

// TraceFit holds the chain's parameters estimated from traces, each with
// its standard error and the number of sample pairs that informed it.
type TraceFit = core.Estimates

// FitTraces inverts the multiphased chain: it estimates p_init, α, γ,
// p_r, p_n and the p_(x) curve from a set of download traces.
func FitTraces(traces []*DownloadTrace) (TraceFit, error) { return core.Estimate(traces) }

// The real-client stack (loopback swarms, paper Section 4.2 methodology).
type (
	// Client is a runnable mini-BitTorrent client over TCP.
	Client = client.Client
	// ClientConfig parameterizes a Client.
	ClientConfig = client.Config
	// Storage is the client's verified piece store.
	Storage = client.Storage
	// TrackerServer is the HTTP tracker.
	TrackerServer = tracker.Server
	// Torrent is parsed swarm metadata.
	Torrent = metainfo.Torrent
	// TorrentInfo is the torrent info dictionary.
	TorrentInfo = metainfo.Info
)

// NewClient validates the configuration and prepares a swarm participant.
func NewClient(cfg ClientConfig) (*Client, error) { return client.New(cfg) }

// NewStorage returns an empty verified piece store.
func NewStorage(info TorrentInfo) (*Storage, error) { return client.NewStorage(info) }

// NewFileStorage opens or resumes a disk-backed piece store at path.
func NewFileStorage(info TorrentInfo, path string) (*Storage, error) {
	return client.NewFileStorage(info, path)
}

// NewSeededStorage returns a store pre-loaded with the full content.
func NewSeededStorage(info TorrentInfo, content []byte) (*Storage, error) {
	return client.NewSeededStorage(info, content)
}

// NewTrackerServer returns an HTTP tracker; register Handler with an
// http.Server.
func NewTrackerServer() *TrackerServer { return tracker.NewServer() }

// TorrentFromContent hashes in-memory content into a torrent info dict.
func TorrentFromContent(name string, content []byte, pieceLength int64) (TorrentInfo, error) {
	return metainfo.FromContent(name, content, pieceLength)
}

// MarshalTorrent serializes a torrent with its announce URL.
func MarshalTorrent(announce string, info TorrentInfo) ([]byte, error) {
	return metainfo.Marshal(announce, info)
}

// UnmarshalTorrent parses a torrent file.
func UnmarshalTorrent(data []byte) (*Torrent, error) { return metainfo.Unmarshal(data) }

// Experiment harnesses (one per paper figure).
type (
	// ExperimentScale selects quick or paper-scale workloads.
	ExperimentScale = experiments.Scale
	// ExperimentTable is a rendered result table.
	ExperimentTable = experiments.Table
)

// Experiment scales.
const (
	ScaleQuick = experiments.Quick
	ScaleFull  = experiments.Full
)

// Figure harnesses; see internal/experiments for the result types.
var (
	Fig1a  = experiments.Fig1a
	Fig1b  = experiments.Fig1b
	Fig2   = experiments.Fig2
	Fig4a  = experiments.Fig4a
	Fig4bc = experiments.Fig4bc
	Fig4d  = experiments.Fig4d
)

// Ablation and baseline harnesses (DESIGN.md Section 6).
var (
	AblationPieceSelection = experiments.AblationPieceSelection
	AblationShakeThreshold = experiments.AblationShakeThreshold
	AblationTrackerRefresh = experiments.AblationTrackerRefresh
	AblationSuperSeed      = experiments.AblationSuperSeed
	FlashCrowd             = experiments.FlashCrowd
	ValidateDistributions  = experiments.ValidateDistributions
)

// SelfConsistentPhi closes the ϕ feedback loop of Section 6: the piece
// distribution implied by the model's own download dynamics.
func SelfConsistentPhi(p Params) (core.SelfConsistentResult, error) {
	return core.SelfConsistentPhi(p)
}

// SeedParams is the Section 7.2 seeding term of the download model: the
// type of Params.Seeds, non-tit-for-tat seed connections.
type SeedParams = core.SeedParams

// SeedSpeedup returns the exact unseeded-to-seeded download-time ratio.
func SeedSpeedup(p Params, sp SeedParams) (float64, error) {
	return core.SeedSpeedup(p, sp)
}

// The fluid-model baseline (Qiu-Srikant) the paper argues against.
type (
	// FluidParams parameterize the Qiu-Srikant fluid model.
	FluidParams = fluid.QSParams
	// FluidSteadyState is its closed-form equilibrium.
	FluidSteadyState = fluid.SteadyState
)

// ExactPhaseDurations computes expected per-phase step counts exactly, in
// one sweep over the chain's piece levels (transient analysis the paper
// leaves as future work).
func ExactPhaseDurations(p Params) (core.PhaseDurations, error) {
	return core.ExactPhaseDurations(p)
}
