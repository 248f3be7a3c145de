package serve

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// F64 is the NaN/Inf-as-null JSON float (now owned by internal/obs and
// aliased here for source compatibility). Ensemble curves legitimately
// contain NaN ("piece count never observed"), which encoding/json
// refuses to emit; null is the JSON-representable spelling of the same
// fact.
type F64 = obs.F64

func f64s(xs []float64) []F64 { return obs.F64s(xs) }

// SummaryOut mirrors stats.Summary with NaN-safe fields.
type SummaryOut struct {
	N      int `json:"n"`
	Mean   F64 `json:"mean"`
	Stddev F64 `json:"stddev"`
	Min    F64 `json:"min"`
	P25    F64 `json:"p25"`
	Median F64 `json:"median"`
	P75    F64 `json:"p75"`
	Max    F64 `json:"max"`
}

func summaryOut(s stats.Summary) SummaryOut {
	return SummaryOut{
		N: s.N, Mean: F64(s.Mean), Stddev: F64(s.Stddev), Min: F64(s.Min),
		P25: F64(s.P25), Median: F64(s.Median), P75: F64(s.P75), Max: F64(s.Max),
	}
}

// PhasesOut mirrors core.PhaseSummary with NaN-safe fields.
type PhasesOut struct {
	Runs               int `json:"runs"`
	MeanBootstrap      F64 `json:"meanBootstrap"`
	MeanEfficient      F64 `json:"meanEfficient"`
	MeanLast           F64 `json:"meanLast"`
	FracStuckBootstrap F64 `json:"fracStuckBootstrap"`
	FracLastPhase      F64 `json:"fracLastPhase"`
}

// ModelOut is the response body of a KindModel query: the ensemble
// aggregates btmodel prints, in structured form, plus the full
// Figure 1 curves.
type ModelOut struct {
	Params            ModelQuery `json:"params"`
	Completion        SummaryOut `json:"completionSteps"`
	Truncated         int        `json:"truncated"`
	Phases            PhasesOut  `json:"phases"`
	PotentialByPieces []F64      `json:"potentialByPieces"`
	FirstPassage      []F64      `json:"firstPassage"`
}

// EfficiencyOut is the response body of a KindEfficiency query: the
// Section 5 steady state.
type EfficiencyOut struct {
	K          int       `json:"k"`
	PR         float64   `json:"pr"`
	Eta        float64   `json:"eta"`
	Iterations int       `json:"iterations"`
	X          []float64 `json:"x"`
}

// SimOut is the response body of a KindSim query: the run-level
// measurements btsim prints. It deliberately excludes the kernel's
// wall-clock telemetry — everything here is a pure function of
// (request, seed), which is what makes cached replays byte-identical.
type SimOut struct {
	Config           SimQuery `json:"config"`
	Rounds           int      `json:"rounds"`
	Arrivals         int      `json:"arrivals"`
	Completions      int      `json:"completions"`
	Exchanges        int      `json:"exchanges"`
	SeedUploads      int      `json:"seedUploads"`
	Optimistic       int      `json:"optimistic"`
	Shakes           int      `json:"shakes"`
	Aborts           int      `json:"aborts"`
	MeanDownloadTime F64      `json:"meanDownloadTime"`
	MeanEfficiency   F64      `json:"meanEfficiency"`
	MeanPR           F64      `json:"meanPR"`
	EndTime          float64  `json:"endTime"`
	FinalEntropy     F64      `json:"finalEntropy"`
	FinalPopulation  F64      `json:"finalPopulation"`
	EventsFired      uint64   `json:"eventsFired"`
	EventsCancelled  uint64   `json:"eventsCancelled"`
}

// StabilityOut is the response body of a KindStability query: the
// Section 6 entropy-drift assessment of a simulated swarm, with the
// underlying run's measurements attached.
type StabilityOut struct {
	Initial F64    `json:"initialEntropy"`
	Final   F64    `json:"finalEntropy"`
	Trend   F64    `json:"trend"`
	Stable  bool   `json:"stable"`
	Points  int    `json:"points"`
	Sim     SimOut `json:"sim"`
}

// SteadyStateOut is the θ=0 closed-form Qiu–Srikant equilibrium attached
// to "qs" fluid responses so clients can compare trajectory tails against
// theory without re-deriving it.
type SteadyStateOut struct {
	Leechers          float64 `json:"leechers"`
	Seeds             float64 `json:"seeds"`
	DownloadTime      float64 `json:"downloadTime"`
	UploadConstrained bool    `json:"uploadConstrained"`
}

// FluidOut is the response body of a KindFluid query: the sampled
// trajectory plus the solver's deterministic step counters. Every field
// is a pure function of the canonicalized request — there is no seed
// dependence at all, which makes fluid the cheapest kind to cache.
type FluidOut struct {
	Params           FluidQuery      `json:"params"`
	Steps            int             `json:"steps"`
	Rejected         int             `json:"rejected"`
	FEvals           int             `json:"fevals"`
	T                []float64       `json:"t"`
	Leechers         []F64           `json:"leechers"`
	Seeds            []F64           `json:"seeds"`
	MeanDownloadTime F64             `json:"meanDownloadTime"`
	SteadyState      *SteadyStateOut `json:"steadyState,omitempty"`
	// FinalClasses is the chunk model's class vector at the horizon
	// (N_0..N_{K-1}, seeds); absent for the aggregate model.
	FinalClasses []F64 `json:"finalClasses,omitempty"`
}

// progress is the optional incremental sink of one evaluation: the
// stream endpoint's per-round and per-step records. The zero value (the
// cached path, the workers) observes nothing.
type progress struct {
	round sim.Observer                 // every simulated exchange round
	step  func(t float64, y []float64) // every accepted fluid solver step
}

// seedFree names the kinds whose evaluators never read req.Seed; only
// evalModel, the model shards and runSim do (TestSeedFreenessIsAProperty).
var seedFree = map[string]bool{KindEfficiency: true, KindFluid: true}

// evalKind is the one kind → evaluator switch; p is handed whatever the
// run can report while it is still running.
func evalKind(ctx context.Context, req *Request, p progress) (any, error) {
	switch req.Kind {
	case KindModel:
		return evalModel(ctx, req)
	case KindEfficiency:
		return evalEfficiency(ctx, req)
	case KindSim:
		res, err := runSim(ctx, req, p.round)
		if err != nil {
			return nil, err
		}
		return simOut(req, res), nil
	case KindStability:
		return evalStability(ctx, req, p.round)
	case KindFluid:
		return evalFluid(ctx, req, p.step)
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, req.Kind)
	}
}

// fluidGrid builds the evenly spaced sample grid of a canonicalized
// fluid query: n points spanning [0, horizon] with both endpoints
// pinned exactly (the last point is set to the horizon rather than
// computed, so float rounding can never push it out of the solver's
// interval).
func fluidGrid(horizon float64, n int) []float64 {
	grid := make([]float64, n)
	for i := range grid {
		grid[i] = horizon * float64(i) / float64(n-1)
	}
	grid[n-1] = horizon
	return grid
}

// evalFluid integrates the requested fluid model. The optional onStep
// hook receives every accepted solver step (the streaming path). The
// solver's divergence class maps to ErrBadRequest: a trajectory that
// blows up or cannot be error-controlled is a property of the requested
// parameters, not a server fault.
func evalFluid(ctx context.Context, req *Request, onStep func(t float64, y []float64)) (*FluidOut, error) {
	q := req.Fluid
	grid := fluidGrid(q.Horizon, q.Grid)
	opts := fluid.SolveOpts{RTol: q.RTol, ATol: q.ATol, OnStep: onStep}
	out := &FluidOut{Params: *q}
	switch q.Model {
	case FluidChunk:
		m, err := fluid.NewChunkModel(q.chunkParams())
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		tr, err := m.Solve(ctx, *q.X0, *q.Y0, q.Horizon, grid, opts)
		if err != nil {
			return nil, fluidErr(err)
		}
		out.Steps, out.Rejected, out.FEvals = tr.Steps, tr.Rejected, tr.FEvals
		out.T = tr.T
		out.Leechers = f64s(tr.Leechers)
		out.Seeds = f64s(tr.Seeds)
		out.FinalClasses = f64s(tr.Final)
		agg := &fluid.Trajectory{T: tr.T, Leechers: tr.Leechers, Seeds: tr.Seeds}
		out.MeanDownloadTime = F64(agg.MeanDownloadTime(*q.Lambda))
	default:
		p := q.qsParams()
		tr, sol, err := p.SolveAdaptive(ctx, *q.X0, *q.Y0, q.Horizon, grid, opts)
		if err != nil {
			return nil, fluidErr(err)
		}
		out.Steps, out.Rejected, out.FEvals = sol.Steps, sol.Rejected, sol.FEvals
		out.T = tr.T
		out.Leechers = f64s(tr.Leechers)
		out.Seeds = f64s(tr.Seeds)
		out.MeanDownloadTime = F64(tr.MeanDownloadTime(p.Lambda))
		if ss, err := p.ClosedFormSteadyState(); err == nil {
			out.SteadyState = &SteadyStateOut{
				Leechers: ss.Leechers, Seeds: ss.Seeds,
				DownloadTime: ss.DownloadTime, UploadConstrained: ss.UploadConstrained,
			}
		}
	}
	return out, nil
}

// fluidErr maps solver failures onto the transport error classes:
// divergence is the client's parameters, context errors pass through to
// become 503/504, anything else stays a 500.
func fluidErr(err error) error {
	if errors.Is(err, fluid.ErrDiverged) {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return err
}

// evalModel mirrors the btmodel CLI: same RNG derivation, so a served
// ensemble is the ensemble `btmodel -seed N` reports.
func evalModel(ctx context.Context, req *Request) (*ModelOut, error) {
	q := req.Model
	m, err := models.get(q)
	if err != nil {
		return nil, err
	}
	es, err := m.EnsembleCtx(ctx, modelRNG(req.Seed), q.Runs)
	if err != nil {
		return nil, err
	}
	return modelOut(q, es), nil
}

// modelRNG is the KindModel seed derivation, shared by the local
// evaluator and the distributed shard path — both must draw run i from
// the identical substream modelRNG(seed).At(i).
func modelRNG(seed uint64) *stats.RNG {
	return stats.NewRNG(seed, seed^0xB17)
}

// modelOut shapes ensemble aggregates into the response body; local and
// pool-merged ensembles go through this one function, so a distributed
// merge yields the identical envelope bytes.
func modelOut(q *ModelQuery, es core.EnsembleStats) *ModelOut {
	return &ModelOut{
		Params:     *q,
		Completion: summaryOut(es.CompletionSteps),
		Truncated:  es.Truncated,
		Phases: PhasesOut{
			Runs:               es.Phases.Runs,
			MeanBootstrap:      F64(es.Phases.MeanBootstrap),
			MeanEfficient:      F64(es.Phases.MeanEfficient),
			MeanLast:           F64(es.Phases.MeanLast),
			FracStuckBootstrap: F64(es.Phases.FracStuckBootstrap),
			FracLastPhase:      F64(es.Phases.FracLastPhase),
		},
		PotentialByPieces: f64s(es.PotentialByPieces),
		FirstPassage:      f64s(es.FirstPassage),
	}
}

// evalEfficiency mirrors btmodel's efficiency table: the same solver
// tolerance and iteration budget.
func evalEfficiency(ctx context.Context, req *Request) (*EfficiencyOut, error) {
	q := req.Efficiency
	res, err := core.SolveEfficiencyCtx(ctx, core.EfficiencyParams{K: q.K, PR: *q.PR}, 1e-9, 500000)
	if err != nil {
		return nil, err
	}
	return &EfficiencyOut{
		K: q.K, PR: *q.PR, Eta: res.Eta, Iterations: res.Iterations, X: res.X,
	}, nil
}

// runSim builds and runs the simulator for a canonicalized sim request,
// mirroring the btsim CLI's seeding. The optional observer receives
// per-round telemetry (the streaming path).
func runSim(ctx context.Context, req *Request, observer sim.Observer) (*sim.Result, error) {
	cfg := req.Sim.config(req.Seed)
	cfg.Observer = observer
	sw, err := sim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return sw.RunContext(ctx)
}

func simOut(req *Request, res *sim.Result) *SimOut {
	out := &SimOut{
		Config:           *req.Sim,
		Rounds:           res.Rounds(),
		Arrivals:         res.Arrivals(),
		Completions:      res.NumCompletions(),
		Exchanges:        res.Exchanges(),
		SeedUploads:      res.SeedUploads(),
		Optimistic:       res.OptimisticUploads(),
		Shakes:           res.Shakes(),
		Aborts:           res.Aborts(),
		MeanDownloadTime: F64(res.MeanDownloadTime()),
		MeanEfficiency:   F64(res.MeanEfficiency()),
		MeanPR:           F64(res.MeanPR()),
		EndTime:          res.EndTime,
		EventsFired:      res.EventsFired,
		FinalEntropy:     F64(math.NaN()),
		FinalPopulation:  F64(math.NaN()),
		// The swarm has no cancellable events; the field stays because the
		// sim corpus digests pin the response bytes.
		EventsCancelled: 0,
	}
	if n := res.EntropySeries.Len(); n > 0 {
		out.FinalEntropy = F64(res.EntropySeries.V[n-1])
		out.FinalPopulation = F64(res.PopulationSeries.V[n-1])
	}
	return out
}

// evalStability runs the simulator and applies the Section 6 criterion
// to the entropy series.
func evalStability(ctx context.Context, req *Request, observer sim.Observer) (*StabilityOut, error) {
	res, err := runSim(ctx, req, observer)
	if err != nil {
		return nil, err
	}
	as, err := core.AssessStability(res.EntropySeries.T, res.EntropySeries.V)
	if err != nil {
		// Too few rounds to assess — a property of the requested horizon,
		// so the client's error, not the server's.
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return &StabilityOut{
		Initial: F64(as.Initial),
		Final:   F64(as.Final),
		Trend:   F64(as.Trend),
		Stable:  as.Stable,
		Points:  res.EntropySeries.Len(),
		Sim:     *simOut(req, res),
	}, nil
}
