// Package serve is the repository's model/sim serving layer: a
// stdlib-only HTTP subsystem that turns the one-shot analytical chain
// (internal/core), the Section 5 efficiency model, the Section 6
// stability assessment, and the swarm simulator (internal/sim) into a
// long-running query service.
//
// The pipeline is the canonical shape of an inference-serving stack:
//
//		canonicalize → cache → admit → compute → (stream)
//
//	  - Requests carry a versioned schema over the paper's parameters
//	    (core.Params, sim.Config knobs, a seed). Normalization fills
//	    defaults and the canonical byte form is hashed into a content
//	    address, so semantically identical requests dedupe regardless of
//	    field order or explicit defaults.
//	  - Every evaluation is bit-deterministic in (request, seed), and the
//	    efficiency and fluid ones in the request alone, so results are
//	    cached under what their evaluator reads, and a cached response is
//	    byte for byte the one a recomputation would produce.
//	  - A singleflight layer collapses N concurrent identical requests
//	    into one computation; an admission gate (internal/par.Gate)
//	    bounds concurrent work and sheds overload with 429s.
//	  - Long simulator runs stream incremental per-round JSONL records
//	    (the internal/trace type-tagged envelope convention) over a
//	    chunked response instead of making the client wait for the end.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/sim"
)

// Version is the current request-schema version. Requests with v == 0
// are interpreted as the latest version; anything else must match.
const Version = 1

// Request kinds.
const (
	// KindModel samples a Monte-Carlo ensemble of the multiphased
	// download model (Section 3) and returns its aggregate curves.
	KindModel = "model"
	// KindEfficiency solves the Section 5 connection-migration model to
	// its steady state.
	KindEfficiency = "efficiency"
	// KindSim runs the discrete-event swarm simulator to its horizon and
	// returns run-level measurements.
	KindSim = "sim"
	// KindStability runs the simulator and applies the Section 6
	// entropy-drift stability criterion to the resulting series.
	KindStability = "stability"
	// KindFluid integrates a deterministic fluid model (the Qiu–Srikant
	// two-state aggregate or the Kesidis-style chunk-level system) with
	// the adaptive RK45 solver and returns the sampled trajectory.
	KindFluid = "fluid"
)

// kindSection names the one request section each kind reads; a request
// that fills any other is rejected.
var kindSection = map[string]string{
	KindModel:      "model",
	KindEfficiency: "efficiency",
	KindSim:        "sim",
	KindStability:  "sim",
	KindFluid:      "fluid",
}

// Serving-side resource caps: requests beyond these bounds are rejected
// at validation time rather than admitted and killed by the deadline.
const (
	maxPieces   = 2000
	maxRuns     = 20000
	maxNeighbor = 1000
	maxConns    = 100
	maxHorizon  = 20000
	maxInitial  = 20000
	// maxLambda bounds the arrivals drawn between two rounds, which the
	// deadline cannot interrupt (the context is polled once per round).
	maxLambda = 1000
	// Fluid caps: the sample grid bounds the response size, the chunk
	// piece count bounds the O(K²) derivative evaluation and the (K+1)²
	// usefulness table.
	maxFluidGrid = 4096
	maxFluidK    = 512
)

// ErrBadRequest tags every request-validation failure, so transports can
// map the whole class to a 400.
var ErrBadRequest = errors.New("serve: bad request")

// DecodeRequest reads one JSON request from r — unknown fields rejected —
// and canonicalizes it. It and DecodeBatch are the only request
// decoders, and both go through decodeNext: the replica's /v1/query and
// /v1/stream bodies, each /v1/batch item, and the gateway all do, so a
// malformed body is the same ErrBadRequest, with the same message, at
// every tier.
func DecodeRequest(r io.Reader) (*Request, error) {
	req := &Request{}
	if err := decodeNext(json.NewDecoder(r), req); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeNext reads dec's next value into the zero Request req, unknown
// fields rejected, and canonicalizes it: every 400 text a request gets
// is built here.
func decodeNext(dec *json.Decoder, req *Request) error {
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return req.Canonicalize()
}

// Request is the versioned query envelope. Exactly one parameter section
// (chosen by Kind) may be present; an omitted field means "use the
// default", which normalization makes explicit before hashing. Knobs
// whose zero value is itself a meaningful request (a seedless swarm, a
// zero optimistic-unchoke probability) are pointers, so "omitted" and
// "explicitly zero" stay distinguishable; for the rest, zero is outside
// the valid domain and doubles as the omitted marker.
type Request struct {
	// V is the schema version (0 = latest).
	V int `json:"v,omitempty"`
	// Kind selects the computation: model, efficiency, sim, stability,
	// fluid.
	Kind string `json:"kind"`
	// Seed is the root RNG seed. Responses are a pure function of the
	// canonicalized (request, seed) pair.
	Seed uint64 `json:"seed,omitempty"`

	Model      *ModelQuery      `json:"model,omitempty"`
	Efficiency *EfficiencyQuery `json:"efficiency,omitempty"`
	Sim        *SimQuery        `json:"sim,omitempty"`
	Fluid      *FluidQuery      `json:"fluid,omitempty"`
}

// ModelQuery parameterizes a KindModel request with the paper's notation
// (core.Params plus the ensemble size). Zero fields take the btmodel CLI
// defaults.
type ModelQuery struct {
	B int `json:"b,omitempty"`
	K int `json:"k,omitempty"`
	S int `json:"s,omitempty"`
	// The probability knobs admit 0 as a legitimate value, so they are
	// pointers: nil = default, &0 = an explicit zero probability.
	PInit *float64 `json:"pInit,omitempty"`
	Alpha *float64 `json:"alpha,omitempty"`
	Gamma *float64 `json:"gamma,omitempty"`
	PR    *float64 `json:"pr,omitempty"`
	PN    *float64 `json:"pn,omitempty"`
	Runs  int      `json:"runs,omitempty"`
}

// EfficiencyQuery parameterizes a KindEfficiency request. An omitted PR
// is resolved to core.CalibratedPR(K) during normalization, so
// "calibrated" and the explicit calibrated value share a cache key; an
// explicit PR — zero included — is honored as given.
type EfficiencyQuery struct {
	K  int      `json:"k,omitempty"`
	PR *float64 `json:"pr,omitempty"`
}

// SimQuery exposes the sim.Config knobs that are safe to serve. Omitted
// fields take sim.DefaultConfig values. Knobs where zero is a valid
// request that differs from the default (no arrivals, no initial peers,
// a seedless swarm, no optimistic unchoke) are pointers; the remaining
// fields either reject zero outright or default to it.
type SimQuery struct {
	Pieces               int      `json:"pieces,omitempty"`
	MaxConns             int      `json:"maxConns,omitempty"`
	NeighborSet          int      `json:"neighborSet,omitempty"`
	ArrivalRate          *float64 `json:"lambda,omitempty"`
	InitialPeers         *int     `json:"initialPeers,omitempty"`
	InitialSkew          float64  `json:"initialSkew,omitempty"`
	Seeds                *int     `json:"seeds,omitempty"`
	SeedUpload           *int     `json:"seedUpload,omitempty"`
	SuperSeed            bool     `json:"superSeed,omitempty"`
	OptimisticProb       *float64 `json:"optimisticProb,omitempty"`
	AbortRate            float64  `json:"abortRate,omitempty"`
	SeedLingerRounds     int      `json:"seedLingerRounds,omitempty"`
	RandomFirst          bool     `json:"randomFirst,omitempty"`
	ShakeThreshold       float64  `json:"shakeThreshold,omitempty"`
	TrackerRefreshRounds int      `json:"trackerRefreshRounds,omitempty"`
	Horizon              float64  `json:"horizon,omitempty"`
	MaxPeers             int      `json:"maxPeers,omitempty"`
}

// Fluid model selectors.
const (
	// FluidQS is the Qiu–Srikant two-state aggregate model.
	FluidQS = "qs"
	// FluidChunk is the chunk-level epidemiological model (per-piece-count
	// population vector).
	FluidChunk = "chunk"
)

// FluidQuery parameterizes a KindFluid request: which fluid model to
// integrate, its rate parameters, the initial state, and the solver
// knobs. Rates where zero is a legitimate request distinct from the
// default (no arrivals, no aborts, seeds that never leave, completions
// that never seed) are pointers; the remaining fields use zero as the
// omitted marker. The chunk-only knobs (k, s, seedUpload, seedFraction)
// must be absent when model is "qs", so the two models never alias a
// cache key.
type FluidQuery struct {
	// Model selects the system: "qs" (default) or "chunk".
	Model string `json:"model,omitempty"`
	// Lambda is the leecher arrival rate (default 2; explicit 0 = drain).
	Lambda *float64 `json:"lambda,omitempty"`
	// Theta is the leecher abort rate (default 0).
	Theta *float64 `json:"theta,omitempty"`
	// C is the per-peer download capacity in files per unit time
	// (default 1).
	C float64 `json:"c,omitempty"`
	// Mu is the per-peer upload capacity (default 0.5).
	Mu float64 `json:"mu,omitempty"`
	// Eta is the leecher upload effectiveness in [0, 1] (default 1).
	Eta *float64 `json:"eta,omitempty"`
	// Gamma is the seed departure rate (default 1; explicit 0 keeps seeds
	// forever, chunk model only — the QS model requires Gamma > 0).
	Gamma *float64 `json:"gamma,omitempty"`
	// X0 and Y0 are the initial leecher and seed populations (defaults 0
	// and 1; explicit zeros are meaningful).
	X0 *float64 `json:"x0,omitempty"`
	Y0 *float64 `json:"y0,omitempty"`
	// Horizon is the integration end time (default 400).
	Horizon float64 `json:"horizon,omitempty"`
	// Grid is the number of evenly spaced dense-output samples, endpoints
	// included (default 200).
	Grid int `json:"grid,omitempty"`
	// RTol and ATol are the solver tolerances (defaults 1e-6 and 1e-9).
	RTol float64 `json:"rtol,omitempty"`
	ATol float64 `json:"atol,omitempty"`

	// K is the chunk model's piece count (default 40).
	K int `json:"k,omitempty"`
	// S is the chunk model's neighbor-set size (default 5).
	S int `json:"s,omitempty"`
	// SeedUpload is the chunk model's per-seed upload rate in pieces per
	// unit time; omitted (0) defaults to Mu·K.
	SeedUpload float64 `json:"seedUpload,omitempty"`
	// SeedFraction is the share of completing leechers that stay to seed
	// (default 1; explicit 0 = completions leave immediately).
	SeedFraction *float64 `json:"seedFraction,omitempty"`
}

// fillF64 / fillInt implement "omitted means default" for pointer
// knobs: a nil pointer takes the default, an explicit value — zero
// included — is kept.
func fillF64(p **float64, def float64) {
	if *p == nil {
		v := def
		*p = &v
	}
}

func fillInt(p **int, def int) {
	if *p == nil {
		v := def
		*p = &v
	}
}

// Canonicalize normalizes the request in place — version resolution,
// default filling, derived-value resolution — and validates it against
// both the model/simulator domains and the serving caps. After a
// successful call the request is in canonical form: two requests that
// mean the same computation are field-for-field identical.
func (r *Request) Canonicalize() error {
	if r.V == 0 {
		r.V = Version
	}
	if r.V != Version {
		return fmt.Errorf("%w: unsupported schema version %d (this server speaks v%d)", ErrBadRequest, r.V, Version)
	}
	section, ok := kindSection[r.Kind]
	switch {
	case r.Kind == "":
		return fmt.Errorf("%w: missing kind", ErrBadRequest)
	case !ok:
		return fmt.Errorf("%w: unknown kind %q", ErrBadRequest, r.Kind)
	}
	filled := [...]bool{r.Model != nil, r.Efficiency != nil, r.Sim != nil, r.Fluid != nil}
	for i, name := range [...]string{"model", "efficiency", "sim", "fluid"} {
		if filled[i] && name != section {
			return fmt.Errorf("%w: kind %q accepts only the %q section", ErrBadRequest, r.Kind, section)
		}
	}
	switch section {
	case "model":
		if r.Model == nil {
			r.Model = &ModelQuery{}
		}
		return r.Model.normalize()
	case "efficiency":
		if r.Efficiency == nil {
			r.Efficiency = &EfficiencyQuery{}
		}
		return r.Efficiency.normalize()
	case "sim":
		if r.Sim == nil {
			r.Sim = &SimQuery{}
		}
		return r.Sim.normalize(r.Seed)
	default: // "fluid"
		if r.Fluid == nil {
			r.Fluid = &FluidQuery{}
		}
		return r.Fluid.normalize()
	}
}

func (q *ModelQuery) normalize() error {
	def := core.DefaultParams(40)
	if q.B == 0 {
		q.B = def.B
	}
	if q.K == 0 {
		q.K = def.K
	}
	if q.S == 0 {
		q.S = def.S
	}
	fillF64(&q.PInit, def.PInit)
	fillF64(&q.Alpha, def.Alpha)
	fillF64(&q.Gamma, def.Gamma)
	fillF64(&q.PR, def.PR)
	fillF64(&q.PN, def.PN)
	if q.Runs == 0 {
		q.Runs = 200
	}
	// Bounds come before q.params().Validate, which checks the model's
	// domain only: a request past serve's caps fails naming the cap.
	switch {
	case q.B < 1 || q.B > maxPieces:
		return fmt.Errorf("%w: b = %d outside [1, %d]", ErrBadRequest, q.B, maxPieces)
	case q.Runs < 1 || q.Runs > maxRuns:
		return fmt.Errorf("%w: runs = %d outside [1, %d]", ErrBadRequest, q.Runs, maxRuns)
	case q.S < 1 || q.S > maxNeighbor:
		return fmt.Errorf("%w: s = %d outside [1, %d]", ErrBadRequest, q.S, maxNeighbor)
	case q.K < 1 || q.K > maxConns:
		return fmt.Errorf("%w: k = %d outside [1, %d]", ErrBadRequest, q.K, maxConns)
	}
	if err := q.params().Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

// params converts a canonicalized query to core.Params (uniform phi).
func (q *ModelQuery) params() core.Params {
	return core.Params{
		B: q.B, K: q.K, S: q.S,
		PInit: *q.PInit, Alpha: *q.Alpha, Gamma: *q.Gamma, PR: *q.PR, PN: *q.PN,
		Phi: core.UniformPhi(q.B),
	}
}

func (q *EfficiencyQuery) normalize() error {
	if q.K == 0 {
		q.K = 7
	}
	if q.K < 1 || q.K > maxConns {
		return fmt.Errorf("%w: k = %d outside [1, %d]", ErrBadRequest, q.K, maxConns)
	}
	if q.PR == nil {
		pr := core.CalibratedPR(q.K)
		q.PR = &pr
	}
	if err := (core.EfficiencyParams{K: q.K, PR: *q.PR}).Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

func (q *SimQuery) normalize(seed uint64) error {
	def := sim.DefaultConfig()
	if q.Pieces == 0 {
		q.Pieces = def.Pieces
	}
	if q.MaxConns == 0 {
		q.MaxConns = def.MaxConns
	}
	if q.NeighborSet == 0 {
		q.NeighborSet = def.NeighborSet
	}
	fillF64(&q.ArrivalRate, def.ArrivalRate)
	fillInt(&q.InitialPeers, def.InitialPeers)
	fillInt(&q.Seeds, def.Seeds)
	fillInt(&q.SeedUpload, def.SeedUpload)
	fillF64(&q.OptimisticProb, def.OptimisticProb)
	if q.TrackerRefreshRounds == 0 {
		q.TrackerRefreshRounds = def.TrackerRefreshRounds
	}
	if q.Horizon == 0 {
		q.Horizon = def.Horizon
	}
	switch {
	case q.Pieces > maxPieces:
		return fmt.Errorf("%w: pieces = %d exceeds serving cap %d", ErrBadRequest, q.Pieces, maxPieces)
	case q.Horizon > maxHorizon:
		return fmt.Errorf("%w: horizon = %g exceeds serving cap %d", ErrBadRequest, q.Horizon, maxHorizon)
	case *q.ArrivalRate > maxLambda:
		return fmt.Errorf("%w: lambda = %g exceeds serving cap %d", ErrBadRequest, *q.ArrivalRate, maxLambda)
	case *q.InitialPeers > maxInitial:
		return fmt.Errorf("%w: initialPeers = %d exceeds serving cap %d", ErrBadRequest, *q.InitialPeers, maxInitial)
	case q.NeighborSet > maxNeighbor:
		return fmt.Errorf("%w: neighborSet = %d exceeds serving cap %d", ErrBadRequest, q.NeighborSet, maxNeighbor)
	case q.MaxConns > maxConns:
		return fmt.Errorf("%w: maxConns = %d exceeds serving cap %d", ErrBadRequest, q.MaxConns, maxConns)
	}
	if err := q.config(seed).Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

// config converts a canonicalized query to a sim.Config, mirroring the
// btsim CLI's seeding convention so served results line up with the
// command line.
func (q *SimQuery) config(seed uint64) sim.Config {
	strategy := sim.RarestFirst
	if q.RandomFirst {
		strategy = sim.RandomFirst
	}
	return sim.Config{
		Pieces:               q.Pieces,
		MaxConns:             q.MaxConns,
		NeighborSet:          q.NeighborSet,
		ArrivalRate:          *q.ArrivalRate,
		InitialPeers:         *q.InitialPeers,
		InitialSkew:          q.InitialSkew,
		Seeds:                *q.Seeds,
		SeedUpload:           *q.SeedUpload,
		SuperSeed:            q.SuperSeed,
		OptimisticProb:       *q.OptimisticProb,
		AbortRate:            q.AbortRate,
		SeedLingerRounds:     q.SeedLingerRounds,
		PieceSelection:       strategy,
		ShakeThreshold:       q.ShakeThreshold,
		TrackerRefreshRounds: q.TrackerRefreshRounds,
		Horizon:              q.Horizon,
		Seed1:                seed,
		Seed2:                seed ^ 0xB751,
		MaxPeers:             q.MaxPeers,
	}
}

func (q *FluidQuery) normalize() error {
	if q.Model == "" {
		q.Model = FluidQS
	}
	if q.Model != FluidQS && q.Model != FluidChunk {
		return fmt.Errorf("%w: fluid model %q (want %q or %q)", ErrBadRequest, q.Model, FluidQS, FluidChunk)
	}
	if q.Model == FluidQS {
		// Chunk-only knobs must be absent, so "qs" requests with stray
		// chunk parameters fail loudly instead of silently aliasing the
		// cache key of the knob-free request.
		switch {
		case q.K != 0:
			return fmt.Errorf("%w: k applies only to the %q fluid model", ErrBadRequest, FluidChunk)
		case q.S != 0:
			return fmt.Errorf("%w: s applies only to the %q fluid model", ErrBadRequest, FluidChunk)
		case q.SeedUpload != 0:
			return fmt.Errorf("%w: seedUpload applies only to the %q fluid model", ErrBadRequest, FluidChunk)
		case q.SeedFraction != nil:
			return fmt.Errorf("%w: seedFraction applies only to the %q fluid model", ErrBadRequest, FluidChunk)
		}
	}
	fillF64(&q.Lambda, 2)
	fillF64(&q.Theta, 0)
	fillF64(&q.Eta, 1)
	fillF64(&q.Gamma, 1)
	fillF64(&q.X0, 0)
	fillF64(&q.Y0, 1)
	if q.C == 0 {
		q.C = 1
	}
	if q.Mu == 0 {
		q.Mu = 0.5
	}
	if q.Horizon == 0 {
		q.Horizon = 400
	}
	if q.Grid == 0 {
		q.Grid = 200
	}
	if q.RTol == 0 {
		q.RTol = 1e-6
	}
	if q.ATol == 0 {
		q.ATol = 1e-9
	}
	switch {
	case math.IsNaN(q.Horizon) || q.Horizon < 0 || q.Horizon > maxHorizon:
		return fmt.Errorf("%w: horizon = %g outside [0, %d]", ErrBadRequest, q.Horizon, maxHorizon)
	case q.Grid < 2 || q.Grid > maxFluidGrid:
		return fmt.Errorf("%w: grid = %d outside [2, %d]", ErrBadRequest, q.Grid, maxFluidGrid)
	case math.IsNaN(q.RTol) || q.RTol < 1e-12 || q.RTol > 1:
		return fmt.Errorf("%w: rtol = %g outside [1e-12, 1]", ErrBadRequest, q.RTol)
	case math.IsNaN(q.ATol) || q.ATol < 1e-15 || q.ATol > 1:
		return fmt.Errorf("%w: atol = %g outside [1e-15, 1]", ErrBadRequest, q.ATol)
	case math.IsNaN(*q.X0) || math.IsInf(*q.X0, 0) || *q.X0 < 0 || *q.X0 > 1e9:
		return fmt.Errorf("%w: x0 = %g outside [0, 1e9]", ErrBadRequest, *q.X0)
	case math.IsNaN(*q.Y0) || math.IsInf(*q.Y0, 0) || *q.Y0 < 0 || *q.Y0 > 1e9:
		return fmt.Errorf("%w: y0 = %g outside [0, 1e9]", ErrBadRequest, *q.Y0)
	}
	if q.Model == FluidChunk {
		if q.K == 0 {
			q.K = 40
		}
		if q.S == 0 {
			q.S = 5
		}
		fillF64(&q.SeedFraction, 1)
		switch {
		case q.K < 1 || q.K > maxFluidK:
			return fmt.Errorf("%w: k = %d outside [1, %d]", ErrBadRequest, q.K, maxFluidK)
		case q.S < 1 || q.S > maxNeighbor:
			return fmt.Errorf("%w: s = %d outside [1, %d]", ErrBadRequest, q.S, maxNeighbor)
		}
		if err := q.chunkParams().Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return nil
	}
	if err := q.qsParams().Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

// qsParams converts a canonicalized "qs" query to fluid.QSParams.
func (q *FluidQuery) qsParams() fluid.QSParams {
	return fluid.QSParams{
		Lambda: *q.Lambda, Theta: *q.Theta, C: q.C, Mu: q.Mu, Eta: *q.Eta, Gamma: *q.Gamma,
	}
}

// chunkParams converts a canonicalized "chunk" query to
// fluid.ChunkParams.
func (q *FluidQuery) chunkParams() fluid.ChunkParams {
	return fluid.ChunkParams{
		K: q.K, S: q.S,
		Lambda: *q.Lambda, Theta: *q.Theta, C: q.C, Mu: q.Mu, Eta: *q.Eta, Gamma: *q.Gamma,
		SeedUpload: q.SeedUpload, SeedFraction: *q.SeedFraction,
	}
}

// Canonical renders the canonicalized request as its canonical byte
// form: a fixed field order, lowercase keys, shortest-round-trip float
// formatting. The request must have passed Canonicalize first.
func (r *Request) Canonical() []byte { return r.appendCanonical(make([]byte, 0, 256)) }

// appendCanonical appends Canonical() to b: with b on the caller's
// stack, hashing the form allocates nothing.
func (r *Request) appendCanonical(b []byte) []byte {
	b = strconv.AppendInt(append(b, 'v'), int64(r.V), 10)
	b = append(append(b, ";kind="...), r.Kind...)
	b = strconv.AppendUint(append(b, ";seed="...), r.Seed, 10)
	name := func(k string) { b = append(append(append(b, ';'), k...), '=') }
	putInt := func(k string, v int) { name(k); b = strconv.AppendInt(b, int64(v), 10) }
	putFloat := func(k string, v float64) { name(k); b = strconv.AppendFloat(b, v, 'g', -1, 64) }
	putBool := func(k string, v bool) { name(k); b = strconv.AppendBool(b, v) }
	switch {
	case r.Model != nil:
		q := r.Model
		putInt("b", q.B)
		putInt("k", q.K)
		putInt("s", q.S)
		putFloat("pinit", *q.PInit)
		putFloat("alpha", *q.Alpha)
		putFloat("gamma", *q.Gamma)
		putFloat("pr", *q.PR)
		putFloat("pn", *q.PN)
		putInt("runs", q.Runs)
	case r.Efficiency != nil:
		q := r.Efficiency
		putInt("k", q.K)
		putFloat("pr", *q.PR)
	case r.Fluid != nil:
		q := r.Fluid
		name("model")
		b = append(b, q.Model...)
		putFloat("lambda", *q.Lambda)
		putFloat("theta", *q.Theta)
		putFloat("c", q.C)
		putFloat("mu", q.Mu)
		putFloat("eta", *q.Eta)
		putFloat("gamma", *q.Gamma)
		putFloat("x0", *q.X0)
		putFloat("y0", *q.Y0)
		putFloat("horizon", q.Horizon)
		putInt("grid", q.Grid)
		putFloat("rtol", q.RTol)
		putFloat("atol", q.ATol)
		if q.Model == FluidChunk {
			putInt("k", q.K)
			putInt("s", q.S)
			putFloat("seedup", q.SeedUpload)
			putFloat("seedfrac", *q.SeedFraction)
		}
	case r.Sim != nil:
		q := r.Sim
		putInt("pieces", q.Pieces)
		putInt("conns", q.MaxConns)
		putInt("nbr", q.NeighborSet)
		putFloat("lambda", *q.ArrivalRate)
		putInt("initial", *q.InitialPeers)
		putFloat("skew", q.InitialSkew)
		putInt("seeds", *q.Seeds)
		putInt("seedup", *q.SeedUpload)
		putBool("super", q.SuperSeed)
		putFloat("opt", *q.OptimisticProb)
		putFloat("abort", q.AbortRate)
		putInt("linger", q.SeedLingerRounds)
		putBool("random", q.RandomFirst)
		putFloat("shake", q.ShakeThreshold)
		putInt("refresh", q.TrackerRefreshRounds)
		putFloat("horizon", q.Horizon)
		putInt("maxpeers", q.MaxPeers)
	}
	return b
}

// Key hashes the canonical byte form into the request's content
// address: the hex SHA-256 of Canonical().
func (r *Request) Key() string {
	var buf [256]byte // a longer form grows onto the heap
	return hexSHA256(r.appendCanonical(buf[:0]))
}

func hexSHA256(b []byte) string {
	sum := sha256.Sum256(b)
	var h [2 * sha256.Size]byte // on the stack: the string is the one allocation
	hex.Encode(h[:], sum[:])
	return string(h[:])
}

// keyed is a canonicalized request with its two addresses, hashed once:
// key is Key(), what the envelope and X-Cache-Key report, and ckey is
// the compute key the cache and the singleflight hold its result under;
// for a seedFree kind, the hash of Canonical() with its seed field cut
// out (a section field always follows it).
type keyed struct {
	req       *Request
	key, ckey string
}

func keyOf(req *Request) keyed {
	var buf [256]byte
	c := req.appendCanonical(buf[:0])
	key := hexSHA256(c)
	if !seedFree[req.Kind] {
		return keyed{req, key, key}
	}
	i := bytes.Index(c, []byte(";seed="))
	j := i + 1 + bytes.IndexByte(c[i+1:], ';')
	return keyed{req, key, hexSHA256(append(c[:i], c[j:]...))}
}
