package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/par"
	"repro/internal/sim"
)

// maxBodyBytes caps request bodies; every valid query fits in a few
// hundred bytes.
const maxBodyBytes = 1 << 20

// Config configures a Server. Zero values take the defaults noted on
// each field.
type Config struct {
	// Registry receives the serving metrics (nil = a private one, read
	// only through the server's own /metrics).
	Registry *obs.Registry
	// Logger receives request-level events (nil = slog.Default()).
	Logger *slog.Logger
	// CacheSize is the LRU capacity in entries (default 256). Entries
	// never expire: results are pure functions of the request, so
	// staleness is impossible, and the capacity bounds memory.
	CacheSize int
	// Workers bounds concurrently computing requests (default 4).
	Workers int
	// Queue bounds requests waiting for a worker; beyond Workers+Queue
	// the server sheds load with 429 (default 16; negative = no waiting
	// room, admit-or-shed).
	Queue int
	// RequestTimeout is the per-request compute deadline (default 60s).
	RequestTimeout time.Duration
	// Evaluator overrides the computation behind the pipeline (default:
	// local evaluation). PoolEvaluator plugs a dist worker pool in here;
	// the cache, singleflight, and admission layers are unaffected —
	// determinism guarantees the evaluator's provenance is unobservable
	// in the response bytes.
	Evaluator func(ctx context.Context, req *Request) (any, error)
	// Tracer records per-request span trees (ingress → cache →
	// singleflight → gate → eval, plus whatever the evaluator adds
	// downstream). Nil disables tracing at zero cost.
	Tracer *trace.Tracer
}

// Server is the serving subsystem: an http.Handler implementing the
// canonicalize → cache → admit → compute pipeline over the model and
// simulator evaluators. Construct with New; register Handler on any
// http.Server; call Close when the listener has drained.
type Server struct {
	cfg     Config
	logger  *slog.Logger
	mux     *http.ServeMux
	cache   *Cache
	flights *flightGroup
	gate    *par.Gate

	// baseCtx parents every computation; Close cancels it so a forced
	// shutdown aborts in-flight evaluation loops cooperatively.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	closeOnce  sync.Once

	// eval is the computation behind the pipeline; a field so tests can
	// substitute slow or counting evaluators.
	eval func(ctx context.Context, req *Request) (any, error)

	// tracer is nil when tracing is off; every span call below is then a
	// zero-allocation no-op.
	tracer *trace.Tracer

	requests, shed, computations, failures *obs.Counter
	streamRounds                           *obs.Counter
	fluidRequests, fluidSteps              *obs.Counter
	batchRequests, batchItems, batchBad    *obs.Counter
	latency                                *obs.Histogram
	// evalMs tracks evaluator time alone (admission wait excluded): the
	// distribution Retry-After derivation needs.
	evalMs *obs.Histogram
}

// New builds a Server from cfg, applying defaults and wiring metrics.
func New(cfg Config) *Server {
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	switch {
	case cfg.Queue == 0:
		cfg.Queue = 16
	case cfg.Queue < 0:
		cfg.Queue = 0
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Evaluator == nil {
		cfg.Evaluator = Evaluate
	}
	reg := cfg.Registry
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		logger:     cfg.Logger,
		mux:        http.NewServeMux(),
		cache:      NewCache(cfg.CacheSize, 0),
		flights:    &flightGroup{},
		gate:       par.NewGate(cfg.Workers, cfg.Queue),
		baseCtx:    ctx,
		baseCancel: cancel,
		eval:       cfg.Evaluator,
		tracer:     cfg.Tracer,

		requests:      reg.Counter("serve.requests"),
		shed:          reg.Counter("serve.shed"),
		computations:  reg.Counter("serve.computations"),
		failures:      reg.Counter("serve.failures"),
		streamRounds:  reg.Counter("serve.stream_rounds"),
		fluidRequests: reg.Counter("serve.fluid.requests"),
		fluidSteps:    reg.Counter("serve.fluid.stream_steps"),
		batchRequests: reg.Counter("serve.batch.requests"),
		batchItems:    reg.Counter("serve.batch.items"),
		batchBad:      reg.Counter("serve.batch.item_errors"),
		latency:       reg.Histogram("serve.latency_ms"),
		evalMs:        reg.Histogram("serve.eval_ms"),
	}
	s.cache.Instrument(reg, "serve.cache")
	s.gate.Instrument(reg, "serve")
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler directly, so a Server can be passed
// to httptest and http.Server alike.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close cancels the server's base context, cooperatively aborting any
// computation still in flight. Call it after the HTTP listener has
// drained (http.Server.Shutdown); the drain itself waits for in-flight
// handlers, so under a graceful stop Close finds nothing to abort.
func (s *Server) Close() { s.closeOnce.Do(s.baseCancel) }

// Response is the /v1/query envelope: the canonicalized request's
// identity plus the kind-specific result. The whole envelope is a pure
// function of (request, seed); the cache holds only the result's bytes.
type Response struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	Seed uint64 `json:"seed"`
	// Key is the request's content address, Request.Key (hex SHA-256 of
	// the canonical request form, seed included).
	Key    string `json:"key"`
	Result any    `json:"result"`
}

type errorBody struct {
	Error string `json:"error"`
}

// answer is one resolved request: the marshaled result and where it
// came from — "hit", "miss" (computed here) or "shared" (another
// flight's result) — or the error that becomes its status.
type answer struct {
	result []byte
	src    string
	err    error
}

// handleQuery answers one request: the cached path, run as a batch of
// one.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	// Latency is observed on every exit — 400s, sheds, timeouts included.
	// Success-only observation would bias the histogram toward fast
	// requests, hiding exactly the slow tail (timeouts) it exists to show.
	defer s.observeLatency(time.Now())
	k, ok := s.decode(w, r)
	if !ok {
		return
	}
	w.Header().Set("X-Cache-Key", k.key)
	tctx, root := s.rootSpan(w, r, k.key, "/v1/query")
	defer root.End()
	root.Annotate("kind", k.req.Kind)
	answers := s.resolve(tctx, []keyed{k})
	if answers == nil {
		return
	}
	if a := answers[0]; a.err != nil {
		s.writeError(w, r, a.err)
	} else {
		w.Header().Set("X-Cache", a.src)
		w.Header().Set("Content-Type", "application/json")
		bw := LineWriter(w)
		writeEnvelope(bw, &k, a.result)
		_ = bw.WriteByte('\n')
		_ = bw.Flush() // a client that hung up loses only its own reply
		PutLineWriter(bw)
	}
}

// decode is the preamble /v1/query and /v1/stream share: read, parse and
// canonicalize the body — writing the 400 itself on failure — and hash
// the key.
func (s *Server) decode(w http.ResponseWriter, r *http.Request) (keyed, bool) {
	req, err := DecodeRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.writeError(w, r, err)
		return keyed{}, false
	}
	if req.Kind == KindFluid {
		s.fluidRequests.Inc()
	}
	return keyOf(req), true
}

// rootSpan opens the request's root span and announces its trace. A
// request arriving from the gateway tier carries X-Trace-Id (and
// optionally X-Parent-Span): the replica adopts that identity, so its
// ingress/eval spans stitch into the gateway's trace instead of minting
// a parallel one. Direct requests get the deterministic (content
// address, ingress sequence) ID.
func (s *Server) rootSpan(w http.ResponseWriter, r *http.Request, key, path string) (context.Context, *trace.Span) {
	if s.tracer == nil {
		return r.Context(), nil
	}
	var ctx context.Context
	var root *trace.Span
	if id := r.Header.Get("X-Trace-Id"); id != "" {
		ctx, root = trace.Start(trace.Bind(r.Context(), s.tracer, s.tracer.Proc(), id, r.Header.Get("X-Parent-Span")), "ingress")
	} else {
		ctx, root = s.tracer.Root(r.Context(), key, "ingress")
	}
	root.Annotate("path", path)
	w.Header().Set("X-Trace-Id", root.TraceID())
	return ctx, root
}

// resolve is the one cached request path: /v1/query runs it over a
// single request, /v1/batch over its unique keys. The cache is probed
// inline, and only the misses fan out — at most Workers at a time, so a
// cold batch waits for its own items instead of shedding them against
// each other, and a 429 means other traffic holds the gate. A request's
// failure is in its answer; nil answers mean the caller went away before
// every miss was started, and nobody is left to read them.
func (s *Server) resolve(tctx context.Context, reqs []keyed) []answer {
	out := make([]answer, len(reqs))
	var misses []int
	for i, k := range reqs {
		_, csp := trace.Start(tctx, "cache")
		if result, ok := s.cache.Get(k.ckey); ok {
			csp.Annotate("outcome", "hit")
			out[i] = answer{result: result, src: "hit"}
		} else {
			csp.Annotate("outcome", "miss")
			misses = append(misses, i)
		}
		csp.End()
	}
	// compute never fails the fan-out, so Map's only error is tctx ending.
	if _, err := par.Map(tctx, len(misses), s.cfg.Workers, func(j int) (struct{}, error) {
		i := misses[j]
		out[i] = s.compute(tctx, reqs[i])
		return struct{}{}, nil
	}); err != nil {
		return nil
	}
	return out
}

// compute resolves one cache miss: concurrent requests with one compute
// key collapse into a single flight whose leader is admitted, evaluates,
// encodes the result and fills the cache.
func (s *Server) compute(tctx context.Context, k keyed) answer {
	sfctx, fsp := trace.Start(tctx, "singleflight")
	result, shared, err := s.flights.Do(k.ckey, func() ([]byte, error) {
		// The flight leader acquires admission for the whole flight: N
		// concurrent identical requests consume one worker slot, and a
		// saturation rejection propagates to every waiter. It computes
		// under the server's lifetime — deliberately not its own
		// connection's context, so one client disconnecting cannot starve
		// the followers sharing its flight — with the trace binding
		// transplanted across so downstream spans (pool shards, worker
		// evals) still stitch into this request's trace.
		result, err := s.admit(trace.Transplant(s.baseCtx, sfctx), k.req, s.eval)
		if err != nil {
			return nil, err
		}
		return json.Marshal(result)
	})
	if shared {
		fsp.Annotate("role", "follower")
	} else {
		fsp.Annotate("role", "leader")
	}
	fsp.End()
	switch {
	case err != nil:
		return answer{err: err}
	case shared:
		return answer{result: result, src: "shared"}
	}
	s.cache.Put(k.ckey, result)
	return answer{result: result, src: "miss"}
}

// admit is the one admit-and-compute step, shared by the cached path
// and the streams: take a gate slot, bound the run by the request
// deadline on top of ctx, count and time it, and run eval under an eval
// span with the CPU samples labelled.
func (s *Server) admit(ctx context.Context, req *Request, eval func(context.Context, *Request) (any, error)) (any, error) {
	_, gsp := trace.Start(ctx, "gate")
	release, err := s.gate.Acquire(s.baseCtx)
	gsp.End()
	if err != nil {
		return nil, err
	}
	defer release()
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	s.computations.Inc()
	start := time.Now()
	defer func() { s.evalMs.Observe(obs.Ms(time.Since(start))) }()
	ectx, esp := trace.Start(ctx, "eval")
	defer esp.End()
	if esp == nil {
		return eval(ectx, req)
	}
	var result any
	// Goroutine labels attribute CPU samples to (kind, trace).
	pprof.Do(ectx, pprof.Labels("serve.kind", req.Kind, "serve.trace", esp.TraceID()), func(pctx context.Context) {
		result, err = eval(pctx, req)
	})
	return result, err
}

// roundRecord is one per-round streaming line: the internal/trace
// type-tagged envelope convention ({"type": ...} discriminator) applied
// to the simulator's round telemetry.
type roundRecord struct {
	Type        string  `json:"type"` // "round"
	Time        float64 `json:"t"`
	Round       int     `json:"round"`
	Leechers    int     `json:"leechers"`
	Seeds       int     `json:"seeds"`
	Arrivals    int     `json:"arrivals"`
	Exchanges   int     `json:"exchanges"`
	Completions int     `json:"completions"`
	Entropy     F64     `json:"entropy"`
	Efficiency  F64     `json:"efficiency"`
	PR          F64     `json:"pr"`
}

// fluidStepRecord is one per-accepted-step streaming line of a fluid
// integration.
type fluidStepRecord struct {
	Type     string  `json:"type"` // "step"
	Time     float64 `json:"t"`
	Leechers F64     `json:"leechers"`
	Seeds    F64     `json:"seeds"`
}

// streamSink forwards a run's rounds and steps to the chunked response
// as they happen.
type streamSink struct {
	rc            *http.ResponseController
	enc           *json.Encoder
	rounds, steps *obs.Counter
	chunkK        int // the chunk fluid model's piece count; 0 for every other run
	err           error
}

// emit writes one counted record and flushes it.
func (o *streamSink) emit(n *obs.Counter, rec any) {
	if o.err != nil {
		return // client is gone; the context abort stops the run shortly
	}
	n.Inc()
	o.err = o.enc.Encode(rec)
	_ = o.rc.Flush() // best effort: a writer that cannot flush still streams
}

func (o *streamSink) ObserveRound(rs sim.RoundStats) {
	o.emit(o.rounds, roundRecord{
		Type: "round", Time: rs.Time, Round: rs.Round,
		Leechers: rs.Leechers, Seeds: rs.Seeds,
		Arrivals: rs.Arrivals, Exchanges: rs.Exchanges, Completions: rs.Completions,
		Entropy: F64(rs.Entropy), Efficiency: F64(rs.Efficiency), PR: F64(rs.PR),
	})
}

// step maps a raw solver state vector onto the (leechers, seeds) pair a
// record reports, resolving the chunk model's class-vector layout.
func (o *streamSink) step(t float64, y []float64) {
	leechers, seeds := y[0], y[1]
	if k := o.chunkK; k > 0 {
		leechers, seeds = 0, y[k]
		for _, v := range y[:k] {
			if v > 0 {
				leechers += v
			}
		}
	}
	o.emit(o.steps, fluidStepRecord{Type: "step", Time: t, Leechers: F64(leechers), Seeds: F64(seeds)})
}

// handleStream is the incremental path for long runs: instead of one
// response at the end, the client receives a JSONL record per simulated
// exchange round — or, for a fluid integration, per accepted solver
// step: the adaptive solver's own time discretization, not the fixed
// sample grid of the query path — then a final type="result" record.
// Streams bypass the cache (their value is watching the run evolve),
// evaluate locally, and are admitted through the same step as queries.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	k, ok := s.decode(w, r)
	if !ok {
		return
	}
	req := k.req
	if req.Kind != KindSim && req.Kind != KindStability && req.Kind != KindFluid {
		s.writeError(w, r, fmt.Errorf("%w: kind %q is not streamable (only %q, %q, and %q emit incremental records)",
			ErrBadRequest, req.Kind, KindSim, KindStability, KindFluid))
		return
	}
	tctx, root := s.rootSpan(w, r, k.key, "/v1/stream")
	defer root.End()
	root.Annotate("kind", req.Kind)

	// A stream is interactive: the client disconnecting should stop the
	// run, so the compute context joins the connection's context and the
	// server's lifetime (admit adds the request deadline).
	ctx, cancel := context.WithCancel(tctx)
	defer cancel()
	defer context.AfterFunc(s.baseCtx, cancel)()

	out := &streamSink{rc: http.NewResponseController(w), enc: json.NewEncoder(w), rounds: s.streamRounds, steps: s.fluidSteps}
	if req.Kind == KindFluid && req.Fluid.Model == FluidChunk {
		out.chunkK = req.Fluid.K
	}
	admitted := false
	result, err := s.admit(ctx, req, func(ctx context.Context, req *Request) (any, error) {
		admitted = true
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Cache", "bypass")
		w.Header().Set("X-Cache-Key", k.key)
		return evalKind(ctx, req, progress{round: out, step: out.step})
	})
	switch {
	case !admitted:
		s.writeError(w, r, err)
	case err != nil:
		// Headers are already on the wire, so failures become a terminal
		// type="error" record rather than an HTTP status.
		s.failures.Inc()
		s.logger.Warn("stream failed", "kind", req.Kind, "err", err)
		_ = out.enc.Encode(map[string]string{"type": "error", "error": err.Error()})
	default:
		_ = out.enc.Encode(struct {
			Type   string `json:"type"`
			Key    string `json:"key"`
			Result any    `json:"result"`
		}{Type: "result", Key: k.key, Result: result})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	draining := s.baseCtx.Err() != nil
	_ = json.NewEncoder(w).Encode(map[string]any{"ok": !draining, "admitted": s.gate.Admitted()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.cfg.Registry.Snapshot())
}

func (s *Server) observeLatency(start time.Time) {
	s.latency.Observe(obs.Ms(time.Since(start)))
}

// retryAfterSeconds derives the 429 Retry-After hint from live load
// instead of a constant: the requests currently admitted (computing or
// queued) each take about the observed eval p95, spread across Workers
// parallel slots, so that is roughly when a slot frees up. Clamped to
// [1, 30] seconds; with no eval history yet (cold start under burst)
// one second per queued request is assumed.
func (s *Server) retryAfterSeconds() int {
	const seed = 1000.0 // assumed per-eval ms before any observation
	p95 := s.evalMs.Snapshot().P95
	if p95 <= 0 {
		p95 = seed
	}
	waitMs := float64(s.gate.Admitted()) * p95 / float64(s.cfg.Workers)
	secs := int(math.Ceil(waitMs / 1000))
	return min(max(secs, 1), 30)
}

// writeError answers with the error's ErrorStatus, adding the live
// Retry-After hint to a 429.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	status := ErrorStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.shed.Inc()
	}
	if status >= 500 {
		s.failures.Inc()
	}
	if status != http.StatusTooManyRequests {
		s.logger.Warn("request failed", "path", r.URL.Path, "status", status, "err", err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}
