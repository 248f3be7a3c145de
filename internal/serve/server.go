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
	// Registry receives the serving metrics (nil disables metric export
	// but the server still runs).
	Registry *obs.Registry
	// Logger receives request-level events (nil = slog.Default()).
	Logger *slog.Logger
	// CacheSize is the LRU capacity in entries (default 256).
	CacheSize int
	// CacheTTL expires cached results (default 0 = never: results are
	// pure functions of the request, so staleness is impossible — the
	// TTL exists to bound memory for long-running deployments).
	CacheTTL time.Duration
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
	cacheServes                            *obs.Counter
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
	if cfg.Evaluator == nil {
		cfg.Evaluator = evaluate
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		logger:     cfg.Logger,
		mux:        http.NewServeMux(),
		cache:      NewCache(cfg.CacheSize, cfg.CacheTTL),
		flights:    &flightGroup{},
		gate:       par.NewGate(cfg.Workers, cfg.Queue),
		baseCtx:    ctx,
		baseCancel: cancel,
		eval:       cfg.Evaluator,
		tracer:     cfg.Tracer,

		requests: &obs.Counter{}, shed: &obs.Counter{},
		computations: &obs.Counter{}, failures: &obs.Counter{},
		streamRounds:  &obs.Counter{},
		fluidRequests: &obs.Counter{}, fluidSteps: &obs.Counter{},
		cacheServes:   &obs.Counter{},
		batchRequests: &obs.Counter{}, batchItems: &obs.Counter{}, batchBad: &obs.Counter{},
		latency: &obs.Histogram{},
		evalMs:  &obs.Histogram{},
	}
	if reg := cfg.Registry; reg != nil {
		s.cache.Instrument(reg, "serve.cache")
		s.gate.Instrument(reg, "serve")
		s.requests = reg.Counter("serve.requests")
		s.shed = reg.Counter("serve.shed")
		s.computations = reg.Counter("serve.computations")
		s.failures = reg.Counter("serve.failures")
		s.streamRounds = reg.Counter("serve.stream_rounds")
		s.fluidRequests = reg.Counter("serve.fluid.requests")
		s.fluidSteps = reg.Counter("serve.fluid.stream_steps")
		s.cacheServes = reg.Counter("serve.cachefill.serves")
		s.batchRequests = reg.Counter("serve.batch.requests")
		s.batchItems = reg.Counter("serve.batch.items")
		s.batchBad = reg.Counter("serve.batch.item_errors")
		s.latency = reg.Histogram("serve.latency_ms")
		s.evalMs = reg.Histogram("serve.eval_ms")
	}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCachePeek)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if cfg.Registry != nil {
		s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
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
// function of (request, seed); the cache stores its marshaled bytes.
type Response struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	Seed uint64 `json:"seed"`
	// Key is the content-addressed cache key (hex SHA-256 of the
	// canonical request form).
	Key    string `json:"key"`
	Result any    `json:"result"`
}

type errorBody struct {
	Error string `json:"error"`
}

// handleQuery is the cached request path: canonicalize, probe the
// cache, and on a miss collapse concurrent duplicates into a single
// admitted computation.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	start := time.Now()
	// Latency is observed on every exit — 400s, sheds, timeouts included.
	// Success-only observation would bias the histogram toward fast
	// requests, hiding exactly the slow tail (timeouts) it exists to show.
	defer func() { s.latency.Observe(float64(time.Since(start).Milliseconds())) }()
	req, ok := s.decode(w, r)
	if !ok {
		return
	}
	if req.Kind == KindFluid {
		s.fluidRequests.Inc()
	}
	key := req.Key()
	w.Header().Set("X-Cache-Key", key)
	tctx, root := s.rootSpan(r, key)
	defer root.End()
	if root != nil {
		root.Annotate("kind", req.Kind)
		root.Annotate("path", "/v1/query")
		w.Header().Set("X-Trace-Id", root.TraceID())
	}
	body, src, err := s.resolve(tctx, req, key)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	w.Header().Set("X-Cache", src)
	s.writeBody(w, http.StatusOK, body)
}

// rootSpan opens the request's root span. A request arriving from the
// gateway tier carries X-Trace-Id (and optionally X-Parent-Span): the
// replica adopts that identity, so its ingress/eval spans stitch into
// the gateway's trace instead of minting a parallel one. Direct requests
// get the deterministic (content address, ingress sequence) ID.
func (s *Server) rootSpan(r *http.Request, key string) (context.Context, *trace.Span) {
	if s.tracer == nil {
		return r.Context(), nil
	}
	if id := r.Header.Get("X-Trace-Id"); id != "" {
		ctx := trace.Bind(r.Context(), s.tracer, s.tracer.Proc(), id, r.Header.Get("X-Parent-Span"))
		return trace.Start(ctx, "ingress")
	}
	return s.tracer.Root(r.Context(), key, "ingress")
}

// resolve is the cached request path shared by /v1/query and each
// /v1/batch item: probe the cache, then collapse concurrent duplicates
// into a single admitted computation. src reports where the bytes came
// from: "hit", "miss" (computed here), or "shared" (another flight's
// result).
func (s *Server) resolve(tctx context.Context, req *Request, key string) (body []byte, src string, err error) {
	_, csp := trace.Start(tctx, "cache")
	if body, ok := s.cache.Get(key); ok {
		csp.Annotate("outcome", "hit")
		csp.End()
		return body, "hit", nil
	}
	csp.Annotate("outcome", "miss")
	csp.End()
	sfctx, fsp := trace.Start(tctx, "singleflight")
	body, shared, err := s.flights.Do(key, func() ([]byte, error) {
		// The flight leader acquires admission for the whole flight:
		// N concurrent identical requests consume one worker slot, and
		// a saturation rejection propagates to every waiter.
		_, gsp := trace.Start(sfctx, "gate")
		release, err := s.gate.Acquire(s.baseCtx)
		gsp.End()
		if err != nil {
			return nil, err
		}
		defer release()
		// The compute context is the server's lifetime plus the request
		// deadline — deliberately not the leader's connection context, so
		// one client disconnecting cannot starve the followers sharing
		// its flight. The trace binding is transplanted across so
		// downstream spans (pool shards, worker evals) still stitch into
		// this request's trace.
		ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RequestTimeout)
		defer cancel()
		ctx = trace.Transplant(ctx, sfctx)
		s.computations.Inc()
		evalStart := time.Now()
		defer func() { s.evalMs.Observe(float64(time.Since(evalStart).Milliseconds())) }()
		ectx, esp := trace.Start(ctx, "eval")
		var result any
		if esp != nil {
			// Goroutine labels attribute CPU samples to (kind, trace).
			pprof.Do(ectx, pprof.Labels("serve.kind", req.Kind, "serve.trace", esp.TraceID()), func(pctx context.Context) {
				result, err = s.eval(pctx, req)
			})
		} else {
			result, err = s.eval(ectx, req)
		}
		esp.End()
		if err != nil {
			return nil, err
		}
		return marshalBody(&Response{
			V: req.V, Kind: req.Kind, Seed: req.Seed, Key: key, Result: result,
		})
	})
	if fsp != nil {
		if shared {
			fsp.Annotate("role", "follower")
		} else {
			fsp.Annotate("role", "leader")
		}
	}
	fsp.End()
	if err != nil {
		return nil, "", err
	}
	if shared {
		return body, "shared", nil
	}
	s.cache.Put(key, body)
	return body, "miss", nil
}

// handleCachePeek is the cache-fill endpoint the gateway probes when a
// request spills away from its home replica: a pure cache probe
// returning the stored marshaled bytes for a content-addressed key, or
// 404. It never computes and never touches the admission gate.
func (s *Server) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if len(key) != 64 || !isHexKey(key) {
		s.writeError(w, r, fmt.Errorf("%w: cache key must be 64 hex chars", ErrBadRequest))
		return
	}
	body, ok := s.cache.Get(key)
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(errorBody{Error: "cache miss"})
		return
	}
	s.cacheServes.Inc()
	w.Header().Set("X-Cache", "hit")
	w.Header().Set("X-Cache-Key", key)
	s.writeBody(w, http.StatusOK, body)
}

func isHexKey(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
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

// fluidStepView maps a raw solver state vector onto the (leechers,
// seeds) pair a stream record reports, resolving the chunk model's
// class-vector layout.
func fluidStepView(q *FluidQuery) func(y []float64) (float64, float64) {
	if q.Model != FluidChunk {
		return func(y []float64) (float64, float64) { return y[0], y[1] }
	}
	k := q.K
	return func(y []float64) (float64, float64) {
		x := 0.0
		for j := 0; j < k; j++ {
			if y[j] > 0 {
				x += y[j]
			}
		}
		return x, y[k]
	}
}

// streamObserver forwards simulator rounds to the chunked response as
// they happen.
type streamObserver struct {
	fl     http.Flusher
	enc    *json.Encoder
	rounds *obs.Counter
	err    error
}

func (o *streamObserver) ObserveRound(rs sim.RoundStats) {
	if o.err != nil {
		return // client is gone; the context abort stops the run shortly
	}
	o.rounds.Inc()
	o.err = o.enc.Encode(roundRecord{
		Type: "round", Time: rs.Time, Round: rs.Round,
		Leechers: rs.Leechers, Seeds: rs.Seeds,
		Arrivals: rs.Arrivals, Exchanges: rs.Exchanges, Completions: rs.Completions,
		Entropy: F64(rs.Entropy), Efficiency: F64(rs.Efficiency), PR: F64(rs.PR),
	})
	if o.fl != nil {
		o.fl.Flush()
	}
}

// handleStream is the incremental path for long simulator runs: instead
// of one response at the end, the client receives a JSONL record per
// exchange round as it is simulated, then a final type="result" record.
// Streams bypass the cache (their value is watching the run evolve) and
// are admitted through the same gate as queries.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	req, ok := s.decode(w, r)
	if !ok {
		return
	}
	if req.Kind != KindSim && req.Kind != KindStability && req.Kind != KindFluid {
		s.writeError(w, r, fmt.Errorf("%w: kind %q is not streamable (only %q, %q, and %q emit incremental records)",
			ErrBadRequest, req.Kind, KindSim, KindStability, KindFluid))
		return
	}
	if req.Kind == KindFluid {
		s.fluidRequests.Inc()
	}
	tctx, root := s.rootSpan(r, req.Key())
	defer root.End()
	if root != nil {
		root.Annotate("kind", req.Kind)
		root.Annotate("path", "/v1/stream")
		w.Header().Set("X-Trace-Id", root.TraceID())
	}
	_, gsp := trace.Start(tctx, "gate")
	release, err := s.gate.Acquire(s.baseCtx)
	gsp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer release()

	// A stream is interactive: the client disconnecting should stop the
	// run, so the compute context joins the connection's context, the
	// request deadline, and the server's lifetime.
	ctx, cancel := context.WithTimeout(tctx, s.cfg.RequestTimeout)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Cache", "bypass")
	w.Header().Set("X-Cache-Key", req.Key())
	fl, _ := w.(http.Flusher)
	obsv := &streamObserver{fl: fl, enc: json.NewEncoder(w), rounds: s.streamRounds}

	s.computations.Inc()
	ectx, esp := trace.Start(ctx, "eval")
	var result any
	switch req.Kind {
	case KindStability:
		result, err = evalStability(ectx, req, obsv)
	case KindFluid:
		// Fluid streams emit one record per accepted solver step: the
		// adaptive integration's own time discretization, not the fixed
		// sample grid of the query path.
		view := fluidStepView(req.Fluid)
		result, err = evalFluid(ectx, req, func(t float64, y []float64) {
			if obsv.err != nil {
				return
			}
			s.fluidSteps.Inc()
			leechers, seeds := view(y)
			obsv.err = obsv.enc.Encode(fluidStepRecord{
				Type: "step", Time: t, Leechers: F64(leechers), Seeds: F64(seeds),
			})
			if obsv.fl != nil {
				obsv.fl.Flush()
			}
		})
	default:
		var res *sim.Result
		if res, err = runSim(ectx, req, obsv); err == nil {
			result = simOut(req, res)
		}
	}
	esp.End()
	// Headers are already on the wire, so failures become a terminal
	// type="error" record rather than an HTTP status.
	if err != nil {
		s.failures.Inc()
		s.logger.Warn("stream failed", "kind", req.Kind, "err", err)
		_ = obsv.enc.Encode(map[string]string{"type": "error", "error": err.Error()})
		return
	}
	_ = obsv.enc.Encode(struct {
		Type   string `json:"type"`
		Key    string `json:"key"`
		Result any    `json:"result"`
	}{Type: "result", Key: req.Key(), Result: result})
	if fl != nil {
		fl.Flush()
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

// decode reads, parses, and canonicalizes the request body, writing the
// 400 itself on failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request) (*Request, bool) {
	req, err := DecodeRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.writeError(w, r, err)
		return nil, false
	}
	return req, true
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

func (s *Server) writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// marshalBody renders the response envelope to its canonical bytes
// (trailing newline included) — the unit the cache stores and replays.
func marshalBody(resp *Response) ([]byte, error) {
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
