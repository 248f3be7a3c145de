package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/serve"
)

// DefaultLoadFactor is the bounded-load factor c: a replica may carry
// at most ceil(c · (inflight+1) / healthy) concurrent requests before
// keys homed on it spill to their ring successor. 1.25 is the classic
// consistent-hashing-with-bounded-loads setting — enough headroom that
// steady traffic never spills, tight enough that one hot key cannot
// monopolize a node.
const DefaultLoadFactor = 1.25

// DefaultForwardTimeout bounds one proxied /v1/query or /v1/batch
// exchange. It must exceed the replicas' compute deadline (60s default)
// so the gateway never gives up on a request its replica is still
// legitimately computing.
const DefaultForwardTimeout = 65 * time.Second

const maxBodyBytes = 1 << 20

// Replica quarantine: strikeThreshold transport failures inside
// strikeWindow eject a replica for that long, doubling per further
// strike (internal/health). Expiry admits the next request as the
// half-open probe: success inside a clean window forgives the record,
// failure re-strikes and escalates.
const (
	strikeThreshold = 3
	strikeWindow    = 10 * time.Second
)

// fillTimeout bounds one cache-fill probe of a key's home replica. The
// probe is an optimization: when the home is slow the spill target
// should compute instead, so the budget stays well under any compute
// time worth saving.
const fillTimeout = 250 * time.Millisecond

// Config configures a Gateway. Zero values take the defaults noted on
// each field.
type Config struct {
	// Replicas are the btserve base URLs ("http://host:port") the
	// gateway fronts. Required, at least one.
	Replicas []string
	// VNodes is the virtual-node count per replica (default
	// DefaultVNodes).
	VNodes int
	// LoadFactor is the bounded-load spill factor (default
	// DefaultLoadFactor; values <= 1 are clamped to 1, meaning "spill as
	// soon as the home exceeds an equal share").
	LoadFactor float64
	// ForwardTimeout bounds one proxied query/batch exchange (default
	// DefaultForwardTimeout). Streams are bounded by the client, not the
	// gateway.
	ForwardTimeout time.Duration
	// Registry receives gateway.* metrics (nil disables export).
	Registry *obs.Registry
	// Logger receives routing events (nil = no logging).
	Logger *slog.Logger
	// Tracer records gateway span trees; the minted trace ID is handed
	// to the replica via X-Trace-Id so both tiers' spans stitch into one
	// trace. Nil disables tracing.
	Tracer *trace.Tracer
	// Client overrides the forwarding HTTP client (tests). The default
	// keeps connections to every replica alive.
	Client *http.Client
	// now is injectable for quarantine tests.
	now func() time.Time
}

// Gateway is the routing tier: an http.Handler fronting N replicas.
type Gateway struct {
	cfg    Config
	ring   *Ring
	client *http.Client
	logger *slog.Logger
	tracer *trace.Tracer
	mux    *http.ServeMux

	mu       sync.Mutex
	inflight []int
	total    int
	book     *health.Book[int] // by replica index

	requests, batchRequests, batchItemsC *obs.Counter
	spills, fills, fillMisses            *obs.Counter
	retries, replicaErrors, strikes      *obs.Counter
	shed                                 *obs.Counter
	quarGauge, inflightGauge             *obs.Gauge
	latency, upstream                    *obs.Histogram
}

// New builds a Gateway, validating the replica set.
func New(cfg Config) (*Gateway, error) {
	ring, err := NewRing(cfg.Replicas, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.LoadFactor == 0 {
		cfg.LoadFactor = DefaultLoadFactor
	}
	if cfg.LoadFactor < 1 {
		cfg.LoadFactor = 1
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = DefaultForwardTimeout
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	g := &Gateway{
		cfg:      cfg,
		ring:     ring,
		logger:   obs.OrNop(cfg.Logger),
		tracer:   cfg.Tracer,
		mux:      http.NewServeMux(),
		inflight: make([]int, len(cfg.Replicas)),
		book:     health.NewBook[int](strikeThreshold, strikeWindow),

		requests: &obs.Counter{}, batchRequests: &obs.Counter{}, batchItemsC: &obs.Counter{},
		spills: &obs.Counter{}, fills: &obs.Counter{}, fillMisses: &obs.Counter{},
		retries: &obs.Counter{}, replicaErrors: &obs.Counter{}, strikes: &obs.Counter{},
		shed:      &obs.Counter{},
		quarGauge: &obs.Gauge{}, inflightGauge: &obs.Gauge{},
		latency: &obs.Histogram{}, upstream: &obs.Histogram{},
	}
	g.client = cfg.Client
	if g.client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		// One hot loopback tier: allow enough pooled conns per replica
		// that the load generator's concurrency never queues on dials.
		tr.MaxIdleConns = 256
		tr.MaxIdleConnsPerHost = 128
		g.client = &http.Client{Transport: tr}
	}
	if reg := cfg.Registry; reg != nil {
		g.requests = reg.Counter("gateway.requests")
		g.batchRequests = reg.Counter("gateway.batch.requests")
		g.batchItemsC = reg.Counter("gateway.batch.items")
		g.spills = reg.Counter("gateway.spills")
		g.fills = reg.Counter("gateway.fill.hits")
		g.fillMisses = reg.Counter("gateway.fill.misses")
		g.retries = reg.Counter("gateway.retries")
		g.replicaErrors = reg.Counter("gateway.replica_errors")
		g.strikes = reg.Counter("gateway.strikes")
		g.shed = reg.Counter("gateway.shed")
		g.quarGauge = reg.Gauge("gateway.quarantined")
		g.inflightGauge = reg.Gauge("gateway.inflight")
		g.latency = reg.Histogram("gateway.latency_ms")
		g.upstream = reg.Histogram("gateway.upstream_ms")
	}
	g.mux.HandleFunc("POST /v1/query", g.handleQuery)
	g.mux.HandleFunc("POST /v1/batch", g.handleBatch)
	g.mux.HandleFunc("POST /v1/stream", g.handleStream)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	if cfg.Registry != nil {
		g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	}
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// healthyLocked filters a key's ring walk down to the replicas that are
// not quarantined, in walk order, and publishes the quarantine gauge.
// When the whole tier is ejected it degrades to the least-banned
// replica rather than failing fast — degraded beats wedged. order is
// overwritten.
func (g *Gateway) healthyLocked(order []int, now time.Time) []int {
	healthy := order[:0]
	for _, i := range order {
		if !g.book.Quarantined(i, now) {
			healthy = append(healthy, i)
		}
	}
	g.quarGauge.Set(float64(len(order) - len(healthy)))
	if len(healthy) == 0 {
		// Nothing was kept, so order is still the full walk.
		return append(healthy, g.book.LeastBanned(order))
	}
	return healthy
}

// acquireLocked counts one exchange in flight on replica i; release
// must follow when the exchange ends.
func (g *Gateway) acquireLocked(i int) {
	g.inflight[i]++
	g.total++
	g.inflightGauge.Set(float64(g.total))
}

func (g *Gateway) release(i int) {
	g.mu.Lock()
	g.inflight[i]--
	g.total--
	g.inflightGauge.Set(float64(g.total))
	g.mu.Unlock()
}

// route picks the serving replica for a content-addressed key — the
// key's home unless the home is quarantined (walk to the next healthy
// replica) or over its bounded-load share (spill likewise) — and
// acquires it. The caller must release(target) when the proxied
// exchange ends.
func (g *Gateway) route(key string) (target, home int, spilled bool) {
	order := g.ring.Walk(key)
	now := g.cfg.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	healthy := g.healthyLocked(order, now)
	home = healthy[0]
	// Bounded load: ceil(c·(total+1)/healthy) concurrent exchanges per
	// replica; the +1 counts this request.
	cap := int(float64(g.total+1)*g.cfg.LoadFactor/float64(len(healthy))) + 1
	target = home
	for _, i := range healthy {
		if g.inflight[i] < cap {
			target = i
			break
		}
	}
	g.acquireLocked(target)
	return target, home, target != home
}

// homeFor returns the key's first healthy ring replica. Batch items go
// to their home without the bounded-load spill, and nothing is acquired
// here: a sub-batch is one exchange however many items it carries, and
// forwardSubBatch accounts for it.
func (g *Gateway) homeFor(key string, now time.Time) int {
	order := g.ring.Walk(key)
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.healthyLocked(order, now)[0]
}

// strikeReplica records a transport-level failure against replica i: a
// dial/read error or a truncated sub-batch. Real per-request statuses
// (400/429/504) are the client's business and never strike.
func (g *Gateway) strikeReplica(i int, err error) {
	g.replicaErrors.Inc()
	g.strikes.Inc()
	now := g.cfg.now()
	g.mu.Lock()
	ejected := g.book.Strike(i, now)
	if ejected {
		g.quarGauge.Set(float64(g.quarantinedLocked(now)))
	}
	g.mu.Unlock()
	if ejected {
		g.logger.Warn("replica quarantined", "replica", g.cfg.Replicas[i], "err", err)
	} else {
		g.logger.Debug("replica strike", "replica", g.cfg.Replicas[i], "err", err)
	}
}

// quarantinedLocked counts the replicas currently ejected.
func (g *Gateway) quarantinedLocked(now time.Time) int {
	n := 0
	for i := range g.cfg.Replicas {
		if g.book.Quarantined(i, now) {
			n++
		}
	}
	return n
}

// decode parses and canonicalizes a single-query body (the serve
// schema, verbatim — the gateway speaks exactly the replica dialect).
func (g *Gateway) decode(w http.ResponseWriter, r *http.Request) (*serve.Request, bool) {
	req, err := serve.DecodeRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		g.writeErr(w, serve.ErrorStatus(err), err)
		return nil, false
	}
	return req, true
}

// forward proxies one canonical request to replica i's path and returns
// the response. The caller owns resp.Body.
func (g *Gateway) forward(ctx context.Context, i int, path string, body []byte, sp *trace.Span) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.cfg.Replicas[i]+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sp != nil {
		// Hand the trace identity down: the replica adopts this ID and
		// parents its ingress span under the gateway's forward span, so
		// one trace covers both tiers.
		req.Header.Set("X-Trace-Id", sp.TraceID())
		req.Header.Set("X-Parent-Span", sp.ID())
	}
	start := time.Now()
	resp, err := g.client.Do(req)
	g.upstream.Observe(float64(time.Since(start).Milliseconds()))
	return resp, err
}

// passHeaders copies the replica headers the client contract promises
// through the gateway. Retry-After passes verbatim: the replica derived
// it from its own live load, and rewriting it would break clients'
// backoff (the 429 regression this tier must not introduce).
var passHeaders = []string{"Content-Type", "X-Cache", "X-Cache-Key", "X-Trace-Id", "Retry-After"}

func copyHeaders(w http.ResponseWriter, resp *http.Response) {
	for _, h := range passHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
}

// handleQuery routes one canonical query to its replica and relays the
// response bytes untouched.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	g.requests.Inc()
	start := time.Now()
	defer func() { g.latency.Observe(float64(time.Since(start).Milliseconds())) }()
	req, ok := g.decode(w, r)
	if !ok {
		return
	}
	key := req.Key()
	tctx, root := g.tracer.Root(r.Context(), key, "ingress")
	defer root.End()
	if root != nil {
		root.Annotate("kind", req.Kind)
		root.Annotate("path", "/v1/query")
		w.Header().Set("X-Trace-Id", root.TraceID())
	}
	w.Header().Set("X-Cache-Key", key)
	body, err := json.Marshal(req)
	if err != nil {
		g.writeErr(w, http.StatusInternalServerError, err)
		return
	}

	target, home, spilled := g.route(key)
	defer g.release(target)
	if spilled {
		g.spills.Inc()
		if root != nil {
			root.Annotate("route", "spill")
		}
		// The home replica probably holds this key's bytes — its cache is
		// why the key was homed there. Serving the home's cached bytes
		// beats recomputing on the spill target.
		if cached, ok := g.probeCache(tctx, home, key); ok {
			g.fills.Inc()
			w.Header().Set("X-Cache", "fill")
			w.Header().Set("X-Replica", g.cfg.Replicas[home])
			w.Header().Set("X-Route", "fill")
			g.writeBody(w, http.StatusOK, cached)
			return
		}
		g.fillMisses.Inc()
	}

	// Forward, retrying transport failures on the ring-walk successors:
	// requests are pure functions of their canonical form, so a replay
	// on another replica is safe by construction.
	order := append([]int{target}, g.ring.Walk(key)...)
	tried := make(map[int]bool, len(order))
	var lastErr error
	for _, i := range order {
		if tried[i] {
			continue
		}
		tried[i] = true
		fctx, fsp := trace.Start(tctx, "forward")
		if fsp != nil {
			fsp.Annotate("replica", g.cfg.Replicas[i])
		}
		ctx, cancel := context.WithTimeout(fctx, g.cfg.ForwardTimeout)
		resp, err := g.forward(ctx, i, "/v1/query", body, fsp)
		if err != nil {
			cancel()
			fsp.Annotate("outcome", "error")
			fsp.End()
			g.strikeReplica(i, err)
			g.retries.Inc()
			lastErr = err
			continue
		}
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		cancel()
		if err != nil {
			fsp.Annotate("outcome", "error")
			fsp.End()
			g.strikeReplica(i, err)
			g.retries.Inc()
			lastErr = err
			continue
		}
		fsp.Annotate("outcome", strconv.Itoa(resp.StatusCode))
		fsp.End()
		if resp.StatusCode == http.StatusTooManyRequests {
			g.shed.Inc()
		}
		copyHeaders(w, resp)
		w.Header().Set("X-Replica", g.cfg.Replicas[i])
		route := "home"
		if i != home {
			route = "spill"
		}
		w.Header().Set("X-Route", route)
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(respBody)
		return
	}
	g.writeErr(w, http.StatusBadGateway, fmt.Errorf("all replicas unreachable: %v", lastErr))
}

// probeCache asks replica i's cache endpoint for key, bounded by
// fillTimeout.
func (g *Gateway) probeCache(tctx context.Context, i int, key string) ([]byte, bool) {
	fctx, sp := trace.Start(tctx, "fill")
	defer sp.End()
	if sp != nil {
		sp.Annotate("replica", g.cfg.Replicas[i])
	}
	ctx, cancel := context.WithTimeout(fctx, fillTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.cfg.Replicas[i]+"/v1/cache/"+key, nil)
	if err != nil {
		return nil, false
	}
	resp, err := g.client.Do(req)
	if err != nil {
		sp.Annotate("outcome", "error")
		return nil, false
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		sp.Annotate("outcome", "miss")
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, false
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		sp.Annotate("outcome", "error")
		return nil, false
	}
	sp.Annotate("outcome", "hit")
	return body, true
}

// handleStream proxies a streaming run to the key's replica, flushing
// each chunk as it arrives. Streams bypass the cache on the replica, so
// there is no fill path; bounded load still applies (a stream occupies
// a replica slot for its whole life).
func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	g.requests.Inc()
	req, ok := g.decode(w, r)
	if !ok {
		return
	}
	key := req.Key()
	tctx, root := g.tracer.Root(r.Context(), key, "ingress")
	defer root.End()
	if root != nil {
		root.Annotate("kind", req.Kind)
		root.Annotate("path", "/v1/stream")
		w.Header().Set("X-Trace-Id", root.TraceID())
	}
	body, err := json.Marshal(req)
	if err != nil {
		g.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	target, _, spilled := g.route(key)
	defer g.release(target)
	if spilled {
		g.spills.Inc()
	}
	fctx, fsp := trace.Start(tctx, "forward")
	defer fsp.End()
	if fsp != nil {
		fsp.Annotate("replica", g.cfg.Replicas[target])
	}
	resp, err := g.forward(fctx, target, "/v1/stream", body, fsp)
	if err != nil {
		g.strikeReplica(target, err)
		g.writeErr(w, http.StatusBadGateway, err)
		return
	}
	defer resp.Body.Close() //nolint:errcheck
	copyHeaders(w, resp)
	w.Header().Set("X-Replica", g.cfg.Replicas[target])
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if rerr != nil {
			return
		}
	}
}

// handleBatch fans a canonical batch out to each item's home replica as
// per-replica sub-batches, then reassembles the items in input order.
// Canonicalization happens once, here — the replicas receive
// already-canonical requests. Per-item statuses (including 429 retry
// hints) pass through verbatim.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	g.requests.Inc()
	g.batchRequests.Inc()
	start := time.Now()
	defer func() { g.latency.Observe(float64(time.Since(start).Milliseconds())) }()
	raw, err := serve.SplitBatch(http.MaxBytesReader(w, r.Body, serve.MaxBatchBytes))
	if err != nil {
		g.writeErr(w, serve.ErrorStatus(err), err)
		return
	}
	g.batchItemsC.Add(int64(len(raw)))
	tctx, root := g.tracer.Root(r.Context(), serve.BatchKey(raw), "ingress")
	defer root.End()
	if root != nil {
		root.Annotate("path", "/v1/batch")
		root.AnnotateInt("items", len(raw))
		w.Header().Set("X-Trace-Id", root.TraceID())
	}

	items := make([]batchLine, len(raw))
	// Group valid items by their healthy home replica.
	type group struct {
		indices []int             // original positions
		bodies  []json.RawMessage // canonical request bodies
	}
	groups := map[int]*group{}
	now := g.cfg.now()
	for i, rawItem := range raw {
		req, err := serve.DecodeBatchItem(rawItem)
		if err != nil {
			items[i] = errorLine(i, serve.ErrorStatus(err), err.Error(), 0)
			continue
		}
		body, merr := json.Marshal(req)
		if merr != nil {
			items[i] = errorLine(i, http.StatusInternalServerError, merr.Error(), 0)
			continue
		}
		target := g.homeFor(req.Key(), now)
		grp := groups[target]
		if grp == nil {
			grp = &group{}
			groups[target] = grp
		}
		grp.indices = append(grp.indices, i)
		grp.bodies = append(grp.bodies, body)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex // guards items writes from sub-batch goroutines
	for target, grp := range groups {
		wg.Add(1)
		go func(target int, grp *group) {
			defer wg.Done()
			sub := g.forwardSubBatch(tctx, target, grp.bodies, grp.indices)
			mu.Lock()
			defer mu.Unlock()
			for j, idx := range grp.indices {
				items[idx] = sub[j]
			}
		}(target, grp)
	}
	wg.Wait()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, 64<<10)
	sum := serve.BatchSummary{Type: "summary", Items: len(items)}
	for i := range items {
		switch items[i].status {
		case http.StatusOK:
			sum.OK++
		case http.StatusTooManyRequests:
			sum.Shed++
			sum.Errors++
			g.shed.Inc()
		default:
			sum.Errors++
		}
		_, _ = bw.Write(items[i].raw)
		_ = bw.WriteByte('\n')
	}
	sb, _ := json.Marshal(sum)
	_, _ = bw.Write(sb)
	_ = bw.WriteByte('\n')
	_ = bw.Flush()
}

// batchLine is one ready-to-emit JSONL item: the replica's bytes pass
// through with only the index spliced, never decoded and re-encoded —
// the batch hot path is dominated by JSON work, so the gateway does the
// minimum of it.
type batchLine struct {
	raw    []byte
	status int
}

// errorLine builds a gateway-originated item line.
func errorLine(index, status int, msg string, retrySec int) batchLine {
	b, _ := json.Marshal(serve.BatchItem{Type: "item", Index: index, Status: status, Error: msg, RetryAfterSec: retrySec})
	return batchLine{raw: b, status: status}
}

// spliceIndex returns a copy of a replica item line with the value of
// its "index" field replaced by index, or false when the line has no
// such field. BatchItem marshals "type" then "index" first, so the
// first occurrence is the field and never a match inside the payload.
func spliceIndex(line []byte, index int) ([]byte, bool) {
	const tag = `"index":`
	i := bytes.Index(line, []byte(tag))
	if i < 0 {
		return nil, false
	}
	start := i + len(tag)
	end := start
	for end < len(line) && line[end] >= '0' && line[end] <= '9' {
		end++
	}
	if end == start {
		return nil, false
	}
	out := make([]byte, 0, len(line)+8)
	out = append(out, line[:start]...)
	out = strconv.AppendInt(out, int64(index), 10)
	out = append(out, line[end:]...)
	return out, true
}

// forwardSubBatch sends one replica its share of a batch and returns
// ready-to-emit item lines in sub-batch order, each with its index
// spliced back to the caller's position. Transport failures mark every
// item 502; non-200 replica responses stamp the replica's status (and
// Retry-After, for a saturated replica) onto every item.
func (g *Gateway) forwardSubBatch(tctx context.Context, target int, bodies []json.RawMessage, indices []int) []batchLine {
	out := make([]batchLine, len(bodies))
	fail := func(status int, msg string, retrySec int) []batchLine {
		for i := range out {
			out[i] = errorLine(indices[i], status, msg, retrySec)
		}
		return out
	}
	payload, err := json.Marshal(bodies)
	if err != nil {
		return fail(http.StatusInternalServerError, err.Error(), 0)
	}
	fctx, fsp := trace.Start(tctx, "forward")
	defer fsp.End()
	if fsp != nil {
		fsp.Annotate("replica", g.cfg.Replicas[target])
		fsp.AnnotateInt("items", len(bodies))
	}
	ctx, cancel := context.WithTimeout(fctx, g.cfg.ForwardTimeout)
	defer cancel()

	g.mu.Lock()
	g.acquireLocked(target)
	g.mu.Unlock()
	defer g.release(target)
	resp, err := g.forward(ctx, target, "/v1/batch", payload, fsp)
	if err != nil {
		fsp.Annotate("outcome", "error")
		g.strikeReplica(target, err)
		return fail(http.StatusBadGateway, "replica unreachable: "+err.Error(), 0)
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		fsp.Annotate("outcome", strconv.Itoa(resp.StatusCode))
		retrySec := 0
		if s := resp.Header.Get("Retry-After"); s != "" {
			retrySec, _ = strconv.Atoi(s)
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fail(resp.StatusCode, string(bytes.TrimSpace(msg)), retrySec)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), serve.MaxBatchBytes)
	got := 0
	for sc.Scan() {
		line := sc.Bytes()
		// One cheap decode pulls the routing fields; the payload itself
		// (the big Response blob) is never parsed or re-encoded.
		var probe struct {
			Type   string `json:"type"`
			Index  int    `json:"index"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal(line, &probe); err != nil || probe.Type != "item" {
			continue // summary line or noise
		}
		if probe.Index < 0 || probe.Index >= len(out) {
			continue
		}
		spliced, ok := spliceIndex(line, indices[probe.Index])
		if !ok {
			spliced = append([]byte(nil), line...)
		}
		out[probe.Index] = batchLine{raw: spliced, status: probe.Status}
		got++
	}
	if err := sc.Err(); err != nil || got != len(out) {
		fsp.Annotate("outcome", "truncated")
		g.strikeReplica(target, fmt.Errorf("sub-batch answered %d/%d items: %v", got, len(out), err))
		for i := range out {
			if out[i].raw == nil {
				out[i] = errorLine(indices[i], http.StatusBadGateway, "replica sub-batch truncated", 0)
			}
		}
		return out
	}
	fsp.Annotate("outcome", "200")
	return out
}

// replicaState is one /healthz row.
type replicaState struct {
	URL         string `json:"url"`
	Inflight    int    `json:"inflight"`
	Strikes     int    `json:"strikes"`
	Quarantined bool   `json:"quarantined"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	now := g.cfg.now()
	g.mu.Lock()
	states := make([]replicaState, len(g.cfg.Replicas))
	for i, u := range g.cfg.Replicas {
		states[i] = replicaState{URL: u, Inflight: g.inflight[i], Strikes: g.book.Strikes(i), Quarantined: g.book.Quarantined(i, now)}
	}
	healthy := len(states) - g.quarantinedLocked(now)
	total := g.total
	g.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"ok": healthy > 0, "healthy": healthy, "inflight": total, "replicas": states,
	})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(g.cfg.Registry.Snapshot())
}

func (g *Gateway) writeErr(w http.ResponseWriter, status int, err error) {
	if status >= 500 {
		g.replicaErrors.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (g *Gateway) writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
