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

// Config configures a Gateway.
type Config struct {
	// Replicas are the btserve base URLs ("http://host:port") the
	// gateway fronts. Required, at least one.
	Replicas []string
	// Registry receives gateway.* metrics (nil = a private one, read only
	// through the gateway's own /metrics).
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
	// loadFactor replaces DefaultLoadFactor in the spill test: 1 means
	// "spill as soon as the home exceeds an equal share".
	loadFactor float64
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
	spills, retries, replicaErrors       *obs.Counter
	strikes, shed                        *obs.Counter
	quarGauge, inflightGauge             *obs.Gauge
	latency, upstream                    *obs.Histogram
}

// New builds a Gateway, validating the replica set.
func New(cfg Config) (*Gateway, error) {
	ring, err := NewRing(cfg.Replicas, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	if cfg.loadFactor == 0 {
		cfg.loadFactor = DefaultLoadFactor
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	reg := cfg.Registry
	g := &Gateway{
		cfg:      cfg,
		ring:     ring,
		logger:   obs.OrNop(cfg.Logger),
		tracer:   cfg.Tracer,
		mux:      http.NewServeMux(),
		inflight: make([]int, len(cfg.Replicas)),
		book:     health.NewBook[int](strikeThreshold, strikeWindow),

		requests:      reg.Counter("gateway.requests"),
		batchRequests: reg.Counter("gateway.batch.requests"),
		batchItemsC:   reg.Counter("gateway.batch.items"),
		spills:        reg.Counter("gateway.spills"),
		retries:       reg.Counter("gateway.retries"),
		replicaErrors: reg.Counter("gateway.replica_errors"),
		strikes:       reg.Counter("gateway.strikes"),
		shed:          reg.Counter("gateway.shed"),
		quarGauge:     reg.Gauge("gateway.quarantined"),
		inflightGauge: reg.Gauge("gateway.inflight"),
		latency:       reg.Histogram("gateway.latency_ms"),
		upstream:      reg.Histogram("gateway.upstream_ms"),
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
	g.mux.HandleFunc("POST /v1/query", g.handleQuery)
	g.mux.HandleFunc("POST /v1/batch", g.handleBatch)
	g.mux.HandleFunc("POST /v1/stream", g.handleStream)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
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

// strikeReplica records a transport-level failure against replica i: a
// dial/read error or a truncated or malformed reply. Real per-request
// statuses (400/429/504) are the client's business and never strike.
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

// exchange is one proxied request: what to send where, and what to do
// with the reply.
type exchange struct {
	key  string // the content address whose ring walk orders the replicas
	path string
	// body is forwarded as it arrived: the gateway validated it with the
	// replica's own decoder, and the replica canonicalizes whatever
	// arrives, as it must.
	body []byte
	// items is the size of a sub-batch, 0 for a single or a stream. A
	// sub-batch skips the bounded-load spill: it is one exchange however
	// many items it carries, and a spill would miss the successor's cache
	// on every one of them.
	items int
	// stream lifts DefaultForwardTimeout: a stream is bounded by its client.
	stream bool
	// consume takes the response, whatever its status — what a replica
	// chose to answer is the client's business — and returns an error only
	// while nothing has reached the client and the reply is unusable: a
	// body cut short, a line that is not the protocol's.
	consume func(target, home int, resp *http.Response) error
}

// do runs x, and is the gateway's only forwarding code: /v1/query,
// /v1/stream (until its first byte is relayed) and every /v1/batch
// sub-batch go through it, so the tier's failure policy is this
// function. It walks the key's ring order over the replicas that are
// not quarantined, holding one in-flight count on the replica being
// tried. A transport error or an unusable reply strikes that replica
// and moves on to the next successor — requests are pure functions of
// their canonical form, so a replay elsewhere is safe by construction.
// A caller that went away is neither: the attempt failed because ctx,
// the inbound request's context, ended, which says nothing about the
// replica, so do stops there with no strike and no retry. (The
// per-attempt DefaultForwardTimeout running out is still the replica's strike.)
func (g *Gateway) do(ctx context.Context, x exchange) error {
	g.mu.Lock()
	healthy := g.healthyLocked(g.ring.Walk(x.key), g.cfg.now())
	home := healthy[0]
	if x.items == 0 {
		// Bounded load: ceil(c·(total+1)/healthy) concurrent exchanges per
		// replica; the +1 counts this request. The first replica under its
		// share goes first, the rest of the walk keeps its order behind it.
		cap := int(float64(g.total+1)*g.cfg.loadFactor/float64(len(healthy))) + 1
		for j, i := range healthy {
			if g.inflight[i] < cap {
				copy(healthy[1:j+1], healthy[:j])
				healthy[0] = i
				break
			}
		}
	}
	g.acquireLocked(healthy[0])
	g.mu.Unlock()
	if healthy[0] != home {
		g.spills.Inc()
	}
	var err error
	for n, target := range healthy {
		if n > 0 {
			g.mu.Lock()
			g.acquireLocked(target)
			g.mu.Unlock()
		}
		err = g.attempt(ctx, x, target, home)
		g.release(target)
		if err == nil || ctx.Err() != nil {
			return err
		}
		g.strikeReplica(target, err)
		g.retries.Inc()
	}
	return fmt.Errorf("all replicas unreachable: %v", err)
}

// attempt forwards x to replica target once and hands the response to
// x.consume.
func (g *Gateway) attempt(ctx context.Context, x exchange, target, home int) error {
	ctx, fsp := trace.Start(ctx, "forward")
	defer fsp.End()
	fsp.Annotate("replica", g.cfg.Replicas[target])
	if x.items > 0 {
		fsp.AnnotateInt("items", x.items)
	}
	if !x.stream {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultForwardTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.cfg.Replicas[target]+x.path, bytes.NewReader(x.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if fsp != nil {
		// Hand the trace identity down: the replica adopts this ID and
		// parents its ingress span under the gateway's forward span, so
		// one trace covers both tiers.
		req.Header.Set("X-Trace-Id", fsp.TraceID())
		req.Header.Set("X-Parent-Span", fsp.ID())
	}
	start := time.Now()
	resp, err := g.client.Do(req)
	g.upstream.Observe(obs.Ms(time.Since(start)))
	if err == nil {
		err = x.consume(target, home, resp)
		resp.Body.Close() //nolint:errcheck
	}
	if err != nil {
		fsp.Annotate("outcome", "error")
		return err
	}
	fsp.Annotate("outcome", strconv.Itoa(resp.StatusCode))
	return nil
}

// ingress opens a request's root span and announces its trace.
func (g *Gateway) ingress(w http.ResponseWriter, r *http.Request, key, path string) (context.Context, *trace.Span) {
	ctx, root := g.tracer.Root(r.Context(), key, "ingress")
	if root != nil {
		root.Annotate("path", path)
		w.Header().Set("X-Trace-Id", root.TraceID())
	}
	return ctx, root
}

// single is the preamble /v1/query and /v1/stream share: read the body,
// validate it with the replica's own decoder (the gateway speaks exactly
// the replica dialect, 400s included), and open the root span. The
// returned exchange carries the key, the path and the bytes as read.
func (g *Gateway) single(w http.ResponseWriter, r *http.Request, path string) (context.Context, *trace.Span, exchange, bool) {
	g.requests.Inc()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		err = fmt.Errorf("%w: %v", serve.ErrBadRequest, err)
	}
	var req *serve.Request
	if err == nil {
		req, err = serve.DecodeBatchItem(body)
	}
	if err != nil {
		g.writeErr(w, serve.ErrorStatus(err), err)
		return nil, nil, exchange{}, false
	}
	key := req.Key()
	ctx, root := g.ingress(w, r, key, path)
	root.Annotate("kind", req.Kind)
	return ctx, root, exchange{key: key, path: path, body: body}, true
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

// relayBufs recycles the buffers replica replies are read into, a
// query's or a sub-batch's, up to maxRelayBuf.
var relayBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxRelayBuf = 1 << 20

func putRelayBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxRelayBuf {
		buf.Reset()
		relayBufs.Put(buf)
	}
}

// handleQuery routes one query to its replica and relays the response
// bytes untouched.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { g.latency.Observe(obs.Ms(time.Since(start))) }()
	ctx, root, x, ok := g.single(w, r, "/v1/query")
	if !ok {
		return
	}
	defer root.End()
	w.Header().Set("X-Cache-Key", x.key)
	x.consume = func(target, home int, resp *http.Response) error {
		// The whole body is read before any header goes out, so a failed
		// read can still move on to a successor.
		buf := relayBufs.Get().(*bytes.Buffer)
		defer putRelayBuf(buf)
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			g.shed.Inc()
		}
		copyHeaders(w, resp)
		w.Header().Set("X-Replica", g.cfg.Replicas[target])
		route := "home"
		if target != home {
			route = "spill"
		}
		w.Header().Set("X-Route", route)
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(buf.Bytes())
		return nil
	}
	if err := g.do(ctx, x); err != nil && ctx.Err() == nil {
		g.writeErr(w, http.StatusBadGateway, err)
	}
}

// handleStream proxies a streaming run to the key's replica, flushing
// each chunk as it arrives. Bounded load applies: a stream occupies a
// replica slot for its whole life.
func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	ctx, root, x, ok := g.single(w, r, "/v1/stream")
	if !ok {
		return
	}
	defer root.End()
	x.stream = true
	x.consume = func(target, _ int, resp *http.Response) error {
		buf := make([]byte, 32<<10)
		n, err := resp.Body.Read(buf)
		if n == 0 && err != nil && err != io.EOF {
			// Not a byte relayed yet: a successor can still serve the whole
			// stream. Past this point the client owns whatever happens.
			return err
		}
		copyHeaders(w, resp)
		w.Header().Set("X-Replica", g.cfg.Replicas[target])
		w.WriteHeader(resp.StatusCode)
		rc := http.NewResponseController(w)
		for ; ; n, err = resp.Body.Read(buf) {
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return nil
				}
				_ = rc.Flush() // best effort: a writer that cannot flush still relays
			}
			if err != nil {
				return nil
			}
		}
	}
	if err := g.do(ctx, x); err != nil && ctx.Err() == nil {
		g.writeErr(w, http.StatusBadGateway, err)
	}
}

// handleBatch fans a batch out as one sub-batch per ring owner, then
// reassembles the items in input order. Each item is validated here
// with the replica's own decoder — an item it rejects is answered here
// and never forwarded — and the rest travel as the bytes they arrived
// in, copied out of the split body into each sub-batch's own body: the
// transport may read a request body after RoundTrip returns. Per-item
// statuses (including 429 retry hints) pass through verbatim: each line
// is written from a view into its sub-batch's reply, and the replies and
// the split go back to their pools once the summary is flushed.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	g.requests.Inc()
	g.batchRequests.Inc()
	start := time.Now()
	defer func() { g.latency.Observe(obs.Ms(time.Since(start))) }()
	batch, err := serve.SplitBatch(http.MaxBytesReader(w, r.Body, serve.MaxBatchBytes))
	if err != nil {
		g.writeErr(w, serve.ErrorStatus(err), err)
		return
	}
	raw := batch.Items
	g.batchItemsC.Add(int64(len(raw)))
	ctx, root := g.ingress(w, r, serve.BatchKey(raw), "/v1/batch")
	defer root.End()
	root.AnnotateInt("items", len(raw))

	// A sub-batch is the items that share a ring owner, walked from its
	// first item's key: with the owner quarantined the group moves to that
	// key's first healthy successor as one unit.
	lines := make([]batchLine, len(raw))
	subs := make([]subBatch, len(g.cfg.Replicas))
	serve.DecodeBatch(raw, func(i int, req *serve.Request, err error) {
		if err != nil {
			lines[i] = errorLine(serve.ErrorStatus(err), err.Error(), 0)
			return
		}
		key := req.Key()
		sub := &subs[g.ring.Owner(key)]
		if len(sub.indices) == 0 {
			sub.key = key
		}
		sub.indices = append(sub.indices, i)
		sub.size += len(raw[i]) + 1 // the item and the '[' or ',' before it
	})
	var wg sync.WaitGroup
	for i := range subs {
		sub := &subs[i]
		if len(sub.indices) == 0 {
			continue
		}
		sub.body = make([]byte, 0, sub.size+1) // and forwardSub's ']'
		for _, idx := range sub.indices {
			sub.body = append(append(sub.body, ','), raw[idx]...)
		}
		sub.body[0] = '['
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.forwardSub(ctx, sub, lines) // writes only lines[sub.indices...]
		}()
	}
	wg.Wait()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	bw := serve.LineWriter(w)
	sum := serve.BatchSummary{Type: "summary", Items: len(lines)}
	for i := range lines {
		switch lines[i].status {
		case http.StatusOK:
			sum.OK++
		case http.StatusTooManyRequests:
			sum.Shed++
			sum.Errors++
			g.shed.Inc()
		default:
			sum.Errors++
		}
		writeLine(bw, i, lines[i].rest)
	}
	sb, _ := json.Marshal(sum)
	_, _ = bw.Write(sb)
	_ = bw.WriteByte('\n')
	_ = bw.Flush()
	serve.PutLineWriter(bw)
	for i := range subs {
		if subs[i].reply != nil {
			putRelayBuf(subs[i].reply)
		}
	}
	batch.Release()
}

// subBatch is one replica's share of a batch.
type subBatch struct {
	key     string        // the first item's: where the ring walk starts
	indices []int         // the items' positions in the caller's batch
	size    int           // len(body) before forwardSub's ']', summed as items decode
	body    []byte        // "[item,item,..." — forwardSub closes the array
	reply   *bytes.Buffer // the reply its items' lines are views into
}

// batchLine is one item of the caller's batch, ready to emit: the line
// behind its index, whose bytes — the replica's, or an errorLine — pass
// through never decoded and re-encoded. The batch hot path is dominated
// by JSON work, so the gateway does the minimum of it.
type batchLine struct {
	rest   []byte // splitItemLine's rest
	status int
}

// errorLine builds a gateway-originated item line.
func errorLine(status int, msg string, retrySec int) batchLine {
	b, _ := json.Marshal(serve.BatchItem{Type: "item", Status: status, Error: msg, RetryAfterSec: retrySec})
	_, _, rest, _ := splitItemLine(b)
	return batchLine{rest: rest, status: status}
}

// digits reads the decimal number b starts with — at most nine digits,
// which no index or status needs more of — and returns it with its
// width; width 0 means b does not start with one.
func digits(b []byte) (n, width int) {
	for width < len(b) && width < 9 && b[width] >= '0' && b[width] <= '9' {
		n = n*10 + int(b[width]-'0')
		width++
	}
	return n, width
}

// splitItemLine reads index and status off an item line's fixed prefix
// (serve.ItemHead N serve.StatusHead S: the payload behind it is never
// parsed) and returns what follows the index, so that ItemHead + a new
// index + rest is the same line re-indexed. ok is false for every other
// line.
func splitItemLine(line []byte) (index, status int, rest []byte, ok bool) {
	if !bytes.HasPrefix(line, []byte(serve.ItemHead)) {
		return 0, 0, nil, false
	}
	index, w := digits(line[len(serve.ItemHead):])
	rest = line[len(serve.ItemHead)+w:]
	if w == 0 || !bytes.HasPrefix(rest, []byte(serve.StatusHead)) {
		return 0, 0, nil, false
	}
	status, w = digits(rest[len(serve.StatusHead):])
	end := len(serve.StatusHead) + w
	if w == 0 || end == len(rest) || (rest[end] != ',' && rest[end] != '}') {
		return 0, 0, nil, false
	}
	return index, status, rest, true
}

// writeLine writes the line rest was split from under the caller's
// index: the head, the index and rest, copied once, into the reply.
func writeLine(bw *bufio.Writer, index int, rest []byte) {
	_, _ = bw.Write(strconv.AppendInt(append(bw.AvailableBuffer(), serve.ItemHead...), int64(index), 10))
	_, _ = bw.Write(rest)
	_ = bw.WriteByte('\n')
}

// forwardSub sends one sub-batch, reads the reply whole into sub.reply
// and sets its items' lines to views into it. A non-200 reply stamps
// the replica's status, its error text (and Retry-After, for a
// saturated replica) onto every item; a reply that is cut short,
// answers an item twice or not at all, or holds a line that is neither
// an item nor the terminal summary is no reply, and the sub-batch goes
// to the next successor. With no replica left every item is a 502.
func (g *Gateway) forwardSub(ctx context.Context, sub *subBatch, lines []batchLine) {
	fail := func(status int, msg string, retrySec int) {
		line := errorLine(status, msg, retrySec)
		for _, idx := range sub.indices {
			lines[idx] = line
		}
	}
	sub.reply = relayBufs.Get().(*bytes.Buffer)
	err := g.do(ctx, exchange{
		key: sub.key, path: "/v1/batch", body: append(sub.body, ']'), items: len(sub.indices),
		consume: func(_, _ int, resp *http.Response) error {
			if resp.StatusCode != http.StatusOK {
				retrySec, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
				raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
				// Unwrap the replica's {"error": …} envelope so the item says
				// what /v1/query would have; anything else passes as it is.
				var env struct {
					Error string `json:"error"`
				}
				msg := string(bytes.TrimSpace(raw))
				if json.Unmarshal(raw, &env) == nil && env.Error != "" {
					msg = env.Error
				}
				fail(resp.StatusCode, msg, retrySec)
				return nil
			}
			// A well-formed reply is a line per item and the summary, each
			// at most MaxBatchBytes long.
			buf, limit := sub.reply, int64(len(sub.indices)+1)*serve.MaxBatchBytes
			buf.Reset()
			_, err := buf.ReadFrom(io.LimitReader(resp.Body, limit+1))
			if int64(buf.Len()) > limit {
				err = bufio.ErrTooLong
			}
			for _, idx := range sub.indices {
				lines[idx] = batchLine{} // unanswered, whatever an earlier attempt set
			}
			n := 0
			// Split as bufio.ScanLines splits, the last line too when the
			// read failed part way.
			for data := buf.Bytes(); len(data) > 0; {
				adv, line, _ := bufio.ScanLines(data, true)
				data = data[adv:]
				if len(line) > serve.MaxBatchBytes {
					err = bufio.ErrTooLong
					break
				}
				index, status, rest, ok := splitItemLine(line)
				switch {
				case ok && index < len(sub.indices) && lines[sub.indices[index]].rest == nil:
					lines[sub.indices[index]] = batchLine{rest: rest, status: status}
					n++
				case !ok && bytes.HasPrefix(line, []byte(serve.SummaryHead)):
				default:
					return fmt.Errorf("sub-batch reply line %.60q is not the protocol's", line)
				}
			}
			if err != nil || n != len(sub.indices) {
				return fmt.Errorf("sub-batch answered %d/%d items: %v", n, len(sub.indices), err)
			}
			return nil
		},
	})
	if err != nil {
		fail(http.StatusBadGateway, "replica unreachable: "+err.Error(), 0)
	}
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
