package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts, cfg.Registry
}

func postQuery(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestQueryCacheServesIdenticalBytes is the tentpole acceptance test:
// the same (request, seed) returns byte-identical JSON, with the second
// request served from the cache — asserted through the obs counters.
func TestQueryCacheServesIdenticalBytes(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})
	const body = `{"kind":"model","seed":5,"model":{"b":20,"k":3,"s":8,"runs":60}}`

	r1, b1 := postQuery(t, ts.URL, body)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", r1.StatusCode, b1)
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	// Same computation, spelled differently (explicit defaults, explicit
	// schema version): must hit the same cache entry.
	r2, b2 := postQuery(t, ts.URL, `{"v":1,"kind":"model","seed":5,"model":{"b":20,"k":3,"s":8,"runs":60,"pInit":0.5}}`)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d: %s", r2.StatusCode, b2)
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached replay differs from original:\n%s\n%s", b1, b2)
	}
	if hits := reg.Counter("serve.cache.hits").Value(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if comps := reg.Counter("serve.computations").Value(); comps != 1 {
		t.Fatalf("computations = %d, want 1", comps)
	}
	// The response parses and carries the envelope.
	var env struct {
		V    int             `json:"v"`
		Kind string          `json:"kind"`
		Key  string          `json:"key"`
		Res  json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(b1, &env); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if env.V != Version || env.Kind != KindModel || len(env.Key) != 64 || len(env.Res) == 0 {
		t.Fatalf("envelope = %+v", env)
	}
}

// TestSeedVariedQueriesShareOneResult: a seed-free query under a new
// seed is a cache hit, and seed-varied copies in one batch are one
// computation, yet every envelope carries its own seed and Key().
func TestSeedVariedQueriesShareOneResult(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})
	type envelope struct {
		Seed   uint64          `json:"seed"`
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}
	check := func(src string, seed uint64, raw []byte) json.RawMessage {
		t.Helper()
		var env envelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		req, err := DecodeRequest(strings.NewReader(`{"kind":"efficiency","efficiency":{"k":5}}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Seed = seed
		if env.Seed != seed || env.Key != req.Key() {
			t.Errorf("%s answer for seed %d carries seed %d, key %s; want key %s", src, seed, env.Seed, env.Key, req.Key())
		}
		return env.Result
	}
	r1, b1 := postQuery(t, ts.URL, `{"kind":"efficiency","seed":1,"efficiency":{"k":5}}`)
	r2, b2 := postQuery(t, ts.URL, `{"kind":"efficiency","seed":2,"efficiency":{"k":5}}`)
	if r1.Header.Get("X-Cache") != "miss" || r2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache %q then %q, want miss then hit", r1.Header.Get("X-Cache"), r2.Header.Get("X-Cache"))
	}
	if r2.Header.Get("X-Cache-Key") == r1.Header.Get("X-Cache-Key") {
		t.Error("two seeds share an X-Cache-Key")
	}
	res := check("query", 1, b1)
	if !bytes.Equal(check("query", 2, b2), res) {
		t.Error("the two seeds' results differ")
	}

	_, items, sum := postBatch(t, ts.URL, `[{"kind":"efficiency","seed":3,"efficiency":{"k":6}},`+
		`{"kind":"efficiency","seed":4,"efficiency":{"k":6}},{"kind":"efficiency","seed":5,"efficiency":{"k":5}}]`)
	if sum == nil || sum.OK != 3 {
		t.Fatalf("batch summary %+v, want 3 ok", sum)
	}
	if comps := reg.Counter("serve.computations").Value(); comps != 2 {
		t.Errorf("computations = %d, want 2: k=5 once, k=6 once for two seeds", comps)
	}
	if items[2].Cache != "hit" || !bytes.Equal(check("batch", 5, items[2].Response), res) {
		t.Errorf("batch item for k=5 at a third seed: cache %q, want hit with the same result", items[2].Cache)
	}
	if items[0].Key == items[1].Key {
		t.Error("two seeds share a batch item key")
	}
}

// TestSimQueryDeterministicAcrossProcessesShape: sim responses exclude
// wall-clock telemetry, so two computed (not cached) runs of the same
// request are byte-identical too.
func TestSimQueryRecomputeIsByteIdentical(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{CacheSize: 1})
	const simBody = `{"kind":"sim","seed":2,"sim":{"pieces":30,"initialPeers":20,"lambda":1,"horizon":60}}`
	_, b1 := postQuery(t, ts.URL, simBody)
	// Evict the entry by caching a different request in the size-1 cache.
	if r, b := postQuery(t, ts.URL, `{"kind":"efficiency","efficiency":{"k":2}}`); r.StatusCode != http.StatusOK {
		t.Fatalf("evictor failed: %s", b)
	}
	r3, b2 := postQuery(t, ts.URL, simBody)
	if got := r3.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("expected recompute after eviction, X-Cache = %q", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("recomputed sim response differs:\n%s\n%s", b1, b2)
	}
}

// TestConcurrentIdenticalRequestsComputeOnce: N concurrent identical
// requests collapse into one evaluation (singleflight), all receiving
// the same bytes.
func TestConcurrentIdenticalRequestsComputeOnce(t *testing.T) {
	s, ts, reg := newTestServer(t, Config{Workers: 2, Queue: -1})
	var calls atomic.Int64
	gateOpen := make(chan struct{})
	realEval := s.eval
	s.eval = func(ctx context.Context, req *Request) (any, error) {
		calls.Add(1)
		<-gateOpen // hold every duplicate in the flight
		return realEval(ctx, req)
	}

	const n = 8
	const body = `{"kind":"efficiency","efficiency":{"k":3}}`
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close() //nolint:errcheck
			statuses[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	// Wait until the leader is inside eval, then release the flight.
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never reached eval")
		}
		time.Sleep(time.Millisecond)
	}
	close(gateOpen)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("eval ran %d times for %d identical requests, want 1", got, n)
	}
	if comps := reg.Counter("serve.computations").Value(); comps != 1 {
		t.Fatalf("computations counter = %d, want 1", comps)
	}
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d received different bytes", i)
		}
	}
}

// TestQueueSaturationSheds429: with 1 worker and no queue, concurrent
// distinct requests beyond capacity are shed with 429 + Retry-After.
func TestQueueSaturationSheds429(t *testing.T) {
	s, ts, reg := newTestServer(t, Config{Workers: 1, Queue: -1})
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	s.eval = func(ctx context.Context, req *Request) (any, error) {
		started <- struct{}{}
		<-block
		return &EfficiencyOut{K: req.Efficiency.K}, nil
	}

	// Occupy the only worker.
	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json",
			strings.NewReader(`{"kind":"efficiency","efficiency":{"k":2}}`))
		if err != nil {
			first <- 0
			return
		}
		defer resp.Body.Close() //nolint:errcheck
		_, _ = io.ReadAll(resp.Body)
		first <- resp.StatusCode
	}()
	<-started

	// A distinct request now finds worker busy, queue full: 429.
	resp, body := postQuery(t, ts.URL, `{"kind":"efficiency","efficiency":{"k":5}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	if shed := reg.Counter("serve.shed").Value(); shed != 1 {
		t.Fatalf("shed counter = %d, want 1", shed)
	}
	close(block)
	if st := <-first; st != http.StatusOK {
		t.Fatalf("occupying request status = %d, want 200", st)
	}
}

// TestRetryAfterFromSubMillisecondEvals: evaluations of a fraction of a
// millisecond are history too. Truncated to whole milliseconds they read
// as a p95 of zero, which the hint took for a cold start and priced at a
// second each: four admitted requests on a replica that clears one in
// 0.2 ms told the shed client to come back in 4 s instead of 1.
func TestRetryAfterFromSubMillisecondEvals(t *testing.T) {
	s, ts, reg := newTestServer(t, Config{Workers: 1, Queue: 3})
	block := make(chan struct{})
	s.eval = func(ctx context.Context, req *Request) (any, error) {
		if req.Efficiency.K >= 50 {
			<-block
		}
		for start := time.Now(); time.Since(start) < 200*time.Microsecond; {
		}
		return &EfficiencyOut{K: req.Efficiency.K}, nil
	}
	query := func(k int) string { return `{"kind":"efficiency","efficiency":{"k":` + strconv.Itoa(k) + `}}` }
	for k := 1; k <= 20; k++ {
		if resp, body := postQuery(t, ts.URL, query(k)); resp.StatusCode != http.StatusOK {
			t.Fatalf("k=%d: status %d: %s", k, resp.StatusCode, body)
		}
	}
	if snap := reg.Histogram("serve.eval_ms").Snapshot(); snap.Count != 20 || snap.P50 <= 0 {
		t.Fatalf("serve.eval_ms after 20 evals of 0.2 ms: count %d p50 %g, want p50 > 0", snap.Count, snap.P50)
	}

	// Fill the gate: one request in the worker slot, three queued.
	var wg sync.WaitGroup
	for k := 50; k < 54; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(query(k))); err == nil {
				resp.Body.Close() //nolint:errcheck
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); s.gate.Admitted() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("admitted = %d, want 4", s.gate.Admitted())
		}
	}
	resp, body := postQuery(t, ts.URL, query(54))
	close(block)
	wg.Wait()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1 (4 admitted × ~0.2 ms)", got)
	}
}

// TestRequestDeadline504: an evaluation exceeding RequestTimeout is cut
// off by its context and surfaces as 504.
func TestRequestDeadline504(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{RequestTimeout: 30 * time.Millisecond})
	s.eval = func(ctx context.Context, req *Request) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	resp, body := postQuery(t, ts.URL, `{"kind":"efficiency","efficiency":{"k":2}}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", resp.StatusCode, body)
	}
}

// TestEfficiencyQueryHonoursCancellation: k = 100 at p_r = 1 is a valid
// request that runs 136 352 rounds. It used to ignore its context, answer
// 200 a second after its deadline and hold its admission slot meanwhile.
func TestEfficiencyQueryHonoursCancellation(t *testing.T) {
	const timeout = 10 * time.Millisecond
	s, ts, _ := newTestServer(t, Config{RequestTimeout: timeout})
	start := time.Now()
	resp, body := postQuery(t, ts.URL, `{"kind":"efficiency","efficiency":{"k":100,"pr":1}}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", resp.StatusCode, body)
	}
	// The solver polls every 1 024 rounds: ~4 ms at k = 100, ~100 ms under
	// the race detector; the whole solve is 0.5 s and 10 s.
	if d := time.Since(start); d > timeout+400*time.Millisecond {
		t.Fatalf("504 after %v, want within 400ms of the %v deadline", d, timeout)
	}
	if n := s.gate.Admitted(); n != 0 {
		t.Fatalf("admitted = %d after the deadline, want 0", n)
	}
}

func TestBadRequests400(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"not json":      `{`,
		"unknown field": `{"kind":"model","bogus":1}`,
		"unknown kind":  `{"kind":"tracker"}`,
		"cap exceeded":  `{"kind":"model","model":{"runs":1000000}}`,
		// Regression: negative b used to panic in core.UniformPhi before
		// validation, resetting the connection instead of returning 400.
		"negative b":     `{"kind":"model","model":{"b":-5}}`,
		"negative seeds": `{"kind":"sim","sim":{"seeds":-1}}`,
	} {
		resp, b := postQuery(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400; body: %s", name, resp.StatusCode, b)
		}
		var eb errorBody
		if err := json.Unmarshal(b, &eb); err != nil || eb.Error == "" {
			t.Fatalf("%s: error body malformed: %s", name, b)
		}
	}
	// The replica has no cache side door: even a key it holds is a 404.
	// (The path is joined so scripts/guards.sh can ban its literal.)
	warm, _ := postQuery(t, ts.URL, `{"kind":"efficiency","efficiency":{"k":5}}`)
	resp, err := http.Get(strings.Join([]string{ts.URL, "v1", "cache", warm.Header.Get("X-Cache-Key")}, "/"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of a cached key's old peek path: status = %d, want 404", resp.StatusCode)
	}
}

// TestLatencyObservedOnAllExits: the serve.latency_ms histogram must
// record errored requests too — success-only observation would exclude
// exactly the slow tail (timeouts, sheds) it exists to expose.
func TestLatencyObservedOnAllExits(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})
	if resp, _ := postQuery(t, ts.URL, `{"kind":"model","model":{"b":-5}}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if n := reg.Histogram("serve.latency_ms").Snapshot().Count; n != 1 {
		t.Fatalf("latency observations after a 400 = %d, want 1", n)
	}
	if resp, _ := postQuery(t, ts.URL, `{"kind":"efficiency","efficiency":{"k":2}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if n := reg.Histogram("serve.latency_ms").Snapshot().Count; n != 2 {
		t.Fatalf("latency observations after a 200 = %d, want 2", n)
	}
}

// TestExplicitZeroKnobsServeDistinctResults: "seeds":0 is a seedless
// swarm, not "use the default seed count" — the served response must
// echo the zero back and must not be the cached default-swarm result.
func TestExplicitZeroKnobsServeDistinctResults(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	const base = `{"kind":"sim","seed":2,"sim":{"pieces":20,"initialPeers":15,"lambda":1,"horizon":40`
	rd, bd := postQuery(t, ts.URL, base+`}}`)
	rz, bz := postQuery(t, ts.URL, base+`,"seeds":0,"optimisticProb":0}}`)
	if rd.StatusCode != http.StatusOK || rz.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d/%d: %s %s", rd.StatusCode, rz.StatusCode, bd, bz)
	}
	if rd.Header.Get("X-Cache-Key") == rz.Header.Get("X-Cache-Key") {
		t.Fatal("explicit-zero request shares a cache key with the defaulted request")
	}
	var env struct {
		Result struct {
			Config      SimQuery `json:"config"`
			SeedUploads int      `json:"seedUploads"`
			Optimistic  int      `json:"optimistic"`
		} `json:"result"`
	}
	if err := json.Unmarshal(bz, &env); err != nil {
		t.Fatal(err)
	}
	cfg := env.Result.Config
	if cfg.Seeds == nil || *cfg.Seeds != 0 || cfg.OptimisticProb == nil || *cfg.OptimisticProb != 0 {
		t.Fatalf("response config rewrote explicit zeros: %+v", cfg)
	}
	if env.Result.SeedUploads != 0 || env.Result.Optimistic != 0 {
		t.Fatalf("seedless/no-optimistic run still uploaded: seedUploads=%d optimistic=%d",
			env.Result.SeedUploads, env.Result.Optimistic)
	}
}

// TestStreamEmitsRoundsThenResult: a sim stream yields type="round"
// JSONL records followed by a terminal type="result" record whose body
// matches the cached-query result for the same request.
func TestStreamEmitsRoundsThenResult(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})
	const q = `{"kind":"sim","seed":3,"sim":{"pieces":20,"initialPeers":15,"lambda":1,"horizon":40}}`
	resp, err := http.Post(ts.URL+"/v1/stream", "application/json", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var rounds int
	var last struct {
		Type   string          `json:"type"`
		Result json.RawMessage `json:"result"`
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct {
			Type  string `json:"type"`
			Round int    `json:"round"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("non-JSON stream line: %v: %s", err, sc.Text())
		}
		switch rec.Type {
		case "round":
			rounds++
		case "result":
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				t.Fatal(err)
			}
		case "error":
			t.Fatalf("stream errored: %s", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Fatal("no round records streamed")
	}
	if last.Type != "result" || len(last.Result) == 0 {
		t.Fatalf("missing terminal result record (last = %+v)", last)
	}
	if got := reg.Counter("serve.stream_rounds").Value(); got != int64(rounds) {
		t.Fatalf("stream_rounds counter = %d, want %d", got, rounds)
	}

	// Cross-check: the streamed result equals the query result for the
	// same request.
	_, qb := postQuery(t, ts.URL, q)
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(qb, &env); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(env.Result), bytes.TrimSpace(last.Result)) {
		t.Fatalf("stream result != query result:\n%s\n%s", last.Result, env.Result)
	}
}

func TestStreamRejectsNonSimKinds(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/stream", "application/json",
		strings.NewReader(`{"kind":"model"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestStabilityQuery exercises the fourth kind end to end: a healthy
// default-ish swarm should assess as stable.
func TestStabilityQuery(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, b := postQuery(t, ts.URL,
		`{"kind":"stability","seed":1,"sim":{"pieces":30,"initialPeers":20,"lambda":1,"horizon":80}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var env struct {
		Result StabilityOut `json:"result"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	if env.Result.Points < 2 {
		t.Fatalf("assessment over %d points", env.Result.Points)
	}
	if env.Result.Sim.Rounds == 0 {
		t.Fatal("nested sim summary empty")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if !h.OK {
		t.Fatal("healthz not ok on a fresh server")
	}

	postQuery(t, ts.URL, `{"kind":"efficiency","efficiency":{"k":2}}`)
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close() //nolint:errcheck
	if snap.Counters["serve.requests"] == 0 {
		t.Fatalf("metrics snapshot missing serve.requests: %+v", snap.Counters)
	}

	// After Close, healthz reports draining.
	s.Close()
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close() //nolint:errcheck
	if h.OK {
		t.Fatal("healthz still ok after Close")
	}
}

// TestF64MarshalsNaNAsNull pins the NaN-safe JSON convention.
func TestF64MarshalsNaNAsNull(t *testing.T) {
	b, err := json.Marshal(struct {
		A F64 `json:"a"`
		B F64 `json:"b"`
	}{F64(0.5), F64(math.NaN())})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(b), `{"a":0.5,"b":null}`; got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
}

// TestCachedBodyIsEncoderFixedPoint pins the property WriteItemLine
// rests on: the envelopes writeEnvelope writes — what a batch line
// embeds — are valid JSON that encoding/json's compaction
// (HTML escaping included) leaves exactly as they are, so copying them
// into a line is what json.Encoder would have written after scanning
// them. One response of every kind, served and then served from cache.
func TestCachedBodyIsEncoderFixedPoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, req := range []string{
		`{"kind":"model","seed":5,"model":{"b":20,"k":3,"s":8,"runs":40}}`,
		`{"kind":"efficiency","efficiency":{"k":5}}`,
		`{"kind":"sim","seed":7,"sim":{"pieces":20,"initialPeers":30,"horizon":40}}`,
		`{"kind":"stability","seed":1,"sim":{"pieces":20,"initialPeers":20,"lambda":1,"horizon":40}}`,
		`{"kind":"fluid","fluid":{"horizon":50}}`,
		`{"kind":"fluid","fluid":{"model":"chunk","k":8,"s":4,"horizon":50}}`,
	} {
		for _, want := range []string{"miss", "hit"} {
			resp, b := postQuery(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != want {
				t.Fatalf("%s: status %d, X-Cache %q, want 200 %s", req, resp.StatusCode, resp.Header.Get("X-Cache"), want)
			}
			body := bytes.TrimSuffix(b, []byte("\n"))
			if len(body) == len(b) || !json.Valid(body) {
				t.Fatalf("%s: body is not one JSON value and a newline: %q", req, b)
			}
			if again, err := json.Marshal(json.RawMessage(body)); err != nil || !bytes.Equal(again, body) {
				t.Errorf("%s (%s): the encoder rewrites the cached body (err %v):\n%s\n%s", req, want, err, body, again)
			}
		}
	}
}

// BenchmarkQueryCacheHit measures the serving hot path (a warmed cache
// hit) with tracing off and on. The disabled variant is the zero-cost
// contract: a nil Tracer must add no work — trace.Start on an unbound
// context is a no-op (see trace.TestDisabledPathAllocates0 for the
// allocation-free guarantee at the span-call level).
func BenchmarkQueryCacheHit(b *testing.B) {
	const body = `{"kind":"efficiency","efficiency":{"k":3}}`
	run := func(b *testing.B, cfg Config) {
		s := New(cfg)
		defer s.Close()
		warm := httptest.NewRequest("POST", "/v1/query", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, warm)
		if rec.Code != http.StatusOK {
			b.Fatalf("warmup status %d: %s", rec.Code, rec.Body.String())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest("POST", "/v1/query", strings.NewReader(body))
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d", w.Code)
			}
		}
	}
	b.Run("notrace", func(b *testing.B) { run(b, Config{}) })
	b.Run("traced", func(b *testing.B) {
		run(b, Config{Tracer: trace.New(trace.DefaultCapacity, "bench")})
	})
}
