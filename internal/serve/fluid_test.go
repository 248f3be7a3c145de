package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFluidCanonicalizeDefaults checks that an empty fluid section
// canonicalizes to the documented defaults.
func TestFluidCanonicalizeDefaults(t *testing.T) {
	r := &Request{Kind: KindFluid}
	if err := r.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	q := r.Fluid
	if q.Model != FluidQS || *q.Lambda != 2 || *q.Theta != 0 || q.C != 1 || q.Mu != 0.5 ||
		*q.Eta != 1 || *q.Gamma != 1 || *q.X0 != 0 || *q.Y0 != 1 ||
		q.Horizon != 400 || q.Grid != 200 || q.RTol != 1e-6 || q.ATol != 1e-9 {
		t.Fatalf("defaults wrong: %+v", q)
	}
	if q.K != 0 || q.S != 0 || q.SeedFraction != nil {
		t.Fatalf("chunk knobs leaked into qs defaults: %+v", q)
	}
}

// TestFluidExplicitZeroVsOmitted is the canonicalization satellite: a
// knob whose default is zero ("theta") hashes identically whether
// omitted or explicit, while a knob whose default is nonzero ("lambda")
// must split the cache key when explicitly zeroed.
func TestFluidExplicitZeroVsOmitted(t *testing.T) {
	key := func(body string) string {
		r := &Request{}
		if err := json.Unmarshal([]byte(body), r); err != nil {
			t.Fatal(err)
		}
		if err := r.Canonicalize(); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return r.Key()
	}
	base := key(`{"kind":"fluid"}`)
	if got := key(`{"kind":"fluid","fluid":{"theta":0}}`); got != base {
		t.Error("explicit theta:0 must share the omitted-theta cache key (default is 0)")
	}
	if got := key(`{"kind":"fluid","fluid":{"lambda":2,"eta":1,"y0":1}}`); got != base {
		t.Error("spelling out the defaults must not change the cache key")
	}
	if got := key(`{"kind":"fluid","fluid":{"lambda":0}}`); got == base {
		t.Error("explicit lambda:0 (drain) must differ from the default lambda=2")
	}
	if got := key(`{"kind":"fluid","fluid":{"x0":0}}`); got != base {
		t.Error("explicit x0:0 must share the omitted-x0 key (default is 0)")
	}
	// The two models never alias: identical rates, different model.
	qs := key(`{"kind":"fluid","fluid":{"model":"qs"}}`)
	chunk := key(`{"kind":"fluid","fluid":{"model":"chunk"}}`)
	if qs == chunk {
		t.Error("qs and chunk requests share a cache key")
	}
	if qs != base {
		t.Error(`explicit model:"qs" must share the omitted-model key`)
	}
	// Chunk pointer knob: seedFraction 0 vs default 1.
	c0 := key(`{"kind":"fluid","fluid":{"model":"chunk","seedFraction":0}}`)
	if c0 == chunk {
		t.Error("explicit seedFraction:0 must differ from the default 1")
	}
}

// TestFluidCanonicalizeRejections covers the validation surface: every
// out-of-domain parameter must canonicalize to an ErrBadRequest.
func TestFluidCanonicalizeRejections(t *testing.T) {
	cases := []string{
		`{"kind":"fluid","fluid":{"model":"bogus"}}`,
		`{"kind":"fluid","fluid":{"lambda":-1}}`,
		`{"kind":"fluid","fluid":{"c":-2}}`,
		`{"kind":"fluid","fluid":{"mu":-0.5}}`,
		`{"kind":"fluid","fluid":{"eta":1.5}}`,
		`{"kind":"fluid","fluid":{"gamma":0}}`, // qs requires gamma > 0
		`{"kind":"fluid","fluid":{"x0":-1}}`,
		`{"kind":"fluid","fluid":{"y0":-1}}`,
		`{"kind":"fluid","fluid":{"horizon":-5}}`,
		`{"kind":"fluid","fluid":{"horizon":1000000}}`,
		`{"kind":"fluid","fluid":{"grid":1}}`,
		`{"kind":"fluid","fluid":{"grid":100000}}`,
		`{"kind":"fluid","fluid":{"rtol":2}}`,
		`{"kind":"fluid","fluid":{"atol":-1e-9}}`,
		// Chunk-only knobs on the aggregate model.
		`{"kind":"fluid","fluid":{"k":40}}`,
		`{"kind":"fluid","fluid":{"s":5}}`,
		`{"kind":"fluid","fluid":{"seedUpload":4}}`,
		`{"kind":"fluid","fluid":{"seedFraction":0.5}}`,
		// Chunk domain.
		`{"kind":"fluid","fluid":{"model":"chunk","k":10000}}`,
		`{"kind":"fluid","fluid":{"model":"chunk","s":-1}}`,
		`{"kind":"fluid","fluid":{"model":"chunk","seedFraction":2}}`,
		// Section mutual exclusion.
		`{"kind":"fluid","sim":{}}`,
		`{"kind":"fluid","model":{}}`,
		`{"kind":"sim","fluid":{}}`,
		`{"kind":"model","fluid":{}}`,
	}
	for _, body := range cases {
		r := &Request{}
		if err := json.Unmarshal([]byte(body), r); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if err := r.Canonicalize(); err == nil {
			t.Errorf("%s: expected rejection", body)
		}
	}
}

// TestFluidBadRequests400 pushes malformed fluid queries through the
// HTTP layer: domain violations and non-JSON floats must all 400.
func TestFluidBadRequests400(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	cases := []string{
		`{"kind":"fluid","fluid":{"lambda":-1}}`,
		`{"kind":"fluid","fluid":{"eta":2}}`,
		`{"kind":"fluid","fluid":{"theta":NaN}}`, // not JSON: decode error
		`{"kind":"fluid","fluid":{"gamma":"x"}}`,
		`{"kind":"fluid","fluid":{"unknownKnob":1}}`,
		`{"kind":"fluid","fluid":{"model":"chunk","k":4097}}`,
		`{"kind":"fluid","sim":{}}`,
	}
	for _, body := range cases {
		resp, b := postQuery(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
}

// TestFluidQueryCachedByteIdentical is the acceptance-criteria check:
// the same fluid request replays byte-identically from the cache, and a
// fresh server (a "restart") recomputes the identical bytes.
func TestFluidQueryCachedByteIdentical(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})
	const body = `{"kind":"fluid","fluid":{"lambda":1.5,"mu":0.4,"horizon":100,"grid":50}}`

	r1, b1 := postQuery(t, ts.URL, body)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", r1.StatusCode, b1)
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q", got)
	}
	r2, b2 := postQuery(t, ts.URL, body)
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cache replay not byte-identical")
	}
	if got := reg.Counter("serve.fluid.requests").Value(); got != 2 {
		t.Errorf("serve.fluid.requests = %d, want 2", got)
	}
	if got := reg.Counter("serve.computations").Value(); got != 1 {
		t.Errorf("computations = %d, want 1 (second served from cache)", got)
	}
	// Restart: a brand-new server must produce the same bytes (the
	// response is a pure function of the canonical request).
	_, ts2, _ := newTestServer(t, Config{})
	r3, b3 := postQuery(t, ts2.URL, body)
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("restart status %d: %s", r3.StatusCode, b3)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatal("recompute after restart not byte-identical")
	}
	// Field order / explicit defaults map to the same cache entry.
	const reordered = `{"fluid":{"grid":50,"horizon":100,"mu":0.4,"lambda":1.5,"theta":0},"kind":"fluid"}`
	r4, b4 := postQuery(t, ts.URL, reordered)
	if got := r4.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("reordered request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b1, b4) {
		t.Fatal("reordered request served different bytes")
	}
}

// TestFluidResponseShape decodes a qs and a chunk response and checks
// the trajectory invariants the docs promise.
func TestFluidResponseShape(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	var env struct {
		Kind   string   `json:"kind"`
		Key    string   `json:"key"`
		Result FluidOut `json:"result"`
	}
	resp, b := postQuery(t, ts.URL, `{"kind":"fluid","fluid":{"horizon":200,"grid":101}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	out := env.Result
	if len(out.T) != 101 || len(out.Leechers) != 101 || len(out.Seeds) != 101 {
		t.Fatalf("grid lengths %d/%d/%d, want 101", len(out.T), len(out.Leechers), len(out.Seeds))
	}
	if out.T[0] != 0 || out.T[100] != 200 {
		t.Fatalf("grid endpoints [%g, %g], want [0, 200]", out.T[0], out.T[100])
	}
	if out.Steps == 0 || out.FEvals == 0 {
		t.Error("solver counters missing")
	}
	if out.SteadyState == nil {
		t.Fatal("θ=0 qs response missing closed-form steady state")
	}
	// The default parameters settle near the closed form by t=200.
	finalX := float64(out.Leechers[100])
	if rel := (finalX - out.SteadyState.Leechers) / out.SteadyState.Leechers; rel > 0.05 || rel < -0.05 {
		t.Errorf("trajectory tail %g vs steady state %g", finalX, out.SteadyState.Leechers)
	}
	if out.FinalClasses != nil {
		t.Error("qs response must not carry chunk class vector")
	}

	resp, b = postQuery(t, ts.URL, `{"kind":"fluid","fluid":{"model":"chunk","k":16,"s":4,"horizon":100,"grid":21}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunk status %d: %s", resp.StatusCode, b)
	}
	env.Result = FluidOut{} // json merges into existing pointers otherwise
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	out = env.Result
	if len(out.FinalClasses) != 17 {
		t.Fatalf("chunk finalClasses length %d, want K+1 = 17", len(out.FinalClasses))
	}
	if out.SteadyState != nil {
		t.Error("chunk response must not carry the qs closed form")
	}
}

// TestFluidSingleflightCollapse mirrors the PR 4 suite: N concurrent
// identical fluid requests share one computation.
func TestFluidSingleflightCollapse(t *testing.T) {
	var evals atomic.Int64
	release := make(chan struct{})
	cfg := Config{
		Workers: 4,
		Evaluator: func(ctx context.Context, req *Request) (any, error) {
			evals.Add(1)
			<-release
			return evalFluid(ctx, req, nil)
		},
	}
	_, ts, _ := newTestServer(t, cfg)
	const body = `{"kind":"fluid","fluid":{"horizon":50,"grid":11}}`

	const n = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, bodies[i] = postQuery(t, ts.URL, body)
		}(i)
	}
	// Give the flights time to pile up behind the leader, then release.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := evals.Load(); got != 1 {
		t.Fatalf("evaluations = %d, want 1 (singleflight collapse)", got)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("follower %d received different bytes", i)
		}
	}
}

// TestFluidStreamStepsThenResult drives /v1/stream with a fluid query:
// per-accepted-step records in strictly increasing time, then a single
// terminal result whose key matches the query path's.
func TestFluidStreamStepsThenResult(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})
	const body = `{"kind":"fluid","fluid":{"horizon":100,"grid":11}}`
	resp, err := http.Post(ts.URL+"/v1/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "bypass" {
		t.Errorf("X-Cache = %q, want bypass", got)
	}
	sc := bufio.NewScanner(resp.Body)
	steps, results := 0, 0
	prev := 0.0
	var resultKey string
	for sc.Scan() {
		var rec struct {
			Type string  `json:"type"`
			Time float64 `json:"t"`
			Key  string  `json:"key"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		switch rec.Type {
		case "step":
			if results > 0 {
				t.Fatal("step record after the terminal result")
			}
			if rec.Time <= prev {
				t.Fatalf("step times not strictly increasing: %g after %g", rec.Time, prev)
			}
			prev = rec.Time
			steps++
		case "result":
			results++
			resultKey = rec.Key
		default:
			t.Fatalf("unexpected record type %q", rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if steps == 0 || results != 1 {
		t.Fatalf("stream shape: %d steps, %d results", steps, results)
	}
	if prev != 100 {
		t.Errorf("last step at t=%g, want exactly the horizon", prev)
	}
	if got := reg.Counter("serve.fluid.stream_steps").Value(); got != int64(steps) {
		t.Errorf("serve.fluid.stream_steps = %d, want %d", got, steps)
	}
	// The streamed key matches the cached query path's content address.
	q, bq := postQuery(t, ts.URL, body)
	if q.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", q.StatusCode, bq)
	}
	if want := q.Header.Get("X-Cache-Key"); resultKey != want {
		t.Errorf("stream result key %q != query key %q", resultKey, want)
	}
}

// TestFluidStreamStillRejectsModelKinds pins the original stream
// contract: adding fluid must not open the stream path to the
// non-incremental kinds.
func TestFluidStreamStillRejectsModelKinds(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, body := range []string{`{"kind":"model"}`, `{"kind":"efficiency"}`} {
		resp, err := http.Post(ts.URL+"/v1/stream", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: stream status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestFluidDivergenceIsClientError asks for an integration the solver
// must refuse (step budget exhausted) and expects a 400, not a 500.
func TestFluidDivergenceIsClientError(t *testing.T) {
	// A huge horizon with the tightest tolerances exhausts the step budget.
	_, ts, _ := newTestServer(t, Config{})
	resp, b := postQuery(t, ts.URL,
		`{"kind":"fluid","fluid":{"horizon":20000,"rtol":1e-12,"atol":1e-15,"lambda":5,"mu":0.9,"gamma":0.1}}`)
	// Either the solve succeeds (fast machine, controlled problem) or it
	// fails as a 400 — never a 500.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 200 or 400", resp.StatusCode, b)
	}
}

// BenchmarkQueryFluid measures the served fluid path: the cache-miss
// cost (solve + marshal, cache disabled per iteration via distinct
// seeds is avoided — fluid ignores the seed, so the miss benchmark uses
// a cold server each outer loop) and the cache-hit replay.
func BenchmarkQueryFluid(b *testing.B) {
	const body = `{"kind":"fluid","fluid":{"horizon":400,"grid":200}}`
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := New(Config{})
			b.StartTimer()
			req := httptest.NewRequest("POST", "/v1/query", strings.NewReader(body))
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
			b.StopTimer()
			s.Close()
			b.StartTimer()
		}
	})
	b.Run("hit", func(b *testing.B) {
		s := New(Config{})
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
	})
}

// TestFluidEvalShardSingleUnit routes a fluid request through the dist
// shard evaluator: non-model kinds ship as one [0,1) shard whose bytes
// must match local evaluation.
func TestFluidEvalShardSingleUnit(t *testing.T) {
	r := &Request{Kind: KindFluid, Fluid: &FluidQuery{Horizon: 50, Grid: 11}}
	if err := r.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	local, err := Evaluate(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := EvalShard(context.Background(), spec, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := json.Marshal(local)
	if !bytes.Equal(lb, sharded) {
		t.Fatalf("shard bytes differ from local:\n%s\n%s", lb, sharded)
	}
	if _, err := EvalShard(context.Background(), spec, 1, 3); err == nil {
		t.Error("fluid must reject multi-shard splits")
	}
}
