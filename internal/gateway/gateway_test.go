package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/serve"
)

// newReplica starts a real btserve replica and returns its base URL.
func newReplica(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := serve.New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts.URL
}

// newGateway starts a Gateway over the given replica URLs.
func newGateway(t *testing.T, cfg Config) (*Gateway, string, *obs.Registry) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	return g, ts.URL, cfg.Registry
}

func post(t *testing.T, url, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
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

const qBody = `{"kind":"model","seed":5,"model":{"b":20,"k":3,"s":8,"runs":60}}`

// TestGatewayByteIdenticalWithDirectReplica is the satellite-3 core: a
// query through the gateway returns exactly the bytes a direct replica
// query returns, and re-homing the key (ring change: 1 replica → 2)
// does not change a single byte.
func TestGatewayByteIdenticalWithDirectReplica(t *testing.T) {
	_, urlA := newReplica(t, serve.Config{})
	_, urlB := newReplica(t, serve.Config{})

	// Direct answers from two independent replicas must already agree —
	// responses are pure functions of the canonical request.
	respA, directA := post(t, urlA, "/v1/query", qBody)
	respB, directB := post(t, urlB, "/v1/query", qBody)
	if respA.StatusCode != 200 || respB.StatusCode != 200 {
		t.Fatalf("direct status: %d / %d", respA.StatusCode, respB.StatusCode)
	}
	if !bytes.Equal(directA, directB) {
		t.Fatalf("two replicas disagree on the same canonical request:\n%s\n%s", directA, directB)
	}

	// A single-replica gateway forces home = A; a two-replica gateway may
	// re-home the key to B. Both must relay identical bytes.
	_, gw1, _ := newGateway(t, Config{Replicas: []string{urlA}})
	_, gw2, _ := newGateway(t, Config{Replicas: []string{urlA, urlB}})
	resp1, via1 := post(t, gw1, "/v1/query", qBody)
	resp2, via2 := post(t, gw2, "/v1/query", qBody)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("gateway status: %d / %d", resp1.StatusCode, resp2.StatusCode)
	}
	if !bytes.Equal(via1, directA) {
		t.Errorf("gateway(1 replica) bytes differ from direct replica bytes")
	}
	if !bytes.Equal(via2, directA) {
		t.Errorf("gateway(2 replicas) bytes differ after ring change")
	}
	if got := resp2.Header.Get("X-Replica"); got != urlA && got != urlB {
		t.Errorf("X-Replica = %q, want one of the replica URLs", got)
	}
	if resp2.Header.Get("X-Cache-Key") == "" {
		t.Error("gateway response missing X-Cache-Key")
	}

	// The 400 path is part of the identity: a body the request decoder
	// rejects is answered by the gateway itself, and must read exactly as
	// the replica's own rejection does.
	for _, bad := range []struct{ name, body string }{
		{"malformed JSON", `{"kind":"model",`},
		{"unknown field", `{"kind":"model","seed":5,"nope":1}`},
		{"invalid params", `{"kind":"model","model":{"b":-5}}`},
	} {
		respD, direct := post(t, urlA, "/v1/query", bad.body)
		respG, via := post(t, gw2, "/v1/query", bad.body)
		if respD.StatusCode != http.StatusBadRequest || respG.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status direct %d, gateway %d, want 400 from both", bad.name, respD.StatusCode, respG.StatusCode)
		}
		if !bytes.Equal(via, direct) {
			t.Errorf("%s: gateway 400 body differs from the replica's:\n gateway %s replica %s", bad.name, via, direct)
		}
	}
}

// TestGatewayRetryAfterVerbatim is satellite 1: a saturated replica's
// 429 — status, Retry-After header, and body — must reach the client
// byte-for-byte; the gateway must not rewrite backoff hints it did not
// compute.
func TestGatewayRetryAfterVerbatim(t *testing.T) {
	const retryAfter = "7"
	shedBody := `{"error":"saturated: compute queue full"}` + "\n"
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", retryAfter)
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = io.WriteString(w, shedBody)
	}))
	defer stub.Close()

	_, gw, reg := newGateway(t, Config{Replicas: []string{stub.URL}})
	resp, body := post(t, gw, "/v1/query", qBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != retryAfter {
		t.Errorf("Retry-After = %q, want %q verbatim", got, retryAfter)
	}
	if string(body) != shedBody {
		t.Errorf("429 body rewritten: %q", body)
	}
	// A 429 is the replica doing its job, not a replica failure: no
	// strike, no retry on another replica.
	snap := reg.Snapshot()
	if v := snap.Counters["gateway.strikes"]; v != 0 {
		t.Errorf("gateway.strikes = %d after a 429; sheds must not strike", v)
	}
	if v := snap.Counters["gateway.shed"]; v != 1 {
		t.Errorf("gateway.shed = %d, want 1", v)
	}
}

// TestGatewayBatchRetryHintsPassThrough covers the batch half of
// satellite 1: when a whole sub-batch bounces off a saturated replica,
// every item carries the replica's own Retry-After as its retry hint.
func TestGatewayBatchRetryHintsPassThrough(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "9")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = io.WriteString(w, `{"error":"saturated"}`)
	}))
	defer stub.Close()

	_, gw, _ := newGateway(t, Config{Replicas: []string{stub.URL}})
	batch := `[{"kind":"efficiency","efficiency":{"k":3}},{"kind":"efficiency","efficiency":{"k":4}}]`
	resp, body := post(t, gw, "/v1/batch", batch)
	if resp.StatusCode != 200 {
		t.Fatalf("batch status = %d, want 200 (per-item errors)", resp.StatusCode)
	}
	items, sum := parseBatch(t, body)
	if len(items) != 2 {
		t.Fatalf("got %d items, want 2", len(items))
	}
	for i, it := range items {
		if it.Status != http.StatusTooManyRequests {
			t.Errorf("item %d status = %d, want 429", i, it.Status)
		}
		if it.RetryAfterSec != 9 {
			t.Errorf("item %d retryAfterSec = %d, want 9 (verbatim from replica)", i, it.RetryAfterSec)
		}
		// The replica's {"error": …} envelope is unwrapped, not nested
		// as JSON inside the item's string.
		if it.Error != "saturated" {
			t.Errorf("item %d error = %q, want %q (what /v1/query says)", i, it.Error, "saturated")
		}
	}
	if sum.Shed != 2 {
		t.Errorf("summary shed = %d, want 2", sum.Shed)
	}
}

func parseBatch(t *testing.T, body []byte) ([]serve.BatchItem, serve.BatchSummary) {
	t.Helper()
	var items []serve.BatchItem
	var sum serve.BatchSummary
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), serve.MaxBatchBytes)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		switch probe.Type {
		case "item":
			var it serve.BatchItem
			if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
				t.Fatal(err)
			}
			items = append(items, it)
		case "summary":
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
		}
	}
	return items, sum
}

// TestGatewayBatchFanoutMatchesDirectBytes routes a mixed batch across
// two real replicas and checks order preservation, per-item statuses,
// and that each OK item embeds exactly the bytes a direct single query
// returns.
func TestGatewayBatchFanoutMatchesDirectBytes(t *testing.T) {
	_, urlA := newReplica(t, serve.Config{})
	_, urlB := newReplica(t, serve.Config{})
	_, gw, _ := newGateway(t, Config{Replicas: []string{urlA, urlB}})

	singles := []string{
		`{"kind":"efficiency","efficiency":{"k":3}}`,
		qBody,
		`{"kind":"efficiency","efficiency":{"k":5}}`,
	}
	batch := `[` + singles[0] + `,{"kind":"nope"},` + singles[1] + `,` + singles[2] + `]`
	resp, body := post(t, gw, "/v1/batch", batch)
	if resp.StatusCode != 200 {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, body)
	}
	items, sum := parseBatch(t, body)
	if len(items) != 4 {
		t.Fatalf("got %d items, want 4", len(items))
	}
	wantStatus := []int{200, 400, 200, 200}
	for i, it := range items {
		if it.Index != i {
			t.Errorf("item %d reports index %d; order must be preserved", i, it.Index)
		}
		if it.Status != wantStatus[i] {
			t.Errorf("item %d status = %d, want %d (%s)", i, it.Status, wantStatus[i], it.Error)
		}
	}
	if sum.OK != 3 || sum.Errors != 1 || sum.Items != 4 {
		t.Errorf("summary = %+v, want 3 ok / 1 error / 4 items", sum)
	}
	for i, idx := range []int{0, 2, 3} {
		_, direct := post(t, urlA, "/v1/query", singles[i])
		want := bytes.TrimSuffix(direct, []byte("\n"))
		if !bytes.Equal(items[idx].Response, want) {
			t.Errorf("item %d response differs from direct query bytes", idx)
		}
	}
}

// TestGatewaySpillGoesToRingSuccessor exercises the bounded-load spill:
// with the home replica saturated by in-flight requests, the next
// request for one of its keys is forwarded to the key's ring successor
// like any other exchange, and the home hears nothing more about it.
func TestGatewaySpillGoesToRingSuccessor(t *testing.T) {
	req := &serve.Request{}
	if err := json.Unmarshal([]byte(qBody), req); err != nil {
		t.Fatal(err)
	}
	if err := req.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	key := req.Key()
	const successorBytes = `{"computed":"on the ring successor"}` + "\n"

	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(2)
	var homeRequests atomic.Int32
	homeHandler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if homeRequests.Add(1) > 2 {
			return // counted; the test fails on the total below
		}
		started.Done()
		<-release
		_, _ = io.WriteString(w, `{"computed":"at home"}`+"\n")
	})
	spillHandler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, successorBytes)
	})

	// Ring ownership follows the URL hashes (ephemeral test ports), so
	// the stubs' roles can only be assigned after the ring is built:
	// whichever server owns the key plays the saturated home.
	var h1, h2 http.Handler
	s1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { h1.ServeHTTP(w, r) }))
	defer s1.Close()
	s2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { h2.ServeHTTP(w, r) }))
	defer s2.Close()
	defer close(release)
	replicas := []string{s1.URL, s2.URL}
	ring, err := NewRing(replicas, 0)
	if err != nil {
		t.Fatal(err)
	}
	walk := ring.Walk(key)
	if walk[0] == 0 {
		h1, h2 = homeHandler, spillHandler
	} else {
		h1, h2 = spillHandler, homeHandler
	}
	_, gw, reg := newGateway(t, Config{Replicas: replicas, loadFactor: 1})

	// Saturate the home with two in-flight requests for the same key.
	for i := 0; i < 2; i++ {
		go func() { _, _ = http.Post(gw+"/v1/query", "application/json", strings.NewReader(qBody)) }()
	}
	started.Wait()

	// The third request must spill to the successor.
	resp, body := post(t, gw, "/v1/query", qBody)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Route"); got != "spill" {
		t.Errorf("X-Route = %q, want \"spill\"", got)
	}
	if got, want := resp.Header.Get("X-Replica"), replicas[walk[1]]; got != want {
		t.Errorf("X-Replica = %q, want the ring successor %q", got, want)
	}
	if string(body) != successorBytes {
		t.Errorf("spilled request returned %q, want the successor's bytes", body)
	}
	if got := reg.Snapshot().Counters["gateway.spills"]; got != 1 {
		t.Errorf("gateway.spills = %d, want 1", got)
	}
	if got := homeRequests.Load(); got != 2 {
		t.Errorf("home replica saw %d requests, want only the 2 that saturate it", got)
	}
}

// TestGatewayStrikesAndQuarantine: a dead replica is retried around
// transparently, accrues strikes, and is quarantined off the routing
// table; /healthz reports it.
func TestGatewayStrikesAndQuarantine(t *testing.T) {
	_, live := newReplica(t, serve.Config{})
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	now := time.Unix(1700000000, 0)
	g, gw, reg := newGateway(t, Config{
		Replicas: []string{deadURL, live},
		now:      func() time.Time { return now },
	})

	// Every request succeeds despite the dead replica: transport errors
	// retry on the ring successor. Spread keys so some deterministically
	// home on the dead replica (one key could land all-live by chance).
	for i := 0; i < 24; i++ {
		body := fmt.Sprintf(`{"kind":"efficiency","efficiency":{"k":%d}}`, i+2)
		resp, b := post(t, gw, "/v1/query", body)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, b)
		}
		if got := resp.Header.Get("X-Replica"); got != live {
			t.Fatalf("request %d served by %q, want the live replica", i, got)
		}
	}
	g.mu.Lock()
	quarantined := g.book.Quarantined(0, now)
	g.mu.Unlock()
	if !quarantined {
		t.Error("dead replica not quarantined after repeated transport failures")
	}
	if v := reg.Snapshot().Counters["gateway.strikes"]; v < strikeThreshold {
		t.Errorf("gateway.strikes = %d, want >= %d", v, strikeThreshold)
	}

	hresp, err := http.Get(gw + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		OK       bool `json:"ok"`
		Healthy  int  `json:"healthy"`
		Replicas []struct {
			URL         string `json:"url"`
			Quarantined bool   `json:"quarantined"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close() //nolint:errcheck
	if !h.OK || h.Healthy != 1 {
		t.Errorf("healthz = %+v, want ok with 1 healthy replica", h)
	}
	found := false
	for _, rs := range h.Replicas {
		if rs.URL == deadURL {
			found = true
			if !rs.Quarantined {
				t.Error("healthz does not report the dead replica as quarantined")
			}
		}
	}
	if !found {
		t.Error("healthz missing the dead replica row")
	}
}

// healthzQuarantined returns how many replicas /healthz reports ejected.
func healthzQuarantined(t *testing.T, gw string) int {
	t.Helper()
	resp, err := http.Get(gw + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	var h struct {
		Replicas []struct {
			Quarantined bool `json:"quarantined"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, rs := range h.Replicas {
		if rs.Quarantined {
			n++
		}
	}
	return n
}

// TestGatewayBatchPublishesGauges: /v1/batch goes through the same
// acquire/release and the same strike path as /v1/query, so under pure
// batch traffic gateway.inflight is > 0 while a sub-batch is held open
// and 0 after, and gateway.quarantined agrees with /healthz once three
// sub-batches have failed on a dead replica.
func TestGatewayBatchPublishesGauges(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		_, _ = io.WriteString(w, `{"type":"item","index":0,"status":200}`+"\n")
	}))
	defer slow.Close()
	_, gw, reg := newGateway(t, Config{Replicas: []string{slow.URL}})
	gauge := func(reg *obs.Registry, name string) float64 { return reg.Snapshot().Gauges[name] }

	done := make(chan int, 1)
	go func() {
		resp, _ := post(t, gw, "/v1/batch", `[{"kind":"efficiency","efficiency":{"k":4}}]`)
		done <- resp.StatusCode
	}()
	<-entered
	if got := gauge(reg, "gateway.inflight"); got != 1 {
		t.Errorf("gateway.inflight = %v with one sub-batch held open, want 1", got)
	}
	close(release)
	if status := <-done; status != 200 {
		t.Fatalf("batch status = %d", status)
	}
	if got := gauge(reg, "gateway.inflight"); got != 0 {
		t.Errorf("gateway.inflight = %v after the batch returned, want 0", got)
	}

	_, live := newReplica(t, serve.Config{})
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // connection refused from here on
	_, gw, reg = newGateway(t, Config{Replicas: []string{deadURL, live}})
	// 24 keys per batch: some home on the dead replica, so every batch
	// sends it one sub-batch and earns it one strike.
	var items []string
	for k := 2; k < 26; k++ {
		items = append(items, fmt.Sprintf(`{"kind":"efficiency","efficiency":{"k":%d}}`, k))
	}
	batch := "[" + strings.Join(items, ",") + "]"
	for i := 0; i < strikeThreshold; i++ {
		if got := gauge(reg, "gateway.quarantined"); got != 0 {
			t.Fatalf("gateway.quarantined = %v after %d strikes, want 0", got, i)
		}
		if resp, b := post(t, gw, "/v1/batch", batch); resp.StatusCode != 200 {
			t.Fatalf("batch %d: status %d: %s", i, resp.StatusCode, b)
		}
	}
	if got := reg.Snapshot().Counters["gateway.strikes"]; got != strikeThreshold {
		t.Fatalf("gateway.strikes = %d after %d batches, want one each", got, strikeThreshold)
	}
	if h, g := healthzQuarantined(t, gw), gauge(reg, "gateway.quarantined"); h != 1 || g != 1 {
		t.Errorf("after %d strikes through /v1/batch: healthz reports %d quarantined, gateway.quarantined = %v, want 1 and 1",
			strikeThreshold, h, g)
	}
	// Quarantined, the dead replica gets no further sub-batch: every item
	// of the next batch is answered by the live one.
	resp, b := post(t, gw, "/v1/batch", batch)
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	summary := lines[len(lines)-1]
	if resp.StatusCode != 200 || !bytes.Contains(summary, []byte(fmt.Sprintf(`"ok":%d`, len(items)))) {
		t.Errorf("batch after quarantine: status %d, summary %s", resp.StatusCode, summary)
	}
}

// TestGatewayTraceStitching: the replica adopts the gateway's minted
// trace ID, so the client-visible X-Trace-Id matches spans recorded in
// BOTH processes' tracers.
func TestGatewayTraceStitching(t *testing.T) {
	repTracer := trace.New(256, "btserve")
	_, urlA := newReplica(t, serve.Config{Tracer: repTracer})
	gwTracer := trace.New(256, "btgate")
	_, gw, _ := newGateway(t, Config{Replicas: []string{urlA}, Tracer: gwTracer})

	resp, _ := post(t, gw, "/v1/query", qBody)
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("gateway response missing X-Trace-Id")
	}
	gwSpans, repSpans := 0, 0
	for _, sd := range gwTracer.Spans() {
		if sd.Trace == traceID {
			gwSpans++
		}
	}
	for _, sd := range repTracer.Spans() {
		if sd.Trace == traceID {
			repSpans++
		}
	}
	if gwSpans == 0 || repSpans == 0 {
		t.Fatalf("trace %s has %d gateway spans and %d replica spans; want both > 0 (one stitched trace)", traceID, gwSpans, repSpans)
	}
}

func TestGatewayRejectsBadRequests(t *testing.T) {
	_, urlA := newReplica(t, serve.Config{})
	_, gw, _ := newGateway(t, Config{Replicas: []string{urlA}})
	for name, body := range map[string]string{
		"not json":      "nope",
		"unknown field": `{"kind":"model","bogus":1}`,
		"bad kind":      `{"kind":"nope"}`,
	} {
		resp, _ := post(t, gw, "/v1/query", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}
