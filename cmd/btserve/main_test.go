package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func startTestServer(t *testing.T, o options) (base string, stop chan struct{}, errCh chan error) {
	t.Helper()
	o.addr = "127.0.0.1:0"
	if o.timeout == 0 {
		o.timeout = time.Minute
	}
	if o.drainTimeout == 0 {
		o.drainTimeout = time.Minute
	}
	stop = make(chan struct{})
	errCh = make(chan error, 1)
	addrCh := make(chan string, 1)
	go func() {
		errCh <- run(io.Discard, slog.New(slog.NewTextHandler(io.Discard, nil)), o,
			stop, func(addr string) { addrCh <- addr })
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, stop, errCh
	case err := <-errCh:
		t.Fatalf("server failed to start: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not come up")
	}
	panic("unreachable")
}

func TestRunServesQueries(t *testing.T) {
	base, stop, errCh := startTestServer(t, options{workers: 2, queue: 4, cacheSize: 8})
	defer func() { close(stop); <-errCh }()

	resp, err := http.Post(base+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"efficiency","efficiency":{"k":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var env struct {
		Kind   string `json:"kind"`
		Result struct {
			Eta float64 `json:"eta"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Kind != "efficiency" || env.Result.Eta <= 0 || env.Result.Eta > 1 {
		t.Fatalf("unexpected result: %+v", env)
	}

	// run wires the fluid solver's telemetry into the serving registry:
	// one fluid query must move fluid.steps on this server's /metrics.
	fresp, err := http.Post(base+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"fluid","fluid":{"lambda":2,"mu":0.5,"horizon":200,"grid":100}}`))
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close() //nolint:errcheck
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("fluid query status %d", fresp.StatusCode)
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close() //nolint:errcheck
	var snap obs.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["fluid.steps"] < 1 {
		t.Fatalf("fluid.steps = %d after a fluid query: solver metrics not wired", snap.Counters["fluid.steps"])
	}
}

// TestRunDrainsInflightOnStop is the SIGTERM acceptance test: a stop
// signal arriving while a computation is in flight must let that request
// finish with a 200 before run returns, and the listener must be gone
// afterwards.
func TestRunDrainsInflightOnStop(t *testing.T) {
	base, stop, errCh := startTestServer(t, options{workers: 2, queue: 4, cacheSize: 8})
	addr := strings.TrimPrefix(base, "http://")

	// A sim sized to still be computing when the stop signal lands
	// (~200ms, a couple of seconds under -race).
	type reply struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post(base+"/v1/query", "application/json",
			strings.NewReader(`{"kind":"sim","seed":8,"sim":{"pieces":60,"initialPeers":150,"lambda":2,"horizon":150}}`))
		if err != nil {
			done <- reply{err: err}
			return
		}
		defer resp.Body.Close() //nolint:errcheck
		b, _ := io.ReadAll(resp.Body)
		done <- reply{status: resp.StatusCode, body: b}
	}()
	time.Sleep(100 * time.Millisecond) // let the request reach the evaluator
	close(stop)

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request aborted by drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request status = %d during drain; body: %s", r.status, r.body)
	}
	if !bytes.Contains(r.body, []byte(`"kind":"sim"`)) {
		t.Fatalf("drained response looks wrong: %.120s", r.body)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("run returned error after graceful drain: %v", err)
	}
	// Listener released: the port is immediately re-bindable.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port not released after drain: %v", err)
	}
	ln.Close() //nolint:errcheck
}
