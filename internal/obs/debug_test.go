package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("client.msgs_in").Add(11)
	r.Gauge("tracker.peers").Set(3)

	srv, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck
	base := "http://" + srv.Addr().String()

	// /metrics serves the registry snapshot as JSON.
	body := get(t, base+"/metrics")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counters["client.msgs_in"] != 11 || snap.Gauges["tracker.peers"] != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}

	// /debug/vars serves expvar's memstats; the registry is /metrics only.
	vars := get(t, base+"/debug/vars")
	var all map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &all); err != nil {
		t.Fatalf("vars not JSON: %v", err)
	}
	if _, ok := all["memstats"]; !ok {
		t.Fatal("expvar memstats missing")
	}

	// pprof index answers.
	if idx := get(t, base+"/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("pprof index looks wrong: %.80s", idx)
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatal(fmt.Errorf("%s: status %d", url, resp.StatusCode))
	}
	return string(b)
}

// TestDebugServerDrainReleasesListener is the regression test for the
// debug-HTTP lifecycle: Drain must shut the server down via
// http.Server.Shutdown — releasing the port — rather than leaking the
// listener behind a fire-and-forget goroutine.
func TestDebugServerDrainReleasesListener(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	_ = get(t, "http://"+addr+"/metrics") // server is live
	if err := srv.Drain(2 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The listener must be gone: a fresh dial fails, and the port can be
	// re-bound immediately.
	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close() //nolint:errcheck
		t.Fatal("listener still accepting after Drain")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port not released after Drain: %v", err)
	}
	ln.Close() //nolint:errcheck
}

// TestDebugServerDrainWaitsForInflight asserts graceful drain lets an
// in-flight request finish: a 1-second pprof trace started before Drain
// must complete with a 200 while Drain (5s budget) waits for it.
func TestDebugServerDrainWaitsForInflight(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr().String()
	type reply struct {
		status int
		err    error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Get(base + "/debug/pprof/trace?seconds=1")
		if err != nil {
			done <- reply{err: err}
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close() //nolint:errcheck
		done <- reply{status: resp.StatusCode}
	}()
	time.Sleep(200 * time.Millisecond) // let the trace request start
	if err := srv.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request aborted by drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", r.status)
	}
}
