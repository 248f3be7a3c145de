package tracker

import (
	"bytes"
	"context"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestServerInstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	srv := NewServer()
	srv.Instrument(reg, obs.NewLogger(&logBuf, slog.LevelDebug))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{HTTP: ts.Client()}
	ctx := context.Background()
	hash := id(0xB2)

	for i := byte(1); i <= 3; i++ {
		if _, err := cl.Announce(ctx, AnnounceRequest{
			AnnounceURL: ts.URL + "/announce",
			InfoHash:    hash, PeerID: id(i), Port: 6880 + int(i), Left: int64(i) - 1,
			Event: EventStarted,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One malformed announce.
	resp, err := ts.Client().Get(ts.URL + "/announce?info_hash=short")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	snap := reg.Snapshot()
	if got := snap.Counters["tracker.announces"]; got != 3 {
		t.Errorf("tracker.announces = %d, want 3", got)
	}
	if got := snap.Counters["tracker.failures"]; got != 1 {
		t.Errorf("tracker.failures = %d, want 1", got)
	}
	if got := snap.Counters["tracker.response_bytes"]; got <= 0 {
		t.Errorf("tracker.response_bytes = %d, want > 0", got)
	}
	h, ok := snap.Histograms["tracker.announce_seconds"]
	if !ok || h.Count != 3 {
		t.Fatalf("announce_seconds histogram = %+v, want count 3", h)
	}
	if h.Max <= 0 {
		t.Errorf("announce latency max %g, want > 0", h.Max)
	}
	if got := snap.Gauges["tracker.peers"]; got != 3 {
		t.Errorf("tracker.peers = %g, want 3", got)
	}
	if got := snap.Gauges["tracker.swarms"]; got != 1 {
		t.Errorf("tracker.swarms = %g, want 1", got)
	}

	out := logBuf.String()
	if !strings.Contains(out, "component=tracker") || !strings.Contains(out, "announce") {
		t.Errorf("log output missing tracker announce events: %q", out)
	}
	if !strings.Contains(out, "announce rejected") {
		t.Errorf("log output missing rejection event: %q", out)
	}
}

// TestServerUninstrumentedStillWorks pins the metrics-off contract: a
// server never given a registry serves and counts into handles registered
// nowhere (one good and one malformed announce here); a registry attached
// afterwards starts from zero and sees only what follows.
func TestServerUninstrumentedStillWorks(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{HTTP: ts.Client()}
	announce := func() {
		t.Helper()
		if _, err := cl.Announce(context.Background(), AnnounceRequest{
			AnnounceURL: ts.URL + "/announce",
			InfoHash:    id(0xC3), PeerID: id(9), Port: 6999, Left: 10,
			Event: EventStarted,
		}); err != nil {
			t.Fatal(err)
		}
	}
	announce()
	resp, err := ts.Client().Get(ts.URL + "/announce?info_hash=short")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if srv.met.announces.Value() != 1 || srv.met.failures.Value() != 1 {
		t.Errorf("uninstrumented server counted %d announces, %d failures; want 1, 1",
			srv.met.announces.Value(), srv.met.failures.Value())
	}

	reg := obs.NewRegistry()
	srv.Instrument(reg, nil)
	if snap := reg.Snapshot(); snap.Counters["tracker.announces"] != 0 || snap.Counters["tracker.failures"] != 0 {
		t.Errorf("fresh registry already holds counts: %+v", snap.Counters)
	}
	announce()
	if got := reg.Snapshot().Counters["tracker.announces"]; got != 1 {
		t.Errorf("tracker.announces = %d after one instrumented announce, want 1", got)
	}
}
