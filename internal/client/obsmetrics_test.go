package client

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestClientMetricsPopulated runs a loopback download with a registry and
// logger attached and checks the client.<name>.* counters fill in.
func TestClientMetricsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	logger := obs.NewLogger(&syncWriter{buf: &logBuf}, slog.LevelDebug)
	sw := newTestSwarm(t, 1, func(i int, cfg *Config) {
		cfg.Name = "dl"
		cfg.Metrics = reg
		cfg.Logger = logger
	})
	waitAll(t, sw.clients, 20*time.Second)

	snap := reg.Snapshot()
	for _, name := range []string{
		"client.dl.msgs_in", "client.dl.msgs_out",
		"client.dl.bytes_in", "client.dl.bytes_out",
		"client.dl.connects", "client.dl.pieces_verified",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("%s = %d, want > 0", name, snap.Counters[name])
		}
	}
	// Every piece verified exactly once.
	if got, want := snap.Counters["client.dl.pieces_verified"],
		int64(sw.torrent.Info.NumPieces()); got != want {
		t.Errorf("pieces_verified = %d, want %d", got, want)
	}
	// The payload dominates received bytes: more bytes than messages.
	if snap.Counters["client.dl.bytes_in"] <= snap.Counters["client.dl.msgs_in"] {
		t.Errorf("bytes_in %d not > msgs_in %d",
			snap.Counters["client.dl.bytes_in"], snap.Counters["client.dl.msgs_in"])
	}

	sw.clients[0].Stop()
	out := logBuf.String()
	for _, want := range []string{"client started", "download complete", "component=client"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q", want)
		}
	}
}

// TestClientNilMetricsSafe pins the metrics-off contract: a client given
// no registry (the default) works end to end and still counts, into
// handles registered nowhere; a registry attached later sees only its own
// counts.
func TestClientNilMetricsSafe(t *testing.T) {
	sw := newTestSwarm(t, 1, nil)
	waitAll(t, sw.clients, 20*time.Second)
	if got, want := sw.clients[0].met.piecesVerified.Value(),
		int64(sw.torrent.Info.NumPieces()); got != want {
		t.Errorf("uninstrumented client counted %d verified pieces, want %d", got, want)
	}

	off := newClientMetrics(nil, "x")
	off.countIn(1)
	off.countOut(1)
	off.chokes.Inc()
	off.announceFailures.Inc()
	if off.msgsIn.Value() != 1 || off.bytesOut.Value() != 1+wireOverhead {
		t.Error("nil-registry handles must still count")
	}

	reg := obs.NewRegistry()
	on := newClientMetrics(reg, "x")
	on.countIn(10)
	for name, v := range reg.Snapshot().Counters {
		want := map[string]int64{"client.x.msgs_in": 1, "client.x.bytes_in": 10 + wireOverhead}[name]
		if v != want {
			t.Errorf("%s = %d, want %d (nil-registry counts leaked in?)", name, v, want)
		}
	}
}

// syncWriter serializes concurrent log writes from client goroutines.
type syncWriter struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}
