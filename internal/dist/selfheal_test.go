package dist_test

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/retry"
)

// TestQuarantineRoutesAroundFlakyWorker: a worker that nacks everything
// accumulates strikes, is quarantined, and the pool still completes the
// task through the healthy worker — with results byte-identical to the
// healthy evaluator's output.
func TestQuarantineRoutesAroundFlakyWorker(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reg := obs.NewRegistry()
	coord := dist.New(dist.Config{
		Registry:   reg,
		SweepEvery: 20 * time.Millisecond, // dispatch backoff-gated requeues promptly
		Requeue:    retry.Policy{MaxAttempts: 30, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()

	stopBad := startWorker(t, ctx, dist.WorkerConfig{Name: "a-bad", Slots: 2, Addr: addr},
		"sum", func(context.Context, []byte, int, int) ([]byte, error) {
			return nil, errors.New("synthetic failure")
		})
	defer stopBad()
	stopGood := startWorker(t, ctx, dist.WorkerConfig{Name: "b-good", Slots: 2, Addr: addr},
		"sum", sumEval)
	defer stopGood()
	waitFor(t, func() bool { return coord.Workers() == 2 })

	task := dist.Task{Kind: "sum", Spec: []byte(`{}`), N: 8, ShardSize: 1}
	payloads, err := coord.Run(ctx, task)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, p := range payloads {
		want, _ := sumEval(ctx, task.Spec, i, i+1)
		if !bytes.Equal(p, want) {
			t.Fatalf("shard %d payload %s, want %s", i, p, want)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["dist.strikes"] < 3 {
		t.Fatalf("strikes = %d, want >= 3 (the quarantine threshold)", snap.Counters["dist.strikes"])
	}
	// The flaky worker ends the run quarantined; the good worker does not.
	if q := snap.Gauges["dist.quarantined_workers"]; q != 1 {
		t.Fatalf("dist.quarantined_workers = %v, want 1 (the flaky worker)", q)
	}
}

// TestQuarantineLoggedOnce: a nack storm logs "worker quarantined" once
// per quarantine, not once per strike. Each worker holds four leases and
// nacks every one, so the strikes for leases still in flight when its
// third strike quarantines it land inside that quarantine.
func TestQuarantineLoggedOnce(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reg := obs.NewRegistry()
	logs := &quarantineLog{by: map[string]int{}}
	coord := dist.New(dist.Config{
		Registry: reg, Logger: slog.New(logs),
		Requeue: retry.Policy{MaxAttempts: 30, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	nack := func(context.Context, []byte, int, int) ([]byte, error) {
		return nil, errors.New("synthetic failure")
	}
	for _, name := range []string{"a", "b"} {
		defer startWorker(t, ctx, dist.WorkerConfig{Name: name, Slots: 4, Addr: addr}, "sum", nack)()
	}
	waitFor(t, func() bool { return coord.Workers() == 2 })

	_, err = coord.Run(ctx, dist.Task{Kind: "sum", Spec: []byte(`{}`), N: 16, ShardSize: 1})
	if !errors.Is(err, dist.ErrNoHealthyWorker) {
		t.Fatalf("run on a nacking pool: %v, want ErrNoHealthyWorker", err)
	}
	if n := reg.Snapshot().Counters["dist.strikes"]; n <= 2*3 {
		t.Fatalf("strikes = %d, want some inside a quarantine (more than 3 per worker)", n)
	}
	logs.mu.Lock()
	defer logs.mu.Unlock()
	if logs.by["a"] != 1 || logs.by["b"] != 1 || len(logs.by) != 2 {
		t.Fatalf("quarantine records by worker = %v, want one each for a and b", logs.by)
	}
}

// quarantineLog is a slog handler counting "worker quarantined"
// records by worker.
type quarantineLog struct {
	mu sync.Mutex
	by map[string]int
}

func (h *quarantineLog) Enabled(context.Context, slog.Level) bool { return true }
func (h *quarantineLog) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *quarantineLog) WithGroup(string) slog.Handler            { return h }

func (h *quarantineLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "worker quarantined" {
		return nil
	}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "worker" {
			h.mu.Lock()
			h.by[a.Value.String()]++
			h.mu.Unlock()
		}
		return true
	})
	return nil
}

// TestHedgeReissueWins: a wedged worker holds one shard while the fast
// worker builds up a latency distribution; once the shard's age clears
// the percentile-derived hedge threshold it is speculatively re-issued,
// the duplicate wins, and the hedge counters move.
func TestHedgeReissueWins(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reg := obs.NewRegistry()
	coord := dist.New(dist.Config{
		Registry: reg,
		// 4 × LeaseTTL is far away, so only the percentile can re-issue.
		LeaseTTL: 5 * time.Second, SweepEvery: 10 * time.Millisecond,
	})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()

	release := make(chan struct{})
	defer close(release)
	stopSlow := startWorker(t, ctx, dist.WorkerConfig{Name: "slow", Slots: 1, Addr: addr},
		"sum", func(ctx context.Context, spec []byte, lo, hi int) ([]byte, error) {
			select { // wedge until the test ends; echoed pings keep the connection up
			case <-release:
			case <-ctx.Done():
			}
			return sumEval(ctx, spec, lo, hi)
		})
	defer stopSlow()
	stopFast := startWorker(t, ctx, dist.WorkerConfig{Name: "fast", Slots: 1, Addr: addr},
		"sum", sumEval)
	defer stopFast()
	waitFor(t, func() bool { return coord.Workers() == 2 })

	// 16 shards: the fast worker completes at least the 8 the percentile
	// needs while the slow one sits on its first.
	task := dist.Task{Kind: "sum", Spec: []byte(`{}`), N: 16, ShardSize: 1}
	payloads, err := coord.Run(ctx, task)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, p := range payloads {
		want, _ := sumEval(ctx, task.Spec, i, i+1)
		if !bytes.Equal(p, want) {
			t.Fatalf("shard %d payload %s, want %s", i, p, want)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["dist.hedges"] < 1 {
		t.Fatalf("hedges = %d, want >= 1", snap.Counters["dist.hedges"])
	}
	if snap.Counters["dist.hedge_wins"] < 1 {
		t.Fatalf("hedge_wins = %d, want >= 1", snap.Counters["dist.hedge_wins"])
	}
}
