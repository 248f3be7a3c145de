package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/serve"
)

// startPool stands up a coordinator plus n loopback workers running
// serve.EvalShard for every kind a server accepts, returning the
// coordinator and a stop func.
func startPool(t testing.TB, n int, cfg dist.Config, mutate func(i int, wc *dist.WorkerConfig)) (*dist.Coordinator, func()) {
	t.Helper()
	coord := dist.New(cfg)
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wc := dist.WorkerConfig{Name: fmt.Sprintf("w%d", i), Slots: 2, Addr: addr}
		if mutate != nil {
			mutate(i, &wc)
		}
		wk := dist.NewWorker(wc)
		for _, kind := range []string{serve.KindModel, serve.KindEfficiency, serve.KindSim, serve.KindStability, serve.KindFluid} {
			wk.Register(kind, serve.EvalShard)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = wk.Run(ctx)
		}()
	}
	return coord, func() {
		cancel()
		coord.Close()
		wg.Wait()
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestPoolModelWorkerCountInvariance is the PR's acceptance property:
// a model ensemble evaluated through 1, 2, and 4 workers — and through
// the in-process jobs pool — yields byte-identical response bodies. The
// shard size deliberately does not divide Runs so the last shard is
// ragged. The second seed has the first one's chain parameters, so its
// model is a hit in the process's model memo, locally and on every
// worker, and must still read the same bytes as local evaluation.
func TestPoolModelWorkerCountInvariance(t *testing.T) {
	var reqs []*serve.Request
	var wants [][]byte
	for _, seed := range []uint64{42, 43} {
		req := &serve.Request{
			Kind:  serve.KindModel,
			Seed:  seed,
			Model: &serve.ModelQuery{B: 60, Runs: 50},
		}
		if err := req.Canonicalize(); err != nil {
			t.Fatal(err)
		}
		local, err := serve.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		reqs, wants = append(reqs, req), append(wants, mustJSON(t, local))
	}
	if bytes.Equal(wants[0], wants[1]) {
		t.Fatal("seeds 42 and 43 evaluate to the same bytes")
	}

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			coord, stop := startPool(t, workers, dist.Config{}, nil)
			defer stop()
			for i, req := range reqs {
				got, err := serve.PoolEvaluator(coord, 8)(context.Background(), req)
				if err != nil {
					t.Fatalf("seed %d: pool: %v", req.Seed, err)
				}
				if gb := mustJSON(t, got); !bytes.Equal(gb, wants[i]) {
					t.Fatalf("seed %d: pool result diverges from local:\n pool: %.120s\nlocal: %.120s", req.Seed, gb, wants[i])
				}
			}
		})
	}
}

// BenchmarkPoolCrossover is one model query at serve_dist's chain
// parameters (B = 100, K = 7, S = 40) evaluated in-process and through a
// loopback pool of 1 and 2 single-slot workers at the default shard size,
// from serve_dist's 256 runs up to serve's cap of 20 000. Per size, the
// pool/local ratio of ns/op says whether the pool ever pays on one box.
func BenchmarkPoolCrossover(b *testing.B) {
	ctx := context.Background()
	for _, runs := range []int{256, 2048, 20000} {
		req := &serve.Request{Kind: serve.KindModel, Seed: 1, Model: &serve.ModelQuery{B: 100, K: 7, S: 40, Runs: runs}}
		if err := req.Canonicalize(); err != nil {
			b.Fatal(err)
		}
		bench := func(eval func(context.Context, *serve.Request) (any, error)) func(*testing.B) {
			return func(b *testing.B) {
				if _, err := eval(ctx, req); err != nil { // connects the workers, builds the model
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eval(ctx, req); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.Run(fmt.Sprintf("runs=%d/local", runs), bench(serve.Evaluate))
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("runs=%d/pool=%d", runs, workers), func(b *testing.B) {
				coord, stop := startPool(b, workers, dist.Config{}, func(_ int, wc *dist.WorkerConfig) { wc.Slots = 1 })
				defer stop()
				bench(serve.PoolEvaluator(coord, 0))(b)
			})
		}
	}
}

// TestPoolShardSizeInvariance: the same task sharded at different
// granularities merges to the same bytes.
func TestPoolShardSizeInvariance(t *testing.T) {
	req := &serve.Request{
		Kind:  serve.KindModel,
		Seed:  3,
		Model: &serve.ModelQuery{B: 40, Runs: 24},
	}
	if err := req.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	coord, stop := startPool(t, 2, dist.Config{}, nil)
	defer stop()

	var want []byte
	for _, shardRuns := range []int{1, 7, 24, 100} {
		got, err := serve.PoolEvaluator(coord, shardRuns)(context.Background(), req)
		if err != nil {
			t.Fatalf("shardRuns=%d: %v", shardRuns, err)
		}
		gb := mustJSON(t, got)
		if want == nil {
			want = gb
		} else if !bytes.Equal(gb, want) {
			t.Fatalf("shardRuns=%d diverges", shardRuns)
		}
	}
}

// TestPoolSimByteIdentity: every request kind a server accepts
// evaluates through the pool — model ensembles as merged shards, every
// other kind as one shard whose bytes embed verbatim — and each pooled
// body must marshal identically to a local evaluation. One row per kind
// in serve's kind table, each under its own deadline: a kind the
// workers do not register is nacked until the deadline, not answered.
func TestPoolSimByteIdentity(t *testing.T) {
	coord, stop := startPool(t, 2, dist.Config{}, nil)
	defer stop()
	for _, req := range []*serve.Request{
		{Kind: serve.KindModel, Seed: 4, Model: &serve.ModelQuery{B: 40, Runs: 40}},
		{Kind: serve.KindEfficiency, Seed: 5, Efficiency: &serve.EfficiencyQuery{K: 6}},
		{Kind: serve.KindSim, Seed: 11, Sim: &serve.SimQuery{Horizon: 40}},
		{Kind: serve.KindStability, Seed: 12, Sim: &serve.SimQuery{Horizon: 40}},
		{Kind: serve.KindFluid, Seed: 13, Fluid: &serve.FluidQuery{Horizon: 50, Grid: 20}},
	} {
		t.Run(req.Kind, func(t *testing.T) {
			if err := req.Canonicalize(); err != nil {
				t.Fatal(err)
			}
			local, err := serve.Evaluate(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			got, err := serve.PoolEvaluator(coord, 0)(ctx, req)
			if err != nil {
				t.Fatalf("pool: %v", err)
			}
			if gb, wb := mustJSON(t, got), mustJSON(t, local); !bytes.Equal(gb, wb) {
				t.Fatalf("%s pool result diverges:\n pool: %.160s\nlocal: %.160s", req.Kind, gb, wb)
			}
		})
	}
}

// TestPoolChaosMidLeaseIdentity is the fault half of the acceptance
// criterion: one of two workers rides a connection that dies after a
// fixed byte budget — mid-lease — forcing handoff and redial, and the
// merged result must still match the healthy local run byte for byte.
func TestPoolChaosMidLeaseIdentity(t *testing.T) {
	req := &serve.Request{
		Kind:  serve.KindModel,
		Seed:  9,
		Model: &serve.ModelQuery{B: 40, Runs: 40},
	}
	if err := req.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	local, err := serve.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, local)

	var dials atomic.Int32
	cfg := dist.Config{LeaseTTL: 300 * time.Millisecond, SweepEvery: 20 * time.Millisecond}
	coord, stop := startPool(t, 2, cfg, func(i int, wc *dist.WorkerConfig) {
		if i != 0 {
			return
		}
		wc.Name = "flaky"
		wc.Dial = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			// First connection dies after ~1.5KB total traffic — enough
			// to handshake and accept a lease, not enough to return it.
			if dials.Add(1) == 1 {
				return faults.DropConn(c, 1500), nil
			}
			return c, nil
		}
	})
	defer stop()

	got, err := serve.PoolEvaluator(coord, 4)(context.Background(), req)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	if gb := mustJSON(t, got); !bytes.Equal(gb, want) {
		t.Fatalf("chaos pool result diverges from local:\n pool: %.120s\nlocal: %.120s", gb, want)
	}
	// The merge can finish on the healthy worker before the flaky one's
	// connection has carried its 1.5 KB — and an idle connection never
	// will — so keep leasing until the reconnect loop proves the conn died.
	deadline := time.Now().Add(5 * time.Second)
	for dials.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("fault never tripped a redial (dials=%d)", dials.Load())
		}
		if _, err := serve.PoolEvaluator(coord, 4)(context.Background(), req); err != nil {
			t.Fatalf("pool: %v", err)
		}
	}

	// The same property under seeded connection faults: every profile at
	// 2 and 4 workers (rounds 1..14 of the worker-count cycle 1/2/4, minus
	// the fault-free single-worker rounds).
	var injected, healed int64
	for _, row := range []struct{ round, workers int }{
		{1, 2}, {2, 4}, {4, 2}, {5, 4}, {7, 2}, {8, 4}, {10, 2}, {11, 4}, {13, 2}, {14, 4},
	} {
		t.Run(fmt.Sprintf("round=%d,workers=%d", row.round, row.workers), func(t *testing.T) {
			i, h := chaosRound(t, row.round, row.workers)
			injected, healed = injected+i, healed+h
		})
	}
	if injected == 0 || healed == 0 {
		t.Errorf("faults injected on %d conns, self-healing counters moved %d: want both > 0", injected, healed)
	}

	// One deterministic row: worker 1's first connection stops reading
	// right after its hello ack, so the leases it is sent are never read
	// and it never echoes a ping. It can still write; only the silence
	// gives it away. Six shards: with fewer than eight completed, no
	// shard is hedged before the silent connection is closed.
	t.Run("stall-after-hello,workers=2", func(t *testing.T) {
		var ack bytes.Buffer
		if err := dist.WriteFrame(&ack, &dist.Frame{T: dist.TypeHello, V: dist.ProtocolVersion}); err != nil {
			t.Fatal(err)
		}
		var dials atomic.Int32
		reg := obs.NewRegistry()
		coord, stop := startPool(t, 2, dist.Config{
			Registry: reg, LeaseTTL: 400 * time.Millisecond, SweepEvery: 25 * time.Millisecond,
			Requeue: retry.Policy{MaxAttempts: 60, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
		}, func(i int, wc *dist.WorkerConfig) {
			if i != 1 {
				return
			}
			wc.Dial = func(addr string) (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil || dials.Add(1) > 1 {
					return c, err
				}
				return faults.StallConn(c, int64(ack.Len())), nil
			}
		})
		defer stop()
		for deadline := time.Now().Add(5 * time.Second); coord.Workers() < 2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("workers never connected")
			}
		}
		req := &serve.Request{Kind: serve.KindModel, Seed: 21, Model: &serve.ModelQuery{B: 40, Runs: 24}}
		if err := req.Canonicalize(); err != nil {
			t.Fatal(err)
		}
		got, err := serve.PoolEvaluator(coord, 4)(context.Background(), req)
		if err != nil {
			t.Fatalf("pool: %v", err)
		}
		local, err := serve.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if gb, want := mustJSON(t, got), mustJSON(t, local); !bytes.Equal(gb, want) {
			t.Fatalf("stalled-worker pool result diverges from local:\n pool: %.120s\nlocal: %.120s", gb, want)
		}
		c := reg.Snapshot().Counters
		if c["dist.reassignments"] < 1 || c["dist.strikes"] < 1 {
			t.Fatalf("reassignments = %d, strikes = %d: want both >= 1", c["dist.reassignments"], c["dist.strikes"])
		}
	})
}

// chaosProfiles are the fault mixes a chaos round cycles through:
// latency, drop, corruption, stall, then all four.
var chaosProfiles = [5]faults.Spec{
	{Latency: 2 * time.Millisecond},
	{DropRate: 0.4, DropAfter: 2048},
	{CorruptRate: 0.35},
	{StallRate: 0.25},
	{Latency: time.Millisecond, DropRate: 0.25, DropAfter: 4096, CorruptRate: 0.2, StallRate: 0.15},
}

// chaosRound merges one ensemble on a pool whose worker 0 is clean (the
// round can always finish) and whose others dial through the round's
// profile, seeded from (round, worker): the spec a failure prints replays
// it. It returns the faulted-connection and self-healing counter sums.
func chaosRound(t *testing.T, round, workers int) (injected, healed int64) {
	reg := obs.NewRegistry()
	specs := make([]string, workers)
	coord, stop := startPool(t, workers, dist.Config{
		Registry: reg, LeaseTTL: 400 * time.Millisecond, SweepEvery: 25 * time.Millisecond,
		Requeue: retry.Policy{MaxAttempts: 60, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	}, func(i int, wc *dist.WorkerConfig) {
		if i == 0 {
			return
		}
		spec := chaosProfiles[round%5]
		spec.Seed = 7 ^ uint64(round)<<16 ^ uint64(i)<<1
		specs[i] = spec.String()
		inj := faults.NewInjector(spec)
		inj.Instrument(reg)
		wc.Reconnect = retry.Policy{MaxAttempts: 1000, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
		wc.Dial = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return inj.WrapConn(c), nil
		}
	})
	defer stop()
	// Let the faulty workers connect, or the clean one finishes alone;
	// one whose hello its own faults eat only redials, hence the bound.
	for deadline := time.Now().Add(time.Second); coord.Workers() < workers && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	req := &serve.Request{Kind: serve.KindModel, Seed: 7 + uint64(round), Model: &serve.ModelQuery{B: 40, Runs: 240}}
	if err := req.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got, err := serve.PoolEvaluator(coord, 4)(ctx, req)
	if err != nil {
		t.Fatalf("pool: %v\nworker faults (worker 0 clean): %q", err, specs[1:])
	}
	local, err := serve.Evaluate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if gb, want := mustJSON(t, got), mustJSON(t, local); !bytes.Equal(gb, want) {
		t.Fatalf("chaos pool result diverges from local:\n pool: %.120s\nlocal: %.120s\nworker faults (worker 0 clean): %q",
			gb, want, specs[1:])
	}
	c := reg.Snapshot().Counters
	return c["faults.conns_injected"], c["dist.strikes"] + c["dist.reassignments"] + c["dist.hedges"]
}

// payloadPool is a serve.Pool that answers every task with fixed
// payloads, standing in for a worker that returns the wrong thing.
type payloadPool [][]byte

func (p payloadPool) Run(context.Context, dist.Task) ([][]byte, error) { return p, nil }

// TestPoolMergeRejections: the coordinator-side fold refuses shard
// payloads that are not accumulators of this query — sized for another
// B, in protocol v1's format, or not adding up to runs — instead of
// answering with a skewed ensemble.
func TestPoolMergeRejections(t *testing.T) {
	req := &serve.Request{Kind: serve.KindModel, Seed: 5, Model: &serve.ModelQuery{B: 20, Runs: 12}}
	if err := req.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	spec := mustJSON(t, req)
	shard := func(spec []byte, lo, hi int) []byte {
		t.Helper()
		b, err := serve.EvalShard(context.Background(), spec, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	other := *req.Model
	other.B = 21
	otherSpec := mustJSON(t, &serve.Request{Kind: serve.KindModel, Seed: 5, Model: &other})

	good := payloadPool{shard(spec, 0, 8), shard(spec, 8, 12)}
	if _, err := serve.PoolEvaluator(good, 8)(context.Background(), req); err != nil {
		t.Fatalf("valid payloads: %v", err)
	}
	cases := map[string]payloadPool{
		"wrong B":       {shard(spec, 0, 8), shard(otherSpec, 8, 12)},
		"missing shard": {shard(spec, 0, 8)},
		"shard twice":   {shard(spec, 0, 8), shard(spec, 0, 8)},
		"v1 partials":   {[]byte(`[{"potSum":[0],"potCnt":[1],"first":[0],"steps":3,"done":true}]`)},
		"empty curves":  {[]byte(`{"potSum":[],"potCnt":[],"fpSum":[],"fpCnt":[],"completion":[1,1,1,1,1,1,1,1,1,1,1,1]}`)},
		"not json":      {[]byte(`{`)},
	}
	for name, pool := range cases {
		if _, err := serve.PoolEvaluator(pool, 8)(context.Background(), req); err == nil {
			t.Errorf("%s: pool evaluator answered without error", name)
		}
	}
}

// TestEvalShardRejections: malformed specs and out-of-range shards fail
// loudly instead of producing partial data.
func TestEvalShardRejections(t *testing.T) {
	model := mustJSON(t, &serve.Request{Kind: serve.KindModel, Model: &serve.ModelQuery{Runs: 8}})
	sim := mustJSON(t, &serve.Request{Kind: serve.KindSim})
	cases := []struct {
		name   string
		spec   []byte
		lo, hi int
	}{
		{"junk spec", []byte("not json"), 0, 1},
		{"model shard past runs", model, 4, 9},
		{"model empty shard", model, 3, 3},
		{"model negative lo", model, -1, 2},
		{"sim multi-unit shard", sim, 0, 2},
		{"sim nonzero lo", sim, 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := serve.EvalShard(context.Background(), tc.spec, tc.lo, tc.hi); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}
