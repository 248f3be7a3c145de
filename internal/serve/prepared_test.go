package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/serve"
)

// TestPoolScratchEmptiedBetweenPayloads: PoolEvaluator decodes every
// payload of a task into one scratch accumulator, so what a payload
// leaves out must read as absent — and fail the query — rather than as
// whatever the previous shard put there.
func TestPoolScratchEmptiedBetweenPayloads(t *testing.T) {
	req := &serve.Request{Kind: serve.KindModel, Seed: 5, Model: &serve.ModelQuery{B: 20, Runs: 16}}
	if err := req.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	spec := mustJSON(t, req)
	good := make([][]byte, 2)
	for i := range good {
		var err error
		if good[i], err = serve.EvalShard(context.Background(), spec, 8*i, 8*i+8); err != nil {
			t.Fatal(err)
		}
	}
	// edit rewrites the second shard's accumulator.
	edit := func(f func(*core.EnsembleAccum)) payloadPool {
		t.Helper()
		acc := &core.EnsembleAccum{}
		if err := acc.UnmarshalBinary(good[1]); err != nil {
			t.Fatal(err)
		}
		if len(acc.Completion) != 8 {
			t.Fatalf("shard holds %d completed runs, want 8", len(acc.Completion))
		}
		f(acc)
		enc, err := acc.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return payloadPool{good[0], enc}
	}

	if _, err := serve.PoolEvaluator(payloadPool(good), 8)(context.Background(), req); err != nil {
		t.Fatalf("unedited payloads: %v", err)
	}
	cases := map[string]payloadPool{
		"curves missing": edit(func(a *core.EnsembleAccum) { a.PotSum, a.PotCnt, a.FPSum, a.FPCnt = nil, nil, nil, nil }),
		"curves short": edit(func(a *core.EnsembleAccum) {
			a.PotSum, a.PotCnt, a.FPSum, a.FPCnt = a.PotSum[:20], a.PotCnt[:20], a.FPSum[:20], a.FPCnt[:20]
		}),
		"completion missing": edit(func(a *core.EnsembleAccum) { a.Completion = nil }),
		"completion short":   edit(func(a *core.EnsembleAccum) { a.Completion = a.Completion[:7] }),
		"payload cut short":  {good[0], good[1][:len(good[1])-1]},
		"payload empty":      {good[0], nil},
	}
	for name, pool := range cases {
		if _, err := serve.PoolEvaluator(pool, 8)(context.Background(), req); err == nil {
			t.Errorf("%s: answered from the previous shard's values", name)
		}
	}
}

// TestConcurrentShardsShareOnePreparedRequest runs, on one four-slot
// worker, an eight-shard model task next to a non-model task leased over
// and over — every lease of a task reading the same prepared *Request —
// and holds each result to serve.Evaluate's bytes. Under -race it is the
// proof that evaluation treats the request as read-only.
func TestConcurrentShardsShareOnePreparedRequest(t *testing.T) {
	coord, stop := startPool(t, 1, dist.Config{}, func(_ int, wc *dist.WorkerConfig) { wc.Slots = 4 })
	defer stop()
	eval := serve.PoolEvaluator(coord, 8)
	reqs := []*serve.Request{
		{Kind: serve.KindModel, Seed: 7, Model: &serve.ModelQuery{B: 30, Runs: 64}},
		{Kind: serve.KindSim, Seed: 7, Sim: &serve.SimQuery{Horizon: 10}},
		{Kind: serve.KindStability, Seed: 7, Sim: &serve.SimQuery{Horizon: 30}},
		{Kind: serve.KindEfficiency, Efficiency: &serve.EfficiencyQuery{K: 3}},
	}
	var wg sync.WaitGroup
	for _, req := range reqs {
		if err := req.Canonicalize(); err != nil {
			t.Fatal(err)
		}
		local, err := serve.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want := mustJSON(t, local)
		// Identical tasks in flight share shard addresses — and with them
		// leases, and the prepared request.
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 3; j++ {
					got, err := eval(context.Background(), req)
					if err != nil {
						t.Errorf("%s: %v", req.Kind, err)
						return
					}
					if gb, err := json.Marshal(got); err != nil || !bytes.Equal(gb, want) {
						t.Errorf("%s: pooled result diverges from local (%v):\n pool: %.120s\nlocal: %.120s", req.Kind, err, gb, want)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}

// leaseContext returns the context a worker session hands a lease of
// spec — the one that carries the task's prepared slot — by parking an
// evaluator inside a real lease until the benchmark ends.
func leaseContext(b *testing.B, spec []byte) context.Context {
	b.Helper()
	coord := dist.New(dist.Config{})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	leased := make(chan context.Context)
	w := dist.NewWorker(dist.WorkerConfig{Addr: addr})
	w.Register(serve.KindModel, func(lctx context.Context, _ []byte, _, _ int) ([]byte, error) {
		leased <- lctx
		<-lctx.Done()
		return nil, lctx.Err()
	})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = w.Run(ctx) }()
	go func() {
		defer wg.Done()
		_, _ = coord.Run(ctx, dist.Task{Kind: serve.KindModel, Spec: spec, N: 1})
	}()
	b.Cleanup(func() { cancel(); coord.Close(); wg.Wait() })
	return <-leased
}

// BenchmarkEvalShard is one default-size shard of the serve_dist query
// (B = 100, S = 40): cold from a context with nothing prepared, and warm
// inside a lease whose task is already prepared. Both take the model from
// the process's memo (built by the first iteration), so the B/op gap is
// the spec decode and canonicalization a prepared task no longer pays.
func BenchmarkEvalShard(b *testing.B) {
	req := &serve.Request{Kind: serve.KindModel, Seed: 1, Model: &serve.ModelQuery{B: 100, S: 40, Runs: 256}}
	if err := req.Canonicalize(); err != nil {
		b.Fatal(err)
	}
	spec, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	run := func(ctx context.Context) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := serve.EvalShard(ctx, spec, 0, serve.DefaultShardRuns); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("cold", run(context.Background()))
	b.Run("warm", run(leaseContext(b, spec)))
}
