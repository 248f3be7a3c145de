package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
)

// DefaultShardRuns is the model-ensemble shard granularity used by
// PoolEvaluator when none is given: small enough to spread a default
// 200-run ensemble across a handful of workers. A worker decodes a
// task's spec once, not per shard, and takes its model from the
// process's model memo, so a shard's fixed cost is a lease round trip
// (~40 µs on loopback) and one accumulator back (0.6 KB of varints at
// B = 100 whatever the shard size, ~8 µs to frame, checksum, decode
// and fold) — the round trip alone is of the order of sampling 32 runs
// at ~2 µs each: smaller is mostly overhead.
const DefaultShardRuns = 32

// Evaluate computes a canonicalized request's result locally: the
// server's default evaluator, and the reference result a pool run must
// reproduce byte for byte. It is a pure function of (req, seed) — the
// server's cache correctness and the singleflight layer both depend on
// that.
func Evaluate(ctx context.Context, req *Request) (any, error) {
	return evalKind(ctx, req, progress{})
}

// EvalShard is the worker-side dist.Evaluator over serve requests: spec
// is a JSON request (decoded by DecodeRequest and so canonicalized on
// arrival: worker and coordinator agree on defaults), [lo, hi) selects
// the work units.
//
// For KindModel the units are ensemble run indices: run i draws from
// modelRNG(seed).At(i) — the identical substream the local evaluator
// gives it — and the payload is the core.EnsembleAccum of the range in
// its binary form, sampled by the same chunked core.Model.SampleRuns the
// local evaluator runs over [0, runs) (so a large shard still fans over
// the worker process's par pool) and folded coordinator-side in index
// order. Every other kind is a single indivisible unit ([0, 1)); the
// payload is the JSON response body, embedded verbatim in the envelope
// so it carries the exact bytes a local evaluation would have produced.
//
// Concurrent shards of a task share one prepared request, and tasks
// with equal chain parameters one memoized core.Model, which is
// immutable; Evaluate and everything under it only reads its *Request —
// a kind that wrote to it would race here.
func EvalShard(ctx context.Context, spec []byte, lo, hi int) ([]byte, error) {
	req, err := dist.Prepared(ctx, func() (*Request, error) { return DecodeRequest(bytes.NewReader(spec)) })
	if err != nil {
		return nil, err
	}
	if req.Kind != KindModel {
		if lo != 0 || hi != 1 {
			return nil, fmt.Errorf("%w: kind %q is a single unit, got shard [%d,%d)", ErrBadRequest, req.Kind, lo, hi)
		}
		result, err := Evaluate(ctx, req)
		if err != nil {
			return nil, err
		}
		return json.Marshal(result)
	}
	if lo < 0 || hi > req.Model.Runs || lo >= hi {
		return nil, fmt.Errorf("%w: shard [%d,%d) outside runs [0,%d)", ErrBadRequest, lo, hi, req.Model.Runs)
	}
	m, err := models.get(req.Model)
	if err != nil {
		return nil, err
	}
	acc, err := m.SampleRuns(ctx, modelRNG(req.Seed), lo, hi)
	if err != nil {
		return nil, err
	}
	return acc.AppendBinary(nil)
}

// Pool is the slice of a dist coordinator the serving layer needs;
// *dist.Coordinator satisfies it.
type Pool interface {
	Run(ctx context.Context, t dist.Task) ([][]byte, error)
}

// PoolEvaluator returns a Server evaluator that delegates computation
// to a worker pool. No binary wires it in — local evaluation is faster
// at every size serve admits (DESIGN.md §11) — and it stays as the
// serve_dist benchmark's fixture and the subject of the pool's
// byte-identity tests. Model ensembles shard into shardRuns-sized index
// ranges (DefaultShardRuns if <= 0) whose accumulators fold — in index
// order, through the same core.EnsembleAccum merge as the local pool's
// chunks — into results bit-identical to local evaluation; a payload
// sized for another B, or payloads that do not account for every run,
// fail the query. Other kinds ship as one shard and the worker's
// response bytes are embedded verbatim. The evaluator sits behind the
// server's existing cache, singleflight, and admission gate: only
// admitted cache misses reach the pool.
func PoolEvaluator(pool Pool, shardRuns int) func(ctx context.Context, req *Request) (any, error) {
	if shardRuns <= 0 {
		shardRuns = DefaultShardRuns
	}
	return func(ctx context.Context, req *Request) (any, error) {
		spec, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		t := dist.Task{
			Kind:      req.Kind,
			Spec:      spec,
			Canonical: req.Canonical(),
			N:         1,
			ShardSize: 1,
		}
		if req.Kind == KindModel {
			t.N = req.Model.Runs
			t.ShardSize = shardRuns
		}
		payloads, err := pool.Run(ctx, t)
		if err != nil {
			return nil, err
		}
		if req.Kind != KindModel {
			return json.RawMessage(payloads[0]), nil
		}
		acc := core.NewEnsembleAccum(req.Model.B)
		// One scratch takes every payload: UnmarshalBinary overwrites all
		// of it, so a shorter curve fails the merge, never replays the last.
		part := core.NewEnsembleAccum(req.Model.B)
		for i, p := range payloads {
			if err := part.UnmarshalBinary(p); err != nil {
				return nil, fmt.Errorf("serve: pool shard %d payload: %w", i, err)
			}
			if err := acc.Merge(part); err != nil {
				return nil, fmt.Errorf("serve: pool shard %d payload: %w", i, err)
			}
		}
		if acc.Runs() != req.Model.Runs {
			return nil, fmt.Errorf("serve: pool returned %d runs for %d", acc.Runs(), req.Model.Runs)
		}
		return modelOut(req.Model, acc.Stats()), nil
	}
}
