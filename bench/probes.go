package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fluid"
	"repro/internal/gateway"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
)

// probe calls fn over and over for scale.probeBudget (fn(i) gets the call's
// index, to walk the workload's inputs) and returns the mean host
// nanoseconds per call.
func probe(fn func(i int)) float64 {
	fn(0) // first call pays lazy initialisation
	n := 0
	start := time.Now()
	for time.Since(start) < scale.probeBudget {
		for k := 0; k < 16; k++ {
			fn(n)
			n++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// mixRequests is one mix-weighted block of the warm corpus as request
// bodies, the input of the serve probes.
func mixRequests() [][]byte {
	var out [][]byte
	for i, kind := range mixBlock {
		out = append(out, appendQuery(nil, kind, i, uint64(i)))
	}
	return out
}

// probeServe times the replica's per-request stages and the gateway's
// routing over the serve workloads' own requests.
func probeServe(_ uint64, out metrics) error {
	bodies := mixRequests()
	reqs := make([]*serve.Request, len(bodies))
	keys := make([]string, len(bodies))
	results := make([]serve.Response, len(bodies))
	for i, b := range bodies {
		req, err := serve.DecodeBatchItem(b)
		if err != nil {
			return err
		}
		result, err := serve.Evaluate(context.Background(), req)
		if err != nil {
			return err
		}
		reqs[i], keys[i] = req, req.Key()
		results[i] = serve.Response{V: req.V, Kind: req.Kind, Seed: req.Seed, Key: keys[i], Result: result}
	}
	n := len(bodies)
	out.set("serve.decode_us", probe(func(i int) { _, _ = serve.DecodeBatchItem(bodies[i%n]) })/1e3, "us")
	out.set("serve.key_us", probe(func(i int) { _ = reqs[i%n].Key() })/1e3, "us")
	out.set("serve.encode_us", probe(func(i int) { _, _ = json.Marshal(&results[i%n]) })/1e3, "us")

	corpus := warmCorpus()
	items := make([]json.RawMessage, batchItems)
	for i := range items {
		items[i] = corpus[(i*37)%len(corpus)].body
	}
	batchBody, err := json.Marshal(items)
	if err != nil {
		return err
	}
	out.set("serve.split_batch_us", probe(func(int) { _, _ = serve.SplitBatch(bytes.NewReader(batchBody)) })/1e3, "us")

	// A full 256-entry cache: Get hits, Put of a new key evicts.
	cache := serve.NewCache(256, 0)
	cacheKeys := make([]string, 256)
	for i := range cacheKeys {
		cacheKeys[i] = digest([]byte{byte(i), byte(i >> 8)})
		cache.Put(cacheKeys[i], bodies[0])
	}
	out.set("serve.cache_get_ns", probe(func(i int) { cache.Get(cacheKeys[i%256]) }), "ns")
	fresh := make([]string, 4096)
	for i := range fresh {
		fresh[i] = digest([]byte{byte(i), byte(i >> 8), 1})
	}
	out.set("serve.cache_put_ns", probe(func(i int) { cache.Put(fresh[i%len(fresh)], bodies[0]) }), "ns")

	ring, err := gateway.NewRing([]string{"http://replica0", "http://replica1"}, 0)
	if err != nil {
		return err
	}
	out.set("gateway.route_ns", probe(func(i int) { ring.Owner(keys[i%n]); ring.Walk(keys[i%n]) }), "ns")

	gate := par.NewGate(4, 16)
	out.set("par.gate_acquire_ns", probe(func(int) {
		if release, err := gate.Acquire(context.Background()); err == nil {
			release()
		}
	}), "ns")
	return nil
}

// probeCold adds the evaluators a cold request lands in: the efficiency
// solve and the two fluid solves, over the corpus' own parameters.
func probeCold(seed uint64, out metrics) error {
	if err := probeServe(seed, out); err != nil {
		return err
	}
	eff := core.EfficiencyParams{K: 8, PR: core.CalibratedPR(8)}
	out.set("core.efficiency_solve_us", probe(func(int) { _, _ = core.SolveEfficiency(eff, 1e-9, 500000) })/1e3, "us")

	// The corpus' fluid requests: the default Qiu–Srikant parameters over
	// horizons 20..29 on a 200-point grid.
	qs := fluid.QSParams{Lambda: 2, C: 1, Mu: 0.5, Eta: 1, Gamma: 1}
	var steps, rejected int
	out.set("fluid.qs_solve_us", probe(func(i int) {
		h := float64(20 + i%10)
		if _, sol, err := qs.SolveAdaptive(context.Background(), 0, 1, h, stats.Grid(0, h, 200), fluid.SolveOpts{}); err == nil {
			steps, rejected = steps+sol.Steps, rejected+sol.Rejected
		}
	})/1e3, "us")
	out.set("fluid.steps", float64(steps), "count")
	out.set("fluid.rejected_share", float64(rejected)/float64(max(steps+rejected, 1)), "share")

	cm, err := fluid.NewChunkModel(fluid.ChunkParams{K: 20, S: 5, Lambda: 2, C: 1, Mu: 0.5, Eta: 1, Gamma: 1, SeedFraction: 1})
	if err != nil {
		return err
	}
	out.set("fluid.chunk_solve_us", probe(func(int) {
		_, _ = cm.Solve(context.Background(), 0, 1, 40, stats.Grid(0, 40, 200), fluid.SolveOpts{})
	})/1e3, "us")
	return nil
}

// probeDist times the protocol's fixed costs on an idle pool: one lease
// round trip with nothing to evaluate, and the codec on a frame the
// size of a serve_dist shard result.
func probeDist(seed uint64, out metrics) error {
	req, err := serve.DecodeBatchItem(appendDistQuery(nil, seed))
	if err != nil {
		return err
	}
	spec, err := json.Marshal(req)
	if err != nil {
		return err
	}
	payload, err := serve.EvalShard(context.Background(), spec, 0, serve.DefaultShardRuns)
	if err != nil {
		return err
	}
	// The same query evaluated in this process: what the pool is up against.
	out.set("dist.local_eval_ms", probe(func(int) { _, _ = serve.Evaluate(context.Background(), req) })/1e6, "ms")
	frame := &dist.Frame{T: dist.TypeResult, Addr: dist.ShardAddr(req.Kind, req.Canonical(), 0, serve.DefaultShardRuns), Payload: payload}
	var wire bytes.Buffer
	out.set("dist.frame_rt_us", probe(func(int) {
		wire.Reset()
		if dist.WriteFrame(&wire, frame) == nil {
			_, _ = dist.ReadFrame(&wire)
		}
	})/1e3, "us")

	coord := dist.New(dist.Config{})
	defer coord.Close()
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := dist.NewWorker(dist.WorkerConfig{Name: "probe", Slots: 1, Addr: addr})
	w.Register("noop", func(context.Context, []byte, int, int) ([]byte, error) { return []byte("0"), nil })
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx) // ends with ctx's error below
	}()
	defer func() {
		cancel()
		<-done
	}()
	for deadline := time.Now().Add(5 * time.Second); coord.Workers() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("probe worker did not connect within 5s")
		}
	}
	var runErr error
	out.set("dist.lease_rtt_us", probe(func(i int) {
		// A fresh spec per call: equal specs would share one shard address.
		if _, err := coord.Run(ctx, dist.Task{Kind: "noop", Spec: []byte(fmt.Sprintf(`{"i":%d}`, i)), N: 1}); err != nil {
			runErr = err
		}
	})/1e3, "us")
	return runErr
}

// probeModel times the model's pieces serially and the pool's per-job
// cost, and compares ensemble throughput at the default job count with
// one job.
func probeModel(seed uint64, out metrics) error {
	params := core.DefaultParams(40)
	out.set("core.new_model_us", probe(func(int) { _, _ = core.NewModel(params) })/1e3, "us")
	m, err := core.NewModel(params)
	if err != nil {
		return err
	}
	rng := stats.NewRNG(seed, 0xE5)
	var steps, runs int
	out.set("core.trajectory_us", probe(func(i int) {
		steps += len(m.SampleTrajectory(rng.At(i))) - 1
		runs++
	})/1e3, "us")
	out.set("core.steps_per_trajectory", float64(steps)/float64(runs), "count")

	const jobs = 4096
	out.set("par.map_job_ns", probe(func(int) {
		_, _ = par.Map(context.Background(), jobs, 0, func(int) (struct{}, error) { return struct{}{}, nil })
	})/jobs, "ns")

	rate := func(n int) (float64, error) {
		if err := par.SetDefaultJobs(n); err != nil {
			return 0, err
		}
		var err error
		ns := probe(func(int) { _, err = m.Ensemble(rng, ensembleRuns) })
		return ensembleRuns / ns * 1e9, err
	}
	defer par.SetDefaultJobs(0) //nolint:errcheck // 0 is always accepted
	serial, err := rate(1)
	if err != nil {
		return err
	}
	parallel, err := rate(0)
	if err != nil {
		return err
	}
	out.set("par.speedup", parallel/serial, "ratio")
	out.set("par.speedup_base_traj_per_s", serial, "1/s")
	return nil
}

// probeSim times the constructor of the steady swarm.
func probeSim(seed uint64, out metrics) error {
	var err error
	out.set("sim.new_ms", probe(func(int) { _, err = sim.New(steadyConfig(seed, simRefSeed2)) })/1e6, "ms")
	return err
}
