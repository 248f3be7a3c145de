package main

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer
// list. bound is the share of the parent's median by which an
// end-to-end metric may worsen before a change counts as a regression;
// per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; what an "op" and a "wait" are is the workload's
// (see workloads).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.15},
	{"live_heap_mb", "MB", "lower", 0.25},
}

// perLayer is the layer budget: layer = module name. A workload reports
// 0 for a layer it does not reach.
var perLayer = []metricDef{
	{name: "client.p95_ms", unit: "ms", better: "lower"},
	{name: "client.p99_ms", unit: "ms", better: "lower"},
	{name: "http.client_hop_ms", unit: "ms", better: "lower"},
	{name: "http.replica_hop_ms", unit: "ms", better: "lower"},
	{name: "gateway.self_ms", unit: "ms", better: "lower"},
	{name: "gateway.upstream_ms", unit: "ms", better: "lower"},
	{name: "gateway.route_ns", unit: "ns", better: "lower"},
	{name: "gateway.subrequests_per_batch", unit: "count", better: "lower"},
	{name: "gateway.spills", unit: "count", better: "lower"},
	{name: "gateway.fill_hits", unit: "count", better: "lower"},
	{name: "gateway.retries", unit: "count", better: "lower"},
	{name: "serve.handler_self_ms", unit: "ms", better: "lower"},
	{name: "serve.decode_us", unit: "us", better: "lower"},
	{name: "serve.key_us", unit: "us", better: "lower"},
	{name: "serve.split_batch_us", unit: "us", better: "lower"},
	{name: "serve.cache_get_ns", unit: "ns", better: "lower"},
	{name: "serve.cache_put_ns", unit: "ns", better: "lower"},
	{name: "serve.encode_us", unit: "us", better: "lower"},
	{name: "serve.eval_ms.model", unit: "ms", better: "lower"},
	{name: "serve.eval_ms.efficiency", unit: "ms", better: "lower"},
	{name: "serve.eval_ms.sim", unit: "ms", better: "lower"},
	{name: "serve.eval_ms.fluid", unit: "ms", better: "lower"},
	{name: "serve.cache_hit_ratio", unit: "share", better: "higher"},
	{name: "serve.evictions_per_op", unit: "count", better: "lower"},
	{name: "serve.computations_per_op", unit: "count", better: "lower"},
	{name: "serve.shed", unit: "count", better: "lower"},
	{name: "par.gate_acquire_ns", unit: "ns", better: "lower"},
	{name: "par.map_job_ns", unit: "ns", better: "lower"},
	{name: "par.speedup", unit: "ratio", better: "higher"},
	{name: "par.speedup_base_traj_per_s", unit: "1/s", better: "higher"},
	{name: "dist.run_ms", unit: "ms", better: "lower"},
	{name: "dist.worker_eval_ms", unit: "ms", better: "lower"},
	{name: "dist.self_ms", unit: "ms", better: "lower"},
	{name: "dist.merge_ms", unit: "ms", better: "lower"},
	{name: "dist.local_eval_ms", unit: "ms", better: "lower"},
	{name: "dist.lease_rtt_us", unit: "us", better: "lower"},
	{name: "dist.frame_rt_us", unit: "us", better: "lower"},
	{name: "dist.payload_kb_per_task", unit: "KB", better: "lower"},
	{name: "dist.shards_per_task", unit: "count", better: "lower"},
	{name: "dist.wasted_share", unit: "share", better: "lower"},
	{name: "dist.reassignments", unit: "count", better: "lower"},
	{name: "dist.hedges", unit: "count", better: "lower"},
	{name: "core.new_model_us", unit: "us", better: "lower"},
	{name: "core.trajectory_us", unit: "us", better: "lower"},
	{name: "core.steps_per_trajectory", unit: "count", better: "lower"},
	{name: "core.efficiency_solve_us", unit: "us", better: "lower"},
	{name: "sim.new_ms", unit: "ms", better: "lower"},
	{name: "sim.round_ms_p50", unit: "ms", better: "lower"},
	{name: "sim.round_ms_p99", unit: "ms", better: "lower"},
	{name: "sim.ns_per_peer_round", unit: "ns", better: "lower"},
	{name: "sim.ns_per_exchange", unit: "ns", better: "lower"},
	{name: "sim.finish_ms", unit: "ms", better: "lower"},
	{name: "sim.exchanges_per_round", unit: "count", better: "higher"},
	{name: "sim.peers_mean", unit: "count", better: "higher"},
	{name: "sim.bytes_per_peer", unit: "B", better: "lower"},
	{name: "sim.allocs_per_round", unit: "count", better: "lower"},
	{name: "fluid.qs_solve_us", unit: "us", better: "lower"},
	{name: "fluid.chunk_solve_us", unit: "us", better: "lower"},
	{name: "fluid.steps", unit: "count", better: "lower"},
	{name: "fluid.rejected_share", unit: "share", better: "lower"},
	{name: "experiments.fig1a_s", unit: "s", better: "lower"},
	{name: "experiments.fig1b_s", unit: "s", better: "lower"},
	{name: "experiments.fig2_s", unit: "s", better: "lower"},
	{name: "experiments.fig4a_s", unit: "s", better: "lower"},
	{name: "experiments.fig4bc_s", unit: "s", better: "lower"},
	{name: "experiments.fig4d_s", unit: "s", better: "lower"},
	{name: "host.calib_ns", unit: "ns", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
	{name: "trace.request_sum_ms", unit: "ms", better: "lower"},
	{name: "trace.budget_gap_share", unit: "share", better: "lower"},
}

// workloads is the benchmark's workload table, in run order.
var workloads = []*workload{
	{
		name: "serve_hot", op: "item", wait: "HTTP exchange",
		why:     "single queries on a fully warmed corpus: eval is zero, so the two HTTP hops, gateway routing and the replica's decode/key/cache-hit path do all the work",
		wrapped: true,
		setup:   serveSetup(modeHot),
		probes:  probeServe,
	},
	{
		name: "serve_batch", op: "item", wait: "HTTP exchange of 64 items",
		why:     "the same warmed stack through /v1/batch: HTTP cost amortises 64x, so per-item decode/key/cache and the gateway's split and splice dominate",
		wrapped: true,
		setup:   serveSetup(modeBatch),
		probes:  probeServe,
	},
	{
		name: "serve_cold", op: "item", wait: "HTTP exchange",
		why:     "every request a never-seen key (100% miss): evaluators, admission gate and response encode dominate and the cache is write-only; the gateway's share is small",
		wrapped: true,
		setup:   serveSetup(modeCold),
		probes:  probeCold,
	},
	{
		name: "serve_dist", op: "item", wait: "HTTP exchange",
		why:     "cold 256-run model queries evaluated on 2 dist workers: the only workload with lease round trips, frame codec, payload decode and partial merge on the blocking path",
		wrapped: true,
		setup:   serveSetup(modeDist),
		probes:  probeDist,
	},
	{
		name: "sim_steady", op: "peer-round", wait: "whole run",
		why:        "one swarm with steady arrivals at N=20000 on the default trading path: thousands of live peers really trading, the regime the quiescent 100k-round gate never enters",
		fixedWork:  true,
		minWindows: 3,
		wrapped:    true,
		setup:      simSetup,
		probes:     probeSim,
	},
	{
		name: "model_ensemble", op: "trajectory", wait: "512-run ensemble",
		why:    "the paper's own model as a throughput number: 512-trajectory ensembles of the default chain over par's pool, fine-grain jobs of a few microseconds",
		setup:  modelSetup,
		probes: probeModel,
	},
	{
		name: "figures_quick", op: "pass", wait: "six-figure pass",
		why:        "time to reproduce the paper: hundreds of short small swarms and ensembles fanned over par in coarse jobs, where sim.New, Result finishing and experiments folding matter",
		fixedWork:  true,
		minWindows: 5,
		coldSetup:  true,
		setup:      figuresSetup,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
