#!/bin/sh
# guards.sh holds the repo's "one way to do it" rules: each guard names
# identifiers a PR deleted for good and fails if any has grown back, and
# the last one keeps CI's fuzz list equal to the fuzz functions in the
# tree. CI's test job runs it once; run it locally before pushing:
#
#   sh scripts/guards.sh
#
# It prints every offending line, then "guard NAME fired" per guard, and
# exits 1 if any did.
set -eu
cd "$(dirname "$0")/.."
fired=""

# absent NAME PATTERN PATHSPEC...: guard NAME fires if PATTERN matches.
absent() {
	name=$1
	pattern=$2
	shift 2
	if git grep -nE "$pattern" -- "$@"; then
		echo "guards.sh: guard $name fired: the names above may not grow back" >&2
		fired="$fired $name"
	fi
}

# The strike/ban policy lives in internal/health only, dist has one
# re-issue threshold, and no tier fills its cache from another's (the
# gateway's spill probe, the last fill, is guarded by one_request_path).
# None of the deleted copies may grow back (bench/ keeps the names as a
# historical never-import list).
one_failure_accounting_kernel() {
	absent one_failure_accounting_kernel \
		'StragglerAfter|HTTPCacheFill|FillProbeOff|replicaBook|healthBook|banList' \
		'*.go' ':!bench'
}

# The gateway forwards through one exchange function — the POST in
# attempt is the only request it ever sends a replica — and the pool
# breaker is a one-key strike book with constants (DESIGN.md §10, §13,
# §16): the per-endpoint forwarders, the index splice, the spill
# cache-fill probe with the replica route it called, and the breaker's
# two flags may not grow back.
one_request_path() {
	absent one_request_path \
		'forwardSubBatch|spliceIndex|homeFor|breaker-threshold|breaker-cooldown|probeCache|handleCachePeek|fillTimeout|/v1/cache/|cachefill' \
		'*.go' ':!bench'
}

# The simulator has one RNG discipline for the trading steps, the one
# the oracle goldens pin (DESIGN.md §14); the pooled second schedule may
# not grow back (bench/ carries the name only in its never-import list).
one_trading_schedule() {
	absent one_trading_schedule 'BatchedTrading|poolNext|tradeBernoulli' '*.go' ':!bench'
}

# client.Storage is the only verified piece store (memory or file behind
# one backing), a nil *obs.Registry is the only way to switch metrics
# off (DESIGN.md §10: no detached-handle literals outside internal/obs),
# and bench/ is the only place a performance number comes from: the root
# bench_test.go ledger may not grow back.
one_piece_store_one_metrics_off_idiom_one_ledger() {
	absent one_piece_store_one_metrics_off_idiom_one_ledger \
		'type FileStorage struct|&obs\.(Counter|Gauge|Histogram)\{\}|bench2json|BENCH_PR' \
		'*.go' '*.sh' ':!bench' ':!internal/obs' ':!scripts/guards.sh'
}

# Every *_ms histogram observes obs.Ms(d), fractional milliseconds.
# float64(d.Milliseconds()) truncates: sub-millisecond shards, cache hits
# and forwards all read 0, and the replica's Retry-After took that for
# "no history".
one_way_to_time_a_request() {
	absent one_way_to_time_a_request 'float64\(.*\.Milliseconds\(\)' '*.go' ':!bench'
}

# SolveEfficiency's mean-field cross-check and its scatter helper are
# test oracles (efficiency_test.go), and ln C(n,k) is stats.LogChoose:
# none of them may grow back beside the solver.
one_efficiency_solver_one_log_choose() {
	absent one_efficiency_solver_one_log_choose \
		'func (logChoose|SolveEfficiencyMeanField|scatter)\(' \
		'internal/core/*.go' ':!*_test.go'
}

# A property is asserted once, by a test `go test -race ./...` runs, and
# a live stack is stood up one way, by scripts/stack.sh (DESIGN.md §17):
# the in-binary smoke modes and the soak command that asserted the same
# things a third time may not grow back. (The pattern is written so that
# it does not match this file.)
one_way_to_check_the_stack() {
	absent one_way_to_check_the_stack 'selftes[t]|chaossoa[k]' '*.go' '*.sh' '*.yml' ':!bench'
}

# A dist result payload is opaque bytes beside the frame's JSON header,
# under the frame's checksum, and a model shard's is core.EnsembleAccum's
# varints (DESIGN.md §11): the payload may not move back inside the JSON,
# the accumulator may not grow a JSON form back, nothing on the dist path
# may json-encode one, and a figure's payload is its rendered bytes.
one_shard_payload_encoding() {
	absent one_shard_payload_encoding \
		'Payload +json\.RawMessage|json:"(potSum|potCnt|fpSum|fpCnt|stuckBootstrap|hasLast)"|json\.(Marshal|Unmarshal)\((acc|p, part)\)|DecodeFigPayload' \
		'internal/dist/*.go' 'internal/core/*.go' 'internal/serve/*.go' 'internal/experiments/*.go' 'cmd/*.go' ':!*_test.go'
}

# A /v1/batch line has one shape, defined beside its one writer in
# internal/serve/batch.go (DESIGN.md §16): the replica writes lines with
# WriteItemLine — no json.Encoder pass over cached bodies it rendered
# itself — and the gateway reads the prefix serve defines, not a copy.
one_item_line_writer() {
	absent one_item_line_writer 'json\.NewEncoder' 'internal/serve/batch.go'
	absent one_item_line_writer '^[[:space:]]*(const +)?([iI]tem|[sS]tatus|[sS]ummary)Head +=' \
		'*.go' ':!bench' ':!internal/serve/batch.go'
}

# The replica caches a result alone, under its compute key, and writes
# the /v1/query envelope around it in one place, writeEnvelope
# (DESIGN.md §10): the envelope marshaler whose bytes the cache used to
# hold may not grow back, nor may a second envelope encoder.
one_envelope_writer() {
	absent one_envelope_writer 'marshalBody|json\.Marshal\(&Response' 'internal/serve/*.go' ':!*_test.go'
}

# The chain draws every transition one way: a binary search of a
# running-sum table (core's cdf.index, DESIGN.md §17). The linear scan it
# replaced is the test-only reference FuzzCDFIndex holds it to, and
# stats.Binomial's own recurrence sampler and CDF may not grow back.
one_transition_sampler() {
	absent one_transition_sampler 'func samplePMF\(' 'internal/core/*.go' ':!*_test.go'
	absent one_transition_sampler 'func \(b Binomial\) (Sample|CDF)\(' 'internal/stats/*.go' ':!*_test.go'
}

# A download's states are labelled with the paper's phases by one rule,
# trace.Phaser (DESIGN.md §17), and a sim trace converts to the trace
# format one way, sim.PeerTrace.Download: the per-snapshot rescan, the
# two conversion copies, and the bootstrap-escape (pieces >= 1 &&
# potential >= 1) and last-phase (potential == 0 && pieces > 1)
# predicates written inline may not grow back. core's exact chain
# carries the booted flag and labels its states through Phaser too, so
# no region classifier (phaseOfState was the last) may grow back there.
one_phase_rule() {
	absent one_phase_rule 'func (phaseAt|toTrace|simTraceToDownload)\(' '*.go' ':!bench'
	absent one_phase_rule \
		'(B|Pieces|pieces) >= 1 && [[:alnum:]_.]*(I|Potential|potential) >= 1|(I|Potential|potential) == 0 && [[:alnum:]_.]*(B|Pieces|pieces) > 1' \
		'*.go' ':!*_test.go' ':!bench' ':!internal/trace/phase.go'
	absent one_phase_rule 'func phaseOf' 'internal/core/*.go' ':!*_test.go'
}

# The exact tier reads the sampler's own running sums as one
# level-structured kernel and sweeps it (DESIGN.md §17): the generic
# sparse chain it replaced, its materialising builder and state cap, and
# the package-level sampler that re-evaluated f/g/h beside Model.Step may
# not grow back.
one_exact_kernel() {
	absent one_exact_kernel \
		'repro/internal/markov|func BuildChain\(|maxExactStates|^func Step\(|func sampleOutcomes\(' \
		'internal/core/*.go' ':!*_test.go'
}

# The simulator keeps one replication-degree table as pieces move, and
# measures the potential set only for tracked peers (DESIGN.md §14): the
# per-round recounts and the every-leecher potential average may not
# grow back.
one_degree_table() {
	absent one_degree_table \
		'func \(s \*Swarm\) (replicationDegrees|leecherReplicationDegrees|degreeTable)\(|MeanPotentialByPieces|potSum|potCnt' \
		'internal/sim/*.go' ':!*_test.go'
}

# The chain is the one download process: bttrace -gen draws its synthetic
# traces from core's presets, and core.Estimate, which reads a trace pair
# as one Model.Step, is the one fit (DESIGN.md §17). The hand-built
# second generator and the sojourn fit that did not invert the chain may
# not grow back.
one_trace_generator() {
	absent one_trace_generator 'func Generate\(|SyntheticConfig|func Fit\(|escapeProb' '*.go' ':!bench'
}

# The fluid tier takes η one way, modelEta: the §5 efficiency model at
# the scored run's measured p_r (DESIGN.md §17). The golden-section fit
# against the runs it then scored, and the μ read off the sim DT it was
# compared with, may not grow back.
one_calibration_route() {
	absent one_calibration_route 'calibrateEta|calibMu|invphi' '*.go' ':!bench'
}

# The paper swarm is scored against both lower tiers by one harness,
# ValidateDistributions (DESIGN.md §17): one sim run per neighbor-set
# size, the chain side read off the exact completion-time distribution.
# The separate fluid comparison and Monte Carlo ensembles on validate's
# chain side may not grow back (TestFluidComparison checks validate's
# fluid rows and is not the deleted function).
one_tier_comparison() {
	absent one_tier_comparison '(^|[^[:alnum:]_])FluidComparison' '*.go' ':!bench'
	absent one_tier_comparison '\.Ensemble\(' 'internal/experiments/validate.go'
}

# A harness runs swarms one way, sweep in internal/experiments/
# experiments.go (DESIGN.md §8): one par job per config, each result
# reduced inside its job, errors named by harness and point. The
# hand-rolled par.Map → sim.New → Run copies may not grow back.
one_swarm_sweep() {
	absent one_swarm_sweep 'sim\.New\(' \
		'internal/experiments/*.go' ':!*_test.go' ':!internal/experiments/experiments.go'
}

# CI's fuzz step loops over an explicit "package FuzzName" list; a fuzz
# function missing from it would never be run with new inputs.
every_fuzz_function_in_ci() {
	want=$(git grep -h '^func Fuzz' -- '*_test.go' | sed 's/^func \(Fuzz[A-Za-z0-9]*\).*/\1/' | sort)
	have=$(sed -n 's/^ *[a-z][a-z/]* \(Fuzz[A-Za-z0-9]*\)$/\1/p' .github/workflows/ci.yml | sort)
	if [ "$want" != "$have" ]; then
		echo "guards.sh: guard every_fuzz_function_in_ci fired: the tree has" >&2
		echo "$want" | tr '\n' ' ' >&2
		echo "and .github/workflows/ci.yml lists" >&2
		echo "$have" | tr '\n' ' ' >&2
		echo >&2
		fired="$fired every_fuzz_function_in_ci"
	fi
}

one_failure_accounting_kernel
one_request_path
one_trading_schedule
one_piece_store_one_metrics_off_idiom_one_ledger
one_way_to_time_a_request
one_efficiency_solver_one_log_choose
one_way_to_check_the_stack
one_shard_payload_encoding
one_item_line_writer
one_envelope_writer
one_transition_sampler
one_phase_rule
one_exact_kernel
one_degree_table
one_trace_generator
one_calibration_route
one_tier_comparison
one_swarm_sweep
every_fuzz_function_in_ci

[ -z "$fired" ] || exit 1
