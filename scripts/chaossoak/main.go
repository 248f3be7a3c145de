// Command chaossoak hammers the self-healing distribution tier with
// seeded fault schedules and asserts the determinism contract survives:
// every pooled result must stay byte-identical to a local evaluation no
// matter which connections drop, stall, corrupt, or lag, while the
// health, hedge, and breaker counters move the way the design predicts.
//
// Three phases run in order:
//
//  1. Byte-identity soak: N seeded rounds cycling worker counts 1/2/4.
//     Worker 0 is always clean (progress is guaranteed); every other
//     worker dials through a faults.Injector whose schedule derives from
//     (seed, round, worker). Each round evaluates a model ensemble
//     through serve.PoolEvaluator and compares the marshalled result
//     against serve.Evaluate.
//  2. Hedge phase: a wedged worker holds one shard while a fast worker
//     builds the latency distribution; the run must finish byte-identical
//     with at least one hedge win.
//  3. Breaker phase: a failing pool drives the circuit breaker through a
//     full closed → open → half-open → closed cycle with every fallback
//     response byte-identical to local evaluation.
//
// Any divergence prints a reproduction line (round, worker count, and
// each injector's faults.Spec string) and exits non-zero. CI runs this
// under -race as the chaos-soak job.
//
// Usage:
//
//	chaossoak [-rounds N] [-seed S] [-v]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/serve"
)

var (
	rounds  = flag.Int("rounds", 10, "byte-identity soak rounds (worker counts cycle 1/2/4)")
	seed    = flag.Uint64("seed", 1, "master seed for fault schedules and request seeds")
	verbose = flag.Bool("v", false, "log per-round fault schedules and counters")
)

func main() {
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))

	fmt.Printf("chaos soak: %d rounds, seed %d\n", *rounds, *seed)
	var agg aggregate
	for r := 0; r < *rounds; r++ {
		wc := []int{1, 2, 4}[r%3]
		if err := soakRound(r, wc, *seed, logger, &agg); err != nil {
			fmt.Fprintf(os.Stderr, "chaossoak: FAIL %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("phase 1 ok: %d rounds byte-identical (workers 1/2/4); faults injected on %d conns; strikes=%d reassignments=%d hedges=%d\n",
		*rounds, agg.injected, agg.strikes, agg.reassignments, agg.hedges)
	if *rounds >= 6 && agg.injected > 0 && agg.strikes+agg.reassignments+agg.hedges == 0 {
		fmt.Fprintln(os.Stderr, "chaossoak: FAIL faults were injected but no self-healing counter moved")
		os.Exit(1)
	}

	if err := hedgePhase(*seed, logger); err != nil {
		fmt.Fprintf(os.Stderr, "chaossoak: FAIL hedge phase: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("phase 2 ok: wedged shard hedged to healthy worker, result byte-identical")

	if err := breakerPhase(logger); err != nil {
		fmt.Fprintf(os.Stderr, "chaossoak: FAIL breaker phase: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("phase 3 ok: breaker cycled open -> half-open -> closed, fallbacks byte-identical")
	fmt.Println("chaossoak ok")
}

// aggregate accumulates self-healing counters across soak rounds so the
// harness can assert the machinery actually engaged, not just that no
// round happened to diverge.
type aggregate struct {
	injected      int64
	strikes       int64
	reassignments int64
	hedges        int64
}

// faultMix returns the round's fault profile for one faulty worker.
// Profiles rotate so the soak covers latency, drop, corruption, and
// stall schedules plus a kitchen-sink combination; every spec seeds from
// (master, round, worker) so reruns replay the exact schedule.
func faultMix(master uint64, round, worker int) faults.Spec {
	s := faults.Spec{Seed: master ^ uint64(round)<<16 ^ uint64(worker)<<1}
	switch round % 5 {
	case 0:
		s.Latency = 2 * time.Millisecond
	case 1:
		s.DropRate, s.DropAfter = 0.4, 2048
	case 2:
		s.CorruptRate = 0.35
	case 3:
		s.StallRate = 0.25
	default:
		s.Latency = time.Millisecond
		s.DropRate, s.DropAfter = 0.25, 4096
		s.CorruptRate = 0.2
		s.StallRate = 0.15
	}
	return s
}

// soakRound evaluates one pooled model ensemble against wc workers
// (worker 0 clean, the rest faulted) and fails on any byte divergence.
func soakRound(round, wc int, master uint64, logger *slog.Logger, agg *aggregate) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	reg := obs.NewRegistry()
	coord := dist.New(dist.Config{
		Registry:   reg,
		Logger:     logger,
		LeaseTTL:   400 * time.Millisecond,
		SweepEvery: 25 * time.Millisecond,
		Requeue:    retry.Policy{MaxAttempts: 60, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("round %d: listen: %w", round, err)
	}
	defer coord.Close()

	wctx, stopWorkers := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stopWorkers()

	specs := make([]string, wc)
	for i := 0; i < wc; i++ {
		cfg := dist.WorkerConfig{
			Name:      fmt.Sprintf("soak-%d", i),
			Slots:     2,
			Addr:      addr,
			Logger:    logger,
			Reconnect: retry.Policy{MaxAttempts: 1000, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
		}
		if i > 0 { // worker 0 stays clean: the round can always make progress
			spec := faultMix(master, round, i)
			specs[i] = spec.String()
			inj := faults.NewInjector(spec)
			inj.Instrument(reg)
			cfg.Dial = func(addr string) (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return inj.WrapConn(c), nil
			}
		}
		wk := dist.NewWorker(cfg)
		wk.Register(serve.KindModel, serve.EvalShard)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = wk.Run(wctx)
		}()
	}

	req := &serve.Request{
		Kind:  serve.KindModel,
		Seed:  master + uint64(round),
		Model: &serve.ModelQuery{B: 40, Runs: 48},
	}
	if err := req.Canonicalize(); err != nil {
		return err
	}
	pooled, err := serve.PoolEvaluator(coord, 8)(ctx, req)
	if err != nil {
		return fmt.Errorf("round %d (workers=%d): pool evaluation: %w%s", round, wc, err, repro(round, wc, master, specs))
	}
	local, err := serve.Evaluate(ctx, req)
	if err != nil {
		return fmt.Errorf("round %d: local evaluation: %w", round, err)
	}
	pb, _ := json.Marshal(pooled)
	lb, _ := json.Marshal(local)
	if !bytes.Equal(pb, lb) {
		return fmt.Errorf("round %d (workers=%d): pooled result diverges from local\n pool: %s\nlocal: %s%s",
			round, wc, pb, lb, repro(round, wc, master, specs))
	}

	snap := reg.Snapshot()
	agg.injected += snap.Counters["faults.conns_injected"]
	agg.strikes += snap.Counters["dist.strikes"]
	agg.reassignments += snap.Counters["dist.reassignments"]
	agg.hedges += snap.Counters["dist.hedges"]
	if *verbose {
		fmt.Printf("  round %2d workers=%d ok (%d bytes) injected=%d strikes=%d reassigned=%d specs=%v\n",
			round, wc, len(pb), snap.Counters["faults.conns_injected"],
			snap.Counters["dist.strikes"], snap.Counters["dist.reassignments"], specs[1:])
	}
	return nil
}

// repro renders the reproduction line attached to every failure: the
// exact flags plus each faulty worker's schedule spec.
func repro(round, wc int, master uint64, specs []string) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "\nreproduce: chaossoak -rounds %d -seed %d (failing round %d, workers=%d)", round+1, master, round, wc)
	for i, s := range specs {
		if s != "" {
			fmt.Fprintf(&b, "\n  worker %d faults: %s", i, s)
		}
	}
	return b.String()
}

// hedgePhase wedges one worker's only shard and asserts the hedge path
// re-issues it to the fast worker: byte-identity plus moving
// dist.hedges / dist.hedge_wins counters.
func hedgePhase(master uint64, logger *slog.Logger) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	reg := obs.NewRegistry()
	coord := dist.New(dist.Config{
		Registry: reg,
		Logger:   logger,
		// 4 × LeaseTTL is far off: the latency percentile must do the rescue.
		LeaseTTL:   5 * time.Second,
		SweepEvery: 10 * time.Millisecond,
	})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	defer coord.Close()

	wctx, stopWorkers := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stopWorkers()

	release := make(chan struct{})
	var wedged atomic.Bool
	slow := dist.NewWorker(dist.WorkerConfig{Name: "slow", Slots: 1, Addr: addr, Logger: logger})
	slow.Register(serve.KindModel, func(ctx context.Context, spec []byte, lo, hi int) ([]byte, error) {
		if wedged.CompareAndSwap(false, true) { // wedge the first shard only
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return serve.EvalShard(ctx, spec, lo, hi)
	})
	fast := dist.NewWorker(dist.WorkerConfig{Name: "fast", Slots: 1, Addr: addr, Logger: logger})
	fast.Register(serve.KindModel, serve.EvalShard)
	for _, wk := range []*dist.Worker{slow, fast} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = wk.Run(wctx)
		}()
	}

	req := &serve.Request{
		Kind: serve.KindModel,
		Seed: master,
		// One run per shard: the fast worker completes at least the eight
		// shards the percentile needs while the slow one sits on its first.
		Model: &serve.ModelQuery{B: 40, Runs: 16},
	}
	if err := req.Canonicalize(); err != nil {
		return err
	}
	pooled, err := serve.PoolEvaluator(coord, 1)(ctx, req)
	close(release) // let the wedged evaluator unwind before workers stop
	if err != nil {
		return fmt.Errorf("pool evaluation: %w", err)
	}
	local, err := serve.Evaluate(ctx, req)
	if err != nil {
		return fmt.Errorf("local evaluation: %w", err)
	}
	pb, _ := json.Marshal(pooled)
	lb, _ := json.Marshal(local)
	if !bytes.Equal(pb, lb) {
		return fmt.Errorf("hedged result diverges from local\n pool: %s\nlocal: %s", pb, lb)
	}
	snap := reg.Snapshot()
	if snap.Counters["dist.hedges"] < 1 || snap.Counters["dist.hedge_wins"] < 1 {
		return fmt.Errorf("hedge counters did not move: hedges=%d hedge_wins=%d",
			snap.Counters["dist.hedges"], snap.Counters["dist.hedge_wins"])
	}
	if *verbose {
		fmt.Printf("  hedge phase: hedges=%d hedge_wins=%d\n",
			snap.Counters["dist.hedges"], snap.Counters["dist.hedge_wins"])
	}
	return nil
}

// flipPool is a serve.Pool whose health is toggled externally: while
// failing, Run errors — with a worker still connected, so the breaker
// learns of it from the attempts, not from an empty pool; when healthy
// it evaluates the shard locally — the same bytes a real pool returns.
type flipPool struct {
	failing atomic.Bool
	calls   atomic.Int64
}

func (p *flipPool) HealthyWorkers() int { return 1 }

func (p *flipPool) Run(ctx context.Context, t dist.Task) ([][]byte, error) {
	p.calls.Add(1)
	if p.failing.Load() {
		return nil, errors.New("chaossoak: pool down")
	}
	payload, err := serve.EvalShard(ctx, t.Spec, 0, t.N)
	if err != nil {
		return nil, err
	}
	return [][]byte{payload}, nil
}

// breakerPhase drives serve's circuit breaker through a full cycle
// against a failing-then-recovered pool, checking state transitions and
// that every fallback response is byte-identical to local evaluation.
func breakerPhase(logger *slog.Logger) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	pool := &flipPool{}
	pool.failing.Store(true)
	br := serve.NewBreaker(serve.BreakerConfig{Logger: logger})
	eval := br.Evaluator(pool, 8)

	req := &serve.Request{Kind: serve.KindEfficiency, Efficiency: &serve.EfficiencyQuery{K: 3}}
	if err := req.Canonicalize(); err != nil {
		return err
	}
	local, err := serve.Evaluate(ctx, req)
	if err != nil {
		return err
	}
	lb, _ := json.Marshal(local)

	check := func(stage string) error {
		got, err := eval(ctx, req)
		if err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}
		if gb, _ := json.Marshal(got); !bytes.Equal(gb, lb) {
			return fmt.Errorf("%s: result diverges from local\n  got: %s\nlocal: %s", stage, gb, lb)
		}
		return nil
	}

	// Three pool failures inside the window: each falls back locally, the
	// third quarantines the pool.
	for i := 0; i < 3; i++ {
		if err := check(fmt.Sprintf("failing call %d", i)); err != nil {
			return err
		}
	}
	if st := br.State(); st != serve.BreakerOpen {
		return fmt.Errorf("state after failures = %q, want %q", st, serve.BreakerOpen)
	}
	// Open short-circuits: no further pool attempts.
	before := pool.calls.Load()
	if err := check("open call"); err != nil {
		return err
	}
	if pool.calls.Load() != before {
		return errors.New("open breaker still dialed the pool")
	}

	// The quarantine (one 5 s window) runs out; the recovered pool's
	// probe closes the breaker.
	for deadline := time.Now().Add(10 * time.Second); br.State() != serve.BreakerHalfOpen; time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("state 10s after opening = %q, want %q", br.State(), serve.BreakerHalfOpen)
		}
	}
	pool.failing.Store(false)
	if err := check("probe call"); err != nil {
		return err
	}
	if pool.calls.Load() != before+1 {
		return errors.New("half-open breaker did not probe the pool")
	}
	if st := br.State(); st != serve.BreakerClosed {
		return fmt.Errorf("state after probe = %q, want %q", st, serve.BreakerClosed)
	}
	return nil
}
