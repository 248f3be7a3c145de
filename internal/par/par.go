// Package par is the repository's deterministic parallel execution
// engine: a bounded worker pool that fans independent jobs — Monte-Carlo
// trajectories, simulator replications, parameter-sweep points — across
// goroutines while guaranteeing that results are bit-identical to a
// serial run regardless of worker count or scheduling order.
//
// Determinism rests on two rules:
//
//   - Randomness is indexed, never shared. A job that draws numbers
//     takes the substream base.At(i) for its index i (a SplitMix64-style
//     jump, see internal/stats), so the stream it draws from depends only
//     on the root seed pair and the job index — not on which worker runs
//     it or when.
//   - Results are position-addressed. Every job writes its result into
//     slot i of the output slice; reductions that care about
//     floating-point association then merge the slots in index order.
//
// The pool publishes two gauges to an optional obs.Registry
// (SetMetrics): par.workers, the number of workers currently running
// inside some Map call, and par.inflight, the number of job bodies
// executing right now.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// defaultJobs holds the process-wide worker-count default used when a
// Map call passes jobs <= 0. Zero means runtime.GOMAXPROCS(0).
var defaultJobs atomic.Int64

// SetDefaultJobs sets the process-wide default worker count used when a
// call passes jobs <= 0. n == 0 restores the GOMAXPROCS default; a
// negative n is rejected with an error (it used to be silently treated
// as a reset, which hid sign bugs in -jobs plumbing). CLIs wire their
// -jobs flag here once at startup.
func SetDefaultJobs(n int) error {
	if n < 0 {
		return fmt.Errorf("par: default jobs must be >= 0 (0 resets to GOMAXPROCS), got %d", n)
	}
	defaultJobs.Store(int64(n))
	return nil
}

// DefaultJobs returns the effective default worker count.
func DefaultJobs() int {
	if n := int(defaultJobs.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// metrics holds the optional registry receiving the pool gauges.
var metrics atomic.Pointer[obs.Registry]

// SetMetrics routes the pool gauges (par.workers, par.inflight) to reg.
// A nil reg disables publication. Safe to call concurrently with running
// pools; in-flight calls may keep using the previous registry.
func SetMetrics(reg *obs.Registry) { metrics.Store(reg) }

// poolGauges resolves the gauge handles once per Map call.
func poolGauges() (workers, inflight *obs.Gauge) {
	reg := metrics.Load()
	if reg == nil {
		return nil, nil
	}
	return reg.Gauge("par.workers"), reg.Gauge("par.inflight")
}

// Map runs fn(i) for i in [0, n) on a bounded worker pool and returns the
// results in index order. jobs <= 0 means DefaultJobs(). The output is
// independent of the worker count and of scheduling: each job's result
// lands in slot i, and when any jobs fail, the returned error is the one
// with the smallest job index (remaining jobs are cancelled best-effort
// via ctx and by draining the index feed).
//
// fn must be safe to call from multiple goroutines for distinct i.
func Map[T any](ctx context.Context, n, jobs int, fn func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("par: negative job count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	if jobs <= 0 {
		jobs = DefaultJobs()
	}
	if jobs > n {
		jobs = n
	}
	out := make([]T, n)
	if ctx == nil {
		ctx = context.Background()
	}
	if jobs == 1 {
		// Degenerate pool: run inline, same index order, no goroutines.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("par: job %d: %w", i, err)
			}
			v, err := fn(i)
			if err != nil {
				return nil, fmt.Errorf("par: job %d: %w", i, err)
			}
			out[i] = v
		}
		return out, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	gWorkers, gInflight := poolGauges()
	var (
		next   atomic.Int64 // index feed
		failed atomic.Bool  // fast-path stop flag once any job errs
		mu     sync.Mutex
		errIdx = -1
		jobErr error
		wg     sync.WaitGroup
	)
	fail := func(i int, err error) {
		failed.Store(true)
		cancel()
		mu.Lock()
		if errIdx == -1 || i < errIdx {
			errIdx, jobErr = i, err
		}
		mu.Unlock()
	}
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if gWorkers != nil {
				gWorkers.Add(1)
				defer gWorkers.Add(-1)
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(i, err)
					return
				}
				if gInflight != nil {
					gInflight.Add(1)
				}
				v, err := fn(i)
				if gInflight != nil {
					gInflight.Add(-1)
				}
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if errIdx != -1 {
		return nil, fmt.Errorf("par: job %d: %w", errIdx, jobErr)
	}
	return out, nil
}
