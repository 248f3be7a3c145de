// Command btsim runs the discrete-event BitTorrent swarm simulator and
// prints run-level metrics, optional time series, and optional per-peer
// traces in the shared JSONL trace format.
//
// Usage:
//
//	btsim -B 200 -k 7 -s 40 -lambda 2 -horizon 400
//	btsim -B 3 -skew 0.95 -lambda 15 -initial 500 -series
//	btsim -traces out/ -track 16
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		pieces     = flag.Int("B", 200, "number of pieces")
		k          = flag.Int("k", 7, "max simultaneous connections")
		s          = flag.Int("s", 40, "neighbor set size")
		lambda     = flag.Float64("lambda", 2, "Poisson arrival rate")
		initial    = flag.Int("initial", 50, "initial leechers")
		skew       = flag.Float64("skew", 0, "initial piece skew (0 disables)")
		seeds      = flag.Int("seeds", 1, "origin seeds")
		seedUp     = flag.Int("seedup", 4, "pieces uploaded per seed per round")
		optim      = flag.Float64("optimistic", 0.25, "optimistic unchoke probability")
		rarest     = flag.Bool("rarest", true, "rarest-first piece selection (false = random-first)")
		shakeAt    = flag.Float64("shake", 0, "shake threshold (0 disables)")
		horizon    = flag.Float64("horizon", 400, "virtual end time")
		refresh    = flag.Int("refresh", 5, "tracker refresh interval in rounds")
		maxPeers   = flag.Int("maxpeers", 0, "population cap (0 = unbounded)")
		track      = flag.Int("track", 0, "number of peers to trace")
		seed       = flag.Uint64("seed", 1, "RNG seed")
		faultsIn   = flag.String("faults", "", `fault scenario, e.g. "seed=7,connfail=0.2,crash=0.01,rejoin=10,blackout=20:35"`)
		series     = flag.Bool("series", false, "print population/entropy series")
		tracesTo   = flag.String("traces", "", "directory to write per-peer JSONL traces")
		metricsOut = flag.String("metrics", "", "write a final JSONL metrics snapshot to this file")
		debugAddr  = flag.String("debug-addr", "", "serve pprof/expvar/metrics on this address (e.g. :6060)")
		logCfg     = obs.RegisterLogFlags(nil)
	)
	flag.Parse()
	logger := logCfg.Logger()

	cfg := sim.Config{
		Pieces:               *pieces,
		MaxConns:             *k,
		NeighborSet:          *s,
		ArrivalRate:          *lambda,
		InitialPeers:         *initial,
		InitialSkew:          *skew,
		Seeds:                *seeds,
		SeedUpload:           *seedUp,
		OptimisticProb:       *optim,
		PieceSelection:       sim.RarestFirst,
		ShakeThreshold:       *shakeAt,
		TrackerRefreshRounds: *refresh,
		Horizon:              *horizon,
		Seed1:                *seed,
		Seed2:                *seed ^ 0xB751,
		TrackPeers:           *track,
		MaxPeers:             *maxPeers,
	}
	if !*rarest {
		cfg.PieceSelection = sim.RandomFirst
	}
	spec, err := faults.ParseSpec(*faultsIn)
	if err != nil {
		logger.Error("btsim failed", "err", err)
		os.Exit(1)
	}
	cfg.Faults = spec.Plan()
	if spec.DropRate > 0 || spec.CorruptRate > 0 || spec.StallRate > 0 ||
		spec.RefuseRate > 0 || spec.Latency > 0 {
		logger.Warn("net-level fault keys (drop/corrupt/stall/refuse/latency) are ignored by the simulator; use btswarm")
	}
	if err := run(os.Stdout, cfg, *series, *tracesTo, *metricsOut, *debugAddr); err != nil {
		logger.Error("btsim failed", "err", err)
		os.Exit(1)
	}
}

func run(w io.Writer, cfg sim.Config, series bool, tracesTo, metricsOut, debugAddr string) error {
	// The simulator feeds a metrics registry through the Observer hook;
	// the registry is exported over HTTP (-debug-addr) and as a final
	// JSONL snapshot (-metrics).
	reg := obs.NewRegistry()
	cfg.Observer = sim.NewRegistryObserver(reg)
	if debugAddr != "" {
		ds, err := obs.ServeDebug(debugAddr, reg)
		if err != nil {
			return err
		}
		defer ds.Drain(2 * time.Second) //nolint:errcheck
		fmt.Fprintf(w, "debug endpoints on http://%s/debug/pprof/ (metrics at /metrics)\n", ds.Addr())
	}
	sw, err := sim.New(cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	res, err := sw.Run()
	if err != nil {
		return err
	}
	wall := time.Since(t0).Seconds()
	fmt.Fprintf(w, "swarm run: B=%d k=%d s=%d lambda=%g horizon=%g strategy=%s\n",
		cfg.Pieces, cfg.MaxConns, cfg.NeighborSet, cfg.ArrivalRate, cfg.Horizon, cfg.PieceSelection)
	fmt.Fprintf(w, "arrivals=%d completions=%d exchanges=%d seed-uploads=%d optimistic=%d shakes=%d\n",
		res.Arrivals(), res.NumCompletions(), res.Exchanges(),
		res.SeedUploads(), res.OptimisticUploads(), res.Shakes())
	fmt.Fprintf(w, "mean download time: %.2f rounds\n", res.MeanDownloadTime())
	fmt.Fprintf(w, "mean efficiency (slot utilization): %.4f\n", res.MeanEfficiency())
	fmt.Fprintf(w, "mean connection persistence p_r: %.4f\n", res.MeanPR())
	fmt.Fprintf(w, "kernel: %d events fired, %.3gs wall (%.3g s/round)\n",
		res.EventsFired, wall, wall/res.EndTime)
	if cfg.Faults != nil {
		fmt.Fprintf(w, "faults: injected drops=%d crashes=%d rejoins=%d blackout rounds=%d\n",
			res.FaultDrops(), res.Crashes(), res.Rejoins(), res.BlackoutRounds())
	}
	if n := res.EntropySeries.Len(); n > 0 {
		fmt.Fprintf(w, "entropy: %.3f -> %.3f; population: %.0f -> %.0f\n",
			res.EntropySeries.V[0], res.EntropySeries.V[n-1],
			res.PopulationSeries.V[0], res.PopulationSeries.V[n-1])
	}

	if series {
		fmt.Fprintln(w, "\n t      peers  entropy  efficiency")
		n := res.PopulationSeries.Len()
		step := n / 25
		if step < 1 {
			step = 1
		}
		for i := 0; i < n; i += step {
			fmt.Fprintf(w, "%6.1f  %5.0f  %7.3f  %10.4f\n",
				res.PopulationSeries.T[i], res.PopulationSeries.V[i],
				res.EntropySeries.V[i], res.EfficiencySeries.V[i])
		}
	}

	if tracesTo != "" {
		if err := os.MkdirAll(tracesTo, 0o755); err != nil {
			return err
		}
		written := 0
		for _, pt := range res.Traces {
			d := pt.Download(cfg)
			if len(d.Samples) < 2 {
				continue
			}
			path := filepath.Join(tracesTo, fmt.Sprintf("peer-%d.jsonl", pt.ID))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			err = trace.Write(f, d)
			cerr := f.Close()
			if err != nil {
				return err
			}
			if cerr != nil {
				return cerr
			}
			written++
		}
		fmt.Fprintf(w, "wrote %d traces to %s\n", written, tracesTo)
	}

	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		err = obs.WriteSnapshot(f, res.EndTime, reg.Snapshot())
		cerr := f.Close()
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
		fmt.Fprintf(w, "metrics snapshot written to %s\n", metricsOut)
	}
	return nil
}
