package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Fig2Case is one of the three download-regime instances of Figure 2.
type Fig2Case struct {
	// Want is the regime this configuration induces.
	Want trace.Regime
	// Trace is the representative per-peer download trace (cumulative
	// bytes + potential-set size over time, as in Fig. 2(a)-(f)).
	Trace *trace.Download
	// Report is the analyzer's phase segmentation of Trace.
	Report trace.PhaseReport
	// MatchFraction is the share of instrumented peers in the run whose
	// traces classified into the target regime.
	MatchFraction float64
}

// Fig2Result reproduces Figure 2: one download instance per regime.
type Fig2Result struct {
	Cases []Fig2Case
}

// fig2Config builds the swarm configuration that induces each regime.
func fig2Config(regime trace.Regime, scale Scale) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Pieces = 200
	cfg.MaxConns = 7
	cfg.Horizon = 700
	cfg.TrackPeers = 96
	if scale == Quick {
		cfg.Pieces = 60
		cfg.Horizon = 250
	}
	switch regime {
	case trace.RegimeSmooth:
		// Large neighbor set, plentiful refresh: Figure 2(a)/(b).
		cfg.NeighborSet = 40
		cfg.InitialPeers = 120
		cfg.ArrivalRate = 2
		cfg.SeedUpload = 6
		cfg.Seed1, cfg.Seed2 = 21, 2
	case trace.RegimeLastPhase:
		// Random-first picking with a tiny, stale neighbor set starves
		// the tail of the download: Figure 2(c)/(d).
		cfg.NeighborSet = 8
		cfg.InitialPeers = 200
		cfg.ArrivalRate = 3
		cfg.SeedUpload = 2
		cfg.OptimisticProb = 0.1
		cfg.PieceSelection = sim.RandomFirst
		cfg.TrackerRefreshRounds = 1000
		cfg.Seed1, cfg.Seed2 = 22, 3
	case trace.RegimeBootstrap:
		// Scarce first pieces: few seed slots and rare optimistic
		// unchokes leave newcomers waiting: Figure 2(e)/(f).
		cfg.NeighborSet = 8
		cfg.InitialPeers = 250
		cfg.ArrivalRate = 4
		cfg.SeedUpload = 1
		cfg.OptimisticProb = 0.02
		cfg.TrackerRefreshRounds = 1000
		cfg.Seed1, cfg.Seed2 = 23, 4
	}
	return cfg
}

// Fig2 runs the three regime configurations, classifies every tracked
// peer's trace, and returns a representative instance per regime.
func Fig2(scale Scale) (*Fig2Result, error) {
	logger.Debug("fig2: start", "scale", scale.String())
	defer observeWalltime("fig2", time.Now())
	regimes := []trace.Regime{
		trace.RegimeSmooth, trace.RegimeLastPhase, trace.RegimeBootstrap,
	}
	// The three regime configurations carry their own seeds — one
	// simulator replication per worker.
	cases, err := par.Map(context.Background(), len(regimes), 0, func(i int) (Fig2Case, error) {
		want := regimes[i]
		cfg := fig2Config(want, scale)
		sw, err := sim.New(cfg)
		if err != nil {
			return Fig2Case{}, fmt.Errorf("fig2 %s: %w", want, err)
		}
		res, err := sw.Run()
		if err != nil {
			return Fig2Case{}, fmt.Errorf("fig2 %s: %w", want, err)
		}
		var best *trace.Download
		var bestRep trace.PhaseReport
		matches, classified := 0, 0
		for _, pt := range res.Traces {
			d := pt.Download(cfg)
			rep, err := trace.Analyze(d)
			if err != nil {
				continue
			}
			classified++
			if rep.Regime != want {
				continue
			}
			matches++
			// Prefer completed downloads for the smooth/last regimes and
			// long stalls for bootstrap.
			if best == nil || preferable(want, rep, bestRep) {
				best, bestRep = d, rep
			}
		}
		if best == nil {
			return Fig2Case{}, fmt.Errorf("fig2: no %s instance among %d traces", want, classified)
		}
		frac := 0.0
		if classified > 0 {
			frac = float64(matches) / float64(classified)
		}
		return Fig2Case{Want: want, Trace: best, Report: bestRep, MatchFraction: frac}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Cases: cases}, nil
}

func preferable(want trace.Regime, a, b trace.PhaseReport) bool {
	switch want {
	case trace.RegimeSmooth:
		return a.Completed && !b.Completed
	case trace.RegimeLastPhase:
		if a.Completed != b.Completed {
			return a.Completed
		}
		return a.LastPhaseTime > b.LastPhaseTime
	default: // bootstrap
		return a.BootstrapTime > b.BootstrapTime
	}
}

// ErrNoCases reports an empty result.
var ErrNoCases = errors.New("experiments: no fig2 cases")

// Tables renders, per regime, the download + potential-set series of the
// representative trace (the panel pairs of Figure 2).
func (r *Fig2Result) Tables(maxRows int) ([]*Table, error) {
	if len(r.Cases) == 0 {
		return nil, ErrNoCases
	}
	out := make([]*Table, 0, len(r.Cases))
	for _, c := range r.Cases {
		t := &Table{
			Title: fmt.Sprintf(
				"Figure 2 (%s): bytes downloaded and potential set size over time [%s; %.0f%% of traced peers in regime]",
				c.Want, c.Report, 100*c.MatchFraction),
			Columns: []string{"t", "bytes", "pieces", "potential"},
		}
		for _, i := range downsampleIdx(len(c.Trace.Samples), maxRows) {
			s := c.Trace.Samples[i]
			t.AddRow(s.T, float64(s.Bytes), float64(s.Pieces), float64(s.Potential))
		}
		out = append(out, t)
	}
	return out, nil
}
