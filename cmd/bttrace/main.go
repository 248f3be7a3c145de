// Command bttrace analyzes download traces: it segments each trace into
// the bootstrap / efficient / last download phases and classifies its
// regime (the Figure 2 instances). -fit inverts the multiphased chain on
// the traces (core.Estimate: p_init, α, γ, p_r, p_n and the p_(x) curve,
// each with its standard error, or "no information"). -gen writes one
// trajectory of the chain itself, drawn from a fixed preset per regime.
// -metrics correlates a JSONL metrics stream (as emitted by btswarm
// -metrics) against the trace's phases into a per-phase event mix.
//
// Usage:
//
//	bttrace peer-1.jsonl peer-2.jsonl
//	bttrace -fit peer-*.jsonl        # estimate the chain's parameters
//	bttrace -gen last-phase > last.jsonl
//	bttrace -metrics metrics.jsonl leecher-0.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	gen := flag.String("gen", "", "write one chain trajectory from a regime's preset: smooth, last-phase, or bootstrap")
	fit := flag.Bool("fit", false, "estimate the multiphased chain's parameters from the traces")
	metrics := flag.String("metrics", "", "JSONL metrics snapshots to correlate with the first trace's phases")
	flag.Parse()

	if err := run(os.Stdout, *gen, *fit, *metrics, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bttrace:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, gen string, fit bool, metrics string, files []string) error {
	if gen != "" {
		regime, err := parseRegime(gen)
		if err != nil {
			return err
		}
		p := preset(regime)
		m, err := core.NewModel(p)
		if err != nil {
			return err
		}
		return trace.Write(w, m.SampleTrajectory(stats.NewRNG(1, 2)).Download(p))
	}
	if len(files) == 0 {
		return fmt.Errorf("no trace files given (or use -gen)")
	}
	var all []*trace.Download
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		d, err := trace.Read(f)
		cerr := f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if cerr != nil {
			return cerr
		}
		rep, err := trace.Analyze(d)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(w, "%s (%s, %d pieces x %d bytes):\n  %s\n",
			path, d.Meta.Client, d.Meta.Pieces, d.Meta.PieceSize, rep)
		all = append(all, d)
	}
	if fit {
		est, err := core.Estimate(all)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, est)
	}
	if metrics != "" {
		if err := eventMix(w, metrics, all[0]); err != nil {
			return err
		}
	}
	return nil
}

// eventMix reads a JSONL metrics stream and attributes each inter-snapshot
// counter delta to the download phase the reference trace was in at the
// interval's left endpoint. Both streams are measured in seconds from
// roughly the same start, so the alignment is direct.
func eventMix(w io.Writer, path string, ref *trace.Download) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	recs, rerr := obs.ReadSnapshots(f)
	cerr := f.Close()
	if rerr != nil {
		return fmt.Errorf("%s: %w", path, rerr)
	}
	if cerr != nil {
		return cerr
	}
	if len(recs) == 0 {
		return fmt.Errorf("%s: no metric snapshots", path)
	}

	// One forward merge of the snapshots with the trace's samples: an
	// interval takes the label trace.Phaser gives the last sample at or
	// before its left endpoint (bootstrap before the first sample). A
	// snapshot time that goes backwards restarts the walk.
	mix := make(map[string]map[trace.Phase]int64) // counter -> phase -> delta
	prev := map[string]int64{}
	prevT := 0.0
	ph, phase, next := trace.Phaser{B: ref.Meta.Pieces}, trace.PhaseBootstrap, 0
	for _, rec := range recs {
		for ; next < len(ref.Samples) && ref.Samples[next].T <= prevT; next++ {
			phase = ph.Next(ref.Samples[next].Pieces, ref.Samples[next].Potential)
		}
		for name, v := range rec.Counters {
			if d := v - prev[name]; d != 0 {
				if mix[name] == nil {
					mix[name] = make(map[trace.Phase]int64)
				}
				mix[name][phase] += d
			}
		}
		if rec.T < prevT {
			ph, phase, next = trace.Phaser{B: ref.Meta.Pieces}, trace.PhaseBootstrap, 0
		}
		prev = rec.Counters
		prevT = rec.T
	}

	names := make([]string, 0, len(mix))
	for name := range mix {
		names = append(names, name)
	}
	sort.Strings(names)

	boot, eff, last := trace.PhaseBootstrap, trace.PhaseEfficient, trace.PhaseLast
	fmt.Fprintf(w, "event mix by phase (%s, %d snapshots, reference %s):\n",
		path, len(recs), ref.Meta.Client)
	fmt.Fprintf(w, "  %-40s %10s %10s %10s\n", "counter", boot, eff, last)
	for _, name := range names {
		fmt.Fprintf(w, "  %-40s %10d %10d %10d\n",
			name, mix[name][boot], mix[name][eff], mix[name][last])
	}
	return nil
}

// preset is the chain configuration -gen draws a regime's trajectory
// from; trace.Analyze classifies at least 191 of 200 draws of each as
// its own regime. A small γ alone makes no last phase: under uniform ϕ
// the potential set rarely empties. Under a geometric ϕ most peers hold
// few pieces, so p_(x) falls as the peer's own count nears B.
func preset(r trace.Regime) core.Params {
	p := core.DefaultParams(5)
	switch r {
	case trace.RegimeSmooth:
		p = core.DefaultParams(20)
	case trace.RegimeLastPhase:
		p.Phi, _ = core.GeometricPhi(p.B, 0.5) // fails only for a ratio outside (0, 1)
		p.Gamma = 0.02
	case trace.RegimeBootstrap:
		p.Alpha, p.PInit = 0.002, 0.002
	}
	return p
}

func parseRegime(s string) (trace.Regime, error) {
	switch s {
	case "smooth":
		return trace.RegimeSmooth, nil
	case "last-phase", "last":
		return trace.RegimeLastPhase, nil
	case "bootstrap":
		return trace.RegimeBootstrap, nil
	default:
		return 0, fmt.Errorf("unknown regime %q", s)
	}
}
