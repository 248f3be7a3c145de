package bitphase_test

// The benchmark harness regenerates every figure of the paper's
// evaluation (go test -bench=Fig -benchmem). Each BenchmarkFig* runs the
// corresponding experiment harness at Quick scale per iteration and
// reports headline reproduction metrics via b.ReportMetric; the full
// paper-scale series are produced by `go run ./cmd/btexp -scale full`.
// Micro-benchmarks cover the hot paths underneath.

import (
	"context"
	"runtime"
	"strconv"
	"testing"
	"time"

	bitphase "repro"
	"repro/internal/bencode"
	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/stats"
)

// BenchmarkFig1a regenerates the Figure 1(a) potential-set curves.
func BenchmarkFig1a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bitphase.Fig1a(bitphase.ScaleQuick)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			mid := r.Ratio[len(r.Ratio)-1][r.Pieces/2]
			b.ReportMetric(mid, "midRatio_s40")
			b.ReportMetric(r.Phases[0].MeanBootstrap, "bootstrapSteps_s5")
		}
	}
}

// BenchmarkFig1b regenerates the Figure 1(b) timeline comparison.
func BenchmarkFig1b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bitphase.Fig1b(bitphase.ScaleQuick)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.ModelTime[1][r.Pieces], "modelSteps_s50")
			b.ReportMetric(r.SimTime[1][r.Pieces], "simRounds_s50")
		}
	}
}

// BenchmarkFig2 regenerates the three Figure 2 download-regime instances.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bitphase.Fig2(bitphase.ScaleQuick)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, c := range r.Cases {
				b.ReportMetric(c.MatchFraction, "match_"+c.Want.String())
			}
		}
	}
}

// BenchmarkFig4a regenerates the Figure 4(a) efficiency-versus-k sweep.
func BenchmarkFig4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bitphase.Fig4a(bitphase.ScaleQuick)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.SimEta[0], "simEta_k1")
			b.ReportMetric(r.SimEta[1], "simEta_k2")
			b.ReportMetric(r.SimEta[7], "simEta_k8")
			b.ReportMetric(r.ModelEta[7], "modelEta_k8")
		}
	}
}

// BenchmarkFig4b regenerates the Figure 4(b)/(c) stability runs and
// reports the population trajectories (Figure 4b view).
func BenchmarkFig4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bitphase.Fig4bc(bitphase.ScaleQuick)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.Runs[0].Population[len(r.Runs[0].Population)-1], "endPeers_B3")
			b.ReportMetric(r.Runs[1].Population[len(r.Runs[1].Population)-1], "endPeers_B10")
		}
	}
}

// BenchmarkFig4c reports the entropy view of the same stability runs.
func BenchmarkFig4c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bitphase.Fig4bc(bitphase.ScaleQuick)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.Runs[0].Entropy[len(r.Runs[0].Entropy)-1], "endEntropy_B3")
			b.ReportMetric(r.Runs[1].Entropy[len(r.Runs[1].Entropy)-1], "endEntropy_B10")
		}
	}
}

// BenchmarkFig4d regenerates the Figure 4(d) shake-versus-normal study.
func BenchmarkFig4d(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bitphase.Fig4d(bitphase.ScaleQuick)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			normal, shake := r.TailMeans()
			b.ReportMetric(normal, "tailTTD_normal")
			b.ReportMetric(shake, "tailTTD_shake")
		}
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkModelStep measures one (n, b, i) chain transition.
func BenchmarkModelStep(b *testing.B) {
	m, err := core.NewModel(core.DefaultParams(40))
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(1, 2)
	s := core.State{N: 3, B: 100, I: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Step(r, s)
	}
}

// BenchmarkModelTrajectory measures one full sampled download (B = 200).
func BenchmarkModelTrajectory(b *testing.B) {
	m, err := core.NewModel(core.DefaultParams(40))
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(3, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.SampleTrajectory(r.Split())
	}
}

// BenchmarkTradingPower measures one Equation (1) evaluation at B = 200.
func BenchmarkTradingPower(b *testing.B) {
	phi := core.UniformPhi(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.TradingPower(phi, 100)
	}
}

// BenchmarkEfficiencySolve measures one balance-equation solve at k = 8.
func BenchmarkEfficiencySolve(b *testing.B) {
	p := core.EfficiencyParams{K: 8, PR: 0.98}
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveEfficiency(p, 1e-9, 500000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwarmRound measures simulator throughput on a mid-size swarm.
func BenchmarkSwarmRound(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Pieces = 100
	cfg.InitialPeers = 200
	cfg.ArrivalRate = 0
	cfg.Horizon = float64(b.N)
	cfg.TrackPeers = 0
	sw, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := sw.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSwarmRound_100k measures a steady-state round at 10^5 peers —
// the million-peer-core regression gate. The workload pins the population
// (no arrivals, no completions: everyone holds only the over-replicated
// piece 0, the collapsed endpoint of Figure 4b/4c) so every iteration
// exercises the struct-of-arrays round loop at full breadth, and the
// quiescence memos at full depth. CI gates the zero steady-state
// allocations; the time (9–18 ms on a 2-core runner) is only recorded.
func BenchmarkSwarmRound_100k(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Pieces = 3
	cfg.InitialSkew = 1.0 // everyone starts with exactly piece 0
	cfg.Seeds = 0
	cfg.SeedUpload = 0
	cfg.InitialPeers = 100_000
	cfg.ArrivalRate = 0
	cfg.NeighborSet = 20
	cfg.MaxConns = 4
	cfg.TrackPeers = 0
	cfg.Horizon = float64(b.N) + 8
	sw, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Warm up the scratch buffers and memo tables outside the timer.
	if err := sw.Advance(8); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := sw.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(cfg.InitialPeers)*float64(b.N)/b.Elapsed().Seconds(), "peers/s")
}

// BenchmarkEnsembleParallel measures a Monte-Carlo ensemble on the
// internal/par pool and reports the speedup over a forced-serial run of
// the same workload. Job-indexed seeding makes both runs bit-identical,
// so the metric isolates pure scheduling overhead/gain; on a single-core
// machine the expected speedup is ~1.0.
func BenchmarkEnsembleParallel(b *testing.B) {
	m, err := core.NewModel(core.DefaultParams(40))
	if err != nil {
		b.Fatal(err)
	}
	const runs = 128
	r := stats.NewRNG(11, 12)
	measure := func(jobs int) time.Duration {
		par.SetDefaultJobs(jobs)
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := m.Ensemble(r, runs); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	defer par.SetDefaultJobs(0)
	b.ResetTimer()
	serial := measure(1)
	parallel := measure(0) // GOMAXPROCS workers
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkSwarmRoundObserved is BenchmarkSwarmRound with a registry
// observer attached — comparing the two shows the per-round cost of the
// observability hook (expected: a few metric stores, no extra allocs).
func BenchmarkSwarmRoundObserved(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Pieces = 100
	cfg.InitialPeers = 200
	cfg.ArrivalRate = 0
	cfg.Horizon = float64(b.N)
	cfg.TrackPeers = 0
	reg := obs.NewRegistry()
	cfg.Observer = sim.NewRegistryObserver(reg)
	sw, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := sw.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(reg.Snapshot().Counters["sim.exchanges"])/float64(b.N), "exchanges/round")
}

// BenchmarkBencodeRoundTrip measures tracker-response-sized round trips.
func BenchmarkBencodeRoundTrip(b *testing.B) {
	peers := make([]byte, 6*50)
	msg := map[string]any{
		"interval":   int64(120),
		"complete":   int64(10),
		"incomplete": int64(90),
		"peers":      string(peers),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := bencode.Encode(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bencode.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEntropy measures the Section 6 entropy computation.
func BenchmarkEntropy(b *testing.B) {
	degrees := make([]int, 200)
	for i := range degrees {
		degrees[i] = i + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Entropy(degrees)
	}
}

// --- ablation and extension benchmarks ---

// BenchmarkAblationPieceSelection compares rarest-first vs random-first
// entropy recovery.
func BenchmarkAblationPieceSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bitphase.AblationPieceSelection(bitphase.ScaleQuick)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.MeanEntropy[0], "entropy_rarest")
			b.ReportMetric(r.MeanEntropy[1], "entropy_random")
		}
	}
}

// BenchmarkAblationShakeThreshold sweeps the shake trigger point.
func BenchmarkAblationShakeThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bitphase.AblationShakeThreshold(bitphase.ScaleQuick)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for j, th := range r.Thresholds {
				b.ReportMetric(r.TailTTD[j], "tailTTD_"+strconv.FormatFloat(th, 'g', -1, 64))
			}
		}
	}
}

// BenchmarkAblationTrackerRefresh sweeps neighbor refresh cadence.
func BenchmarkAblationTrackerRefresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bitphase.AblationTrackerRefresh(bitphase.ScaleQuick)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.TailTTD[0], "tailTTD_fresh")
			b.ReportMetric(r.TailTTD[len(r.TailTTD)-1], "tailTTD_stale")
		}
	}
}

// BenchmarkAblationSuperSeed compares seeding policies.
func BenchmarkAblationSuperSeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bitphase.AblationSuperSeed(bitphase.ScaleQuick)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.MeanEntropy[0], "entropy_normal")
			b.ReportMetric(r.MeanEntropy[1], "entropy_super")
		}
	}
}

// BenchmarkFluidComparison contrasts the fluid baseline with the
// protocol-level simulator.
func BenchmarkFluidComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bitphase.FluidComparison(bitphase.ScaleQuick)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.SimDT[0], "simDT_s5")
			b.ReportMetric(r.SimDT[len(r.SimDT)-1], "simDT_s50")
			b.ReportMetric(r.FluidDT, "fluidDT")
		}
	}
}

// BenchmarkSeededModel measures a seeded-trajectory sample (B = 200).
func BenchmarkSeededModel(b *testing.B) {
	m, err := core.NewSeededModel(core.DefaultParams(40), core.SeedParams{Conns: 2, PServe: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(5, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.SampleTrajectory(r.Split())
	}
}

// BenchmarkExactPhaseDurations measures the fundamental-matrix phase
// analysis on the small test configuration.
func BenchmarkExactPhaseDurations(b *testing.B) {
	p := core.Params{
		B: 20, K: 3, S: 8,
		PInit: 0.5, Alpha: 0.2, Gamma: 0.3, PR: 0.8, PN: 0.7,
		Phi: core.UniformPhi(20),
	}
	for i := 0; i < b.N; i++ {
		if _, err := core.ExactPhaseDurations(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFluidSolve measures one adaptive RK45 Qiu-Srikant solve with
// a 200-point dense-output grid — the compute behind a kind=fluid query.
func BenchmarkFluidSolve(b *testing.B) {
	p := fluid.QSParams{Lambda: 2, C: 1, Mu: 0.5, Eta: 1, Gamma: 1}
	grid := make([]float64, 200)
	for i := range grid {
		grid[i] = 400 * float64(i) / float64(len(grid)-1)
	}
	grid[len(grid)-1] = 400
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.SolveAdaptive(context.Background(), 0, 1, 400, grid, fluid.SolveOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}
