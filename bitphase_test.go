package bitphase_test

import (
	"math"
	"testing"

	bitphase "repro"
)

// The facade must expose a working end-to-end path through the model.
func TestFacadeModelPath(t *testing.T) {
	p := bitphase.DefaultParams(20)
	p.B = 40
	p.Phi = bitphase.UniformPhi(40)
	m, err := bitphase.NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	es, err := m.Ensemble(bitphase.NewRNG(1, 2), 50)
	if err != nil {
		t.Fatal(err)
	}
	if es.CompletionSteps.N != 50 {
		t.Errorf("completions = %d", es.CompletionSteps.N)
	}
	if tp := bitphase.TradingPower(p.Phi, 20); tp < 0.5 || tp > 1 {
		t.Errorf("trading power %g", tp)
	}
	res, err := bitphase.SolveEfficiency(
		bitphase.EfficiencyParams{K: 2, PR: bitphase.CalibratedPR(2)}, 1e-9, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Eta <= 0.5 {
		t.Errorf("eta = %g", res.Eta)
	}
}

func TestFacadeSwarmPath(t *testing.T) {
	cfg := bitphase.DefaultSwarmConfig()
	cfg.Pieces = 20
	cfg.InitialPeers = 20
	cfg.Horizon = 50
	cfg.TrackPeers = 2
	sw, err := bitphase.NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCompletions() == 0 {
		t.Error("no completions")
	}
	if e := bitphase.Entropy([]int{3, 4, 5}); math.Abs(e-0.6) > 1e-12 {
		t.Errorf("entropy = %g", e)
	}
	a, err := bitphase.AssessStability(res.EntropySeries.T, res.EntropySeries.V)
	if err != nil {
		t.Fatal(err)
	}
	_ = a
}

func TestFacadeTorrentPath(t *testing.T) {
	content := []byte("hello bitphase facade test content............")
	info, err := bitphase.TorrentFromContent("x", content, 16)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := bitphase.MarshalTorrent("http://127.0.0.1:1/announce", info)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := bitphase.UnmarshalTorrent(blob)
	if err != nil {
		t.Fatal(err)
	}
	st, err := bitphase.NewSeededStorage(tor.Info, content)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete() {
		t.Error("seeded storage incomplete")
	}
	if _, err := bitphase.NewClient(bitphase.ClientConfig{Torrent: tor, Storage: st}); err != nil {
		t.Fatal(err)
	}
	if bitphase.NewTrackerServer() == nil {
		t.Fatal("nil tracker")
	}
}

func TestFacadeExtensions(t *testing.T) {
	p := bitphase.DefaultParams(10)
	p.B = 25
	p.Phi = bitphase.UniformPhi(25)
	speedup, err := bitphase.SeedSpeedup(p, bitphase.SeedParams{Conns: 2, PServe: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if speedup <= 1 {
		t.Errorf("seed speedup %g", speedup)
	}
	d, err := bitphase.ExactPhaseDurations(bitphase.Params{
		B: 20, K: 3, S: 8,
		PInit: 0.5, Alpha: 0.2, Gamma: 0.3, PR: 0.8, PN: 0.7,
		Phi: bitphase.UniformPhi(20),
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Total() <= 0 {
		t.Errorf("exact durations %+v", d)
	}
	fp := bitphase.FluidParams{Lambda: 2, C: 2, Mu: 0.5, Eta: 1, Gamma: 1}
	ss, err := fp.ClosedFormSteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if ss.DownloadTime <= 0 {
		t.Errorf("fluid steady state %+v", ss)
	}
}
