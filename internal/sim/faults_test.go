package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

// faultTestConfig is a mid-size swarm matching the Figure 4(a) Quick
// workload, with TrackPeers off for speed.
func faultTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Pieces = 60
	cfg.MaxConns = 4
	cfg.NeighborSet = 40
	cfg.InitialPeers = 100
	cfg.ArrivalRate = 3
	cfg.SeedUpload = 6
	cfg.Horizon = 150
	cfg.TrackPeers = 0
	cfg.Seed1 = 0xFA
	cfg.Seed2 = 0x17
	return cfg
}

func runWith(t *testing.T, cfg Config) *Result {
	t.Helper()
	_, res := runChecked(t, cfg)
	return res
}

// TestInjectedConnFailureMatchesModelEta follows the Figure 4(a)
// methodology under injected failure: tear connections down at rate
// 1-p_r, measure the effective persistence the swarm actually exhibits,
// and check the Section 5 balance-equation efficiency computed from that
// measured p_r stays an upper bound on (and close to) the simulated η.
func TestInjectedConnFailureMatchesModelEta(t *testing.T) {
	for _, failRate := range []float64{0.1, 0.3} {
		cfg := faultTestConfig()
		cfg.Faults = &faults.Plan{Seed: 7, ConnFailRate: failRate}
		res := runWith(t, cfg)

		if res.FaultDrops() == 0 {
			t.Fatalf("connfail=%g injected no drops", failRate)
		}
		pr := res.MeanPR()
		if math.IsNaN(pr) || pr <= 0 || pr >= 1 {
			t.Fatalf("connfail=%g: measured p_r = %g", failRate, pr)
		}
		// Injected failure bounds persistence: p_r <= 1 - failRate plus
		// sampling slack.
		if pr > 1-failRate+0.05 {
			t.Errorf("connfail=%g: p_r = %.3f, want <= %.3f", failRate, pr, 1-failRate+0.05)
		}
		model, err := core.SolveEfficiency(core.EfficiencyParams{K: cfg.MaxConns, PR: pr}, 1e-9, 500000)
		if err != nil {
			t.Fatalf("connfail=%g: model: %v", failRate, err)
		}
		// The same tolerance the Figure 4(a) shape test applies: the model
		// is an upper bound up to the sim's population effects (churn
		// slows downloads, which enlarges the tradeable population).
		simEta := res.MeanEfficiency()
		if model.Eta < simEta-0.12 {
			t.Errorf("connfail=%g: model η = %.3f far below sim η = %.3f",
				failRate, model.Eta, simEta)
		}
		if math.Abs(model.Eta-simEta) > 0.2 {
			t.Errorf("connfail=%g: model η = %.3f vs sim η = %.3f, gap too large",
				failRate, model.Eta, simEta)
		}
	}
}

// TestConnFailureMonotonicity: more injected failure must strictly
// depress the measured connection persistence (η is left out: churn
// slows downloads, and the larger mid-download population can offset the
// torn-down slots).
func TestConnFailureMonotonicity(t *testing.T) {
	prevPR := 2.0
	for _, failRate := range []float64{0, 0.2, 0.5} {
		cfg := faultTestConfig()
		if failRate > 0 {
			cfg.Faults = &faults.Plan{Seed: 7, ConnFailRate: failRate}
		}
		res := runWith(t, cfg)
		pr := res.MeanPR()
		if pr > prevPR+0.02 {
			t.Errorf("connfail=%g: p_r = %.3f rose above %.3f", failRate, pr, prevPR)
		}
		prevPR = pr
	}
}

// TestFaultScheduleDeterministic: identical configs (including the fault
// plan) must reproduce the run exactly; a different plan seed must not.
func TestFaultScheduleDeterministic(t *testing.T) {
	cfg := faultTestConfig()
	cfg.Faults = &faults.Plan{
		Seed:             42,
		ConnFailRate:     0.2,
		CrashRate:        0.01,
		RejoinAfter:      5,
		TrackerBlackouts: []faults.Window{{From: 40, To: 60}},
	}
	a, b := runWith(t, cfg), runWith(t, cfg)
	if a.FaultDrops() != b.FaultDrops() || a.Crashes() != b.Crashes() ||
		a.Rejoins() != b.Rejoins() || a.BlackoutRounds() != b.BlackoutRounds() ||
		a.NumCompletions() != b.NumCompletions() ||
		a.MeanEfficiency() != b.MeanEfficiency() || a.MeanPR() != b.MeanPR() {
		t.Fatalf("same plan diverged:\n%d/%d/%d/%d η=%.6f\n%d/%d/%d/%d η=%.6f",
			a.FaultDrops(), a.Crashes(), a.Rejoins(), a.BlackoutRounds(), a.MeanEfficiency(),
			b.FaultDrops(), b.Crashes(), b.Rejoins(), b.BlackoutRounds(), b.MeanEfficiency())
	}
	cfg2 := cfg
	plan := *cfg.Faults
	plan.Seed = 43
	cfg2.Faults = &plan
	c := runWith(t, cfg2)
	if a.FaultDrops() == c.FaultDrops() && a.Crashes() == c.Crashes() &&
		a.MeanEfficiency() == c.MeanEfficiency() {
		t.Fatal("different plan seeds produced an identical run")
	}
}

// TestCrashRejoinChurn: crashed peers vanish with their pieces and
// return after the configured wait; checkInvariants balances the
// population books (crashes = rejoins + awaiting) after every round.
func TestCrashRejoinChurn(t *testing.T) {
	cfg := faultTestConfig()
	cfg.Faults = &faults.Plan{Seed: 11, CrashRate: 0.02, RejoinAfter: 5}
	_, res := runChecked(t, cfg)
	if res.Crashes() == 0 {
		t.Fatal("crash rate 0.02 produced no crashes")
	}
	if res.Rejoins() == 0 {
		t.Fatal("no crashed peer ever rejoined")
	}
}

// TestTrackerBlackoutDegradesGracefully: a blackout window suppresses
// tracker contact for its duration but must not wedge the swarm —
// completions keep accruing and blackout rounds are counted.
func TestTrackerBlackoutDegradesGracefully(t *testing.T) {
	cfg := faultTestConfig()
	cfg.Faults = &faults.Plan{
		Seed:             3,
		TrackerBlackouts: []faults.Window{{From: 20, To: 50}},
	}
	res := runWith(t, cfg)
	if res.BlackoutRounds() == 0 {
		t.Fatal("blackout window covered no rounds")
	}
	// [20, 50) spans ~30 rounds.
	if res.BlackoutRounds() < 25 || res.BlackoutRounds() > 35 {
		t.Errorf("blackout rounds = %d, want ~30", res.BlackoutRounds())
	}
	base := runWith(t, faultTestConfig())
	if res.NumCompletions() == 0 {
		t.Fatal("no downloads completed through the blackout")
	}
	// Degradation, not collapse: at least half the baseline completions.
	if res.NumCompletions() < base.NumCompletions()/2 {
		t.Errorf("completions %d vs baseline %d: blackout collapsed the swarm",
			res.NumCompletions(), base.NumCompletions())
	}
}

// TestFaultFreePlanIsInert: a nil plan and an all-zero plan must leave
// the run identical to the baseline (no stray RNG draws).
func TestFaultFreePlanIsInert(t *testing.T) {
	base := runWith(t, faultTestConfig())
	cfg := faultTestConfig()
	cfg.Faults = &faults.Plan{Seed: 99}
	res := runWith(t, cfg)
	if base.MeanEfficiency() != res.MeanEfficiency() ||
		base.NumCompletions() != res.NumCompletions() ||
		base.Exchanges() != res.Exchanges() {
		t.Fatal("inactive fault plan perturbed the run")
	}
}
