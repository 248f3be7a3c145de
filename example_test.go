package bitphase_test

import (
	"fmt"

	bitphase "repro"
)

// ExampleNewModel samples the paper's download chain and reports the mean
// completion time.
func ExampleNewModel() {
	p := bitphase.DefaultParams(40) // B = 200 pieces, k = 7, s = 40
	model, err := bitphase.NewModel(p)
	if err != nil {
		fmt.Println(err)
		return
	}
	ens, err := model.Ensemble(bitphase.NewRNG(1, 2), 200)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("mean completion: %.0f rounds\n", ens.CompletionSteps.Mean)
	// Output:
	// mean completion: 35 rounds
}

// ExampleTradingPower evaluates Equation (1) at the endpoints and the
// middle of a download.
func ExampleTradingPower() {
	phi := bitphase.UniformPhi(200)
	fmt.Printf("p(1)   = %.2f\n", bitphase.TradingPower(phi, 1))
	fmt.Printf("p(100) = %.2f\n", bitphase.TradingPower(phi, 100))
	fmt.Printf("p(199) = %.2f\n", bitphase.TradingPower(phi, 199))
	// Output:
	// p(1)   = 0.50
	// p(100) = 0.99
	// p(199) = 0.50
}

// ExampleSolveEfficiency reproduces the Figure 4(a) jump from one to two
// connections.
func ExampleSolveEfficiency() {
	for k := 1; k <= 2; k++ {
		res, err := bitphase.SolveEfficiency(
			bitphase.EfficiencyParams{K: k, PR: bitphase.CalibratedPR(k)},
			1e-9, 500000)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("k=%d eta=%.2f\n", k, res.Eta)
	}
	// Output:
	// k=1 eta=0.48
	// k=2 eta=0.90
}

// ExampleEntropy shows the Section 6 stability metric.
func ExampleEntropy() {
	balanced := []int{10, 11, 10, 12}
	skewed := []int{100, 2, 3, 1}
	fmt.Printf("balanced: %.2f\n", bitphase.Entropy(balanced))
	fmt.Printf("skewed:   %.2f\n", bitphase.Entropy(skewed))
	// Output:
	// balanced: 0.83
	// skewed:   0.01
}

// ExampleSeedParams adds the Section 7.2 seed connections to the chain:
// pieces that arrive without tit-for-tat shorten the download.
func ExampleSeedParams() {
	p := bitphase.DefaultParams(20)
	p.B = 100
	p.Phi = bitphase.UniformPhi(100)
	for _, sp := range []bitphase.SeedParams{
		{},
		{Conns: 1, PServe: 0.25},
		{Conns: 2, PServe: 0.5},
	} {
		p.Seeds = sp
		m, err := bitphase.NewModel(p)
		if err != nil {
			fmt.Println(err)
			return
		}
		ens, err := m.Ensemble(bitphase.NewRNG(1, uint64(sp.Conns)), 500)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%d seed conns @ p=%.2f: %.1f rounds\n", sp.Conns, sp.PServe, ens.CompletionSteps.Mean)
	}
	// Output:
	// 0 seed conns @ p=0.00: 18.5 rounds
	// 1 seed conns @ p=0.25: 17.8 rounds
	// 2 seed conns @ p=0.50: 16.0 rounds
}

// ExampleNewSwarm runs a small deterministic swarm simulation.
func ExampleNewSwarm() {
	cfg := bitphase.DefaultSwarmConfig()
	cfg.Pieces = 20
	cfg.InitialPeers = 20
	cfg.ArrivalRate = 0
	cfg.Horizon = 60
	cfg.TrackPeers = 0
	cfg.Seed1, cfg.Seed2 = 7, 8
	swarm, err := bitphase.NewSwarm(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := swarm.Run()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("all %d initial peers completed: %v\n",
		cfg.InitialPeers, res.NumCompletions() == cfg.InitialPeers)
	// Output:
	// all 20 initial peers completed: true
}
