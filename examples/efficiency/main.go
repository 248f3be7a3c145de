// Efficiency study: reproduce the Figure 4(a) scenario end to end —
// sweep the maximum connection count k, run the swarm simulator for each,
// measure the connection-persistence probability p_r, feed it to the
// Section 5 balance-equation model, and compare efficiencies.
package main

import (
	"fmt"
	"log"

	bitphase "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("k   sim-eta  model-eta  measured-pr  completions")
	for k := 1; k <= 8; k++ {
		cfg := bitphase.DefaultSwarmConfig()
		cfg.Pieces = 80
		cfg.MaxConns = k
		cfg.NeighborSet = 40
		cfg.InitialPeers = 120
		cfg.ArrivalRate = 3
		cfg.SeedUpload = 6
		cfg.Horizon = 200
		cfg.TrackPeers = 0
		cfg.Seed1 = uint64(k)

		swarm, err := bitphase.NewSwarm(cfg)
		if err != nil {
			return err
		}
		res, err := swarm.Run()
		if err != nil {
			return err
		}

		model, err := bitphase.SolveEfficiency(
			bitphase.EfficiencyParams{K: k, PR: res.MeanPR()}, 1e-9, 500000)
		if err != nil {
			return err
		}
		fmt.Printf("%d   %.4f   %.4f     %.4f       %d\n",
			k, res.MeanEfficiency(), model.Eta, res.MeanPR(), res.NumCompletions())
	}
	fmt.Println("\nexpected shape: a sharp jump from k=1 to k=2, then a plateau;")
	fmt.Println("the model (iterated in increasing class order) upper-bounds the simulation.")
	return nil
}
