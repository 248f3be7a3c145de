// Seeding study: the paper's Section 7.2 extension made concrete.
// Seeds do not enforce tit-for-tat, so they (1) accelerate downloads in
// the analytical model (extra free-piece connections), (2) trivially
// relieve the last-piece problem, and (3) on the simulator side,
// super-seeding stretches a seed's bandwidth further by handing out each
// piece once and waiting for the swarm to replicate it.
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
	// 1. Model side: download speedup from seed connections.
	params := bitphase.DefaultParams(20)
	params.B = 100
	params.Phi = bitphase.UniformPhi(100)
	fmt.Println("model: seed connections vs download time (B=100)")
	for _, sp := range []bitphase.SeedParams{
		{},
		{Conns: 1, PServe: 0.25},
		{Conns: 2, PServe: 0.5},
	} {
		params.Seeds = sp
		m, err := bitphase.NewModel(params)
		if err != nil {
			return err
		}
		ens, err := m.Ensemble(bitphase.NewRNG(1, uint64(sp.Conns)), 500)
		if err != nil {
			return err
		}
		fmt.Printf("  %d seed conns @ p=%.2f: %.1f rounds\n", sp.Conns, sp.PServe, ens.CompletionSteps.Mean)
	}

	// 2. Simulator side: super-seeding on a skewed swarm.
	fmt.Println("\nsimulator: seeding policy on a skewed swarm (B=10, 95% skew)")
	for _, super := range []bool{false, true} {
		cfg := bitphase.DefaultSwarmConfig()
		cfg.Pieces = 10
		cfg.NeighborSet = 20
		cfg.MaxConns = 4
		cfg.InitialPeers = 200
		cfg.InitialSkew = 0.95
		cfg.ArrivalRate = 4
		cfg.SeedUpload = 4
		cfg.SuperSeed = super
		cfg.PieceSelection = bitphase.RandomFirst
		cfg.Horizon = 100
		cfg.TrackPeers = 0
		cfg.Seed1 = 7
		swarm, err := bitphase.NewSwarm(cfg)
		if err != nil {
			return err
		}
		res, err := swarm.Run()
		if err != nil {
			return err
		}
		n := res.EntropySeries.Len()
		mode := "normal     "
		if super {
			mode = "super-seed "
		}
		fmt.Printf("  %s entropy %.3f -> %.3f, completions %d, seed uploads %d\n",
			mode, res.EntropySeries.V[0], res.EntropySeries.V[n-1],
			res.NumCompletions(), res.SeedUploads())
	}

	// 3. Seed lingering: completed peers staying around add capacity.
	fmt.Println("\nsimulator: completed peers lingering as seeds (B=30)")
	for _, linger := range []int{0, 10} {
		cfg := bitphase.DefaultSwarmConfig()
		cfg.Pieces = 30
		cfg.NeighborSet = 10
		cfg.MaxConns = 4
		cfg.InitialPeers = 30
		cfg.ArrivalRate = 2
		cfg.SeedUpload = 2
		cfg.SeedLingerRounds = linger
		cfg.Horizon = 120
		cfg.TrackPeers = 0
		cfg.Seed1 = 9
		swarm, err := bitphase.NewSwarm(cfg)
		if err != nil {
			return err
		}
		res, err := swarm.Run()
		if err != nil {
			return err
		}
		fmt.Printf("  linger=%2d rounds: mean DT %.1f, completions %d, lingered %d\n",
			linger, res.MeanDownloadTime(), res.NumCompletions(), res.Lingered())
	}
	return nil
}
