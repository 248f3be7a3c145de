package core

import "fmt"

// SeedParams is the paper's Section 7.2 sketch of seeds in the download
// model: "we can incorporate the effects of seeds by modeling extra
// connections, which do not require the strict tit-for-tat policy". Seed
// connections deliver pieces unconditionally — in particular during the
// bootstrap and last-phase waits, which is why downloading from seeds
// trivially solves the last-piece problem (§7.1). Params.Seeds carries it
// into Model.Step and the exact kernel.
type SeedParams struct {
	// Conns is the number of connections to seeds the peer holds.
	Conns int
	// PServe is the per-step probability that one seed connection
	// delivers a piece (seeds divide their upload capacity over many
	// downloaders, so PServe is typically well below 1).
	PServe float64
}

// Validate reports whether the parameters are in-domain.
func (sp SeedParams) Validate() error {
	if sp.Conns < 0 {
		return fmt.Errorf("%w: seed Conns = %d", ErrBadParams, sp.Conns)
	}
	if !isProb(sp.PServe) {
		return fmt.Errorf("%w: seed PServe = %g", ErrBadParams, sp.PServe)
	}
	return nil
}

// SeedSpeedup returns the ratio of unseeded to seeded expected download
// time for the given configuration — the headline effect of Section 7.2.
// sp replaces p.Seeds; both sides are exact first-step sweeps.
func SeedSpeedup(p Params, sp SeedParams) (float64, error) {
	p.Seeds = sp
	withSeeds, err := ExpectedDownloadTime(p)
	if err != nil {
		return 0, err
	}
	p.Seeds = SeedParams{}
	without, err := ExpectedDownloadTime(p)
	if err != nil {
		return 0, err
	}
	return without / withSeeds, nil
}
