package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// shortSimHorizon is the horizon the test suite runs sim_steady at; its
// pinned statistics sit in the reference beside the benchmark's own.
const shortSimHorizon = 6

// referencePath is where -write-reference puts the file, relative to
// the repository root; the copy compiled in is what a run checks
// against.
const referencePath = "bench/testdata/reference.json"

//go:embed testdata/reference.json
var referenceJSON []byte

// simStats is what a simulator run must reproduce exactly for a fixed
// seed pair.
type simStats struct {
	Rounds           int     `json:"rounds"`
	Exchanges        int     `json:"exchanges"`
	Arrivals         int     `json:"arrivals"`
	ConnsFormed      int     `json:"connsFormed"`
	MeanDownloadTime float64 `json:"meanDownloadTime"`
	FinalLeechers    float64 `json:"finalLeechers"`
}

// ensembleRef pins one model ensemble: a digest over every number in
// its EnsembleStats plus two readable fields.
type ensembleRef struct {
	Digest         string  `json:"digest"`
	Completed      int     `json:"completed"`
	MeanCompletion float64 `json:"meanCompletionSteps"`
}

// reference is bench/testdata/reference.json: the outputs the program
// under test must keep producing. Reference inputs are fixed (they do
// not follow -seed), so the file holds for every seed.
type reference struct {
	// Stability lists the symbols bench/ must never import, so that the
	// ROADMAP's planned deletions land without editing the benchmark.
	Stability []string `json:"apiStability"`
	// Corpus maps each warm-corpus request ("kind/i") to the sha256 of
	// its /v1/query response body.
	Corpus map[string]string `json:"corpus"`
	// SimSteady is the sim_steady shape at the reference seed pair, by
	// horizon: the benchmark's 150 and the test suite's short one.
	SimSteady map[string]simStats `json:"sim_steady"`
	// ModelEnsemble is Ensemble(NewRNG(1, 2), 512) of the default model.
	ModelEnsemble ensembleRef `json:"model_ensemble"`
	// Figures holds the quick-scale headline values, as recorded in
	// BENCH_PR10.json.
	Figures map[string]float64 `json:"figures_quick"`
}

// apiStability is written into every regenerated reference file.
var apiStability = []string{
	"bench/ uses only API that ROADMAP items 2-3 do not schedule for deletion.",
	"never import: sim.Config.BatchedTrading",
	"never import: fluid.RK4, fluid.QSParams.Run",
	"never import: serve.HTTPCacheFill, btserve -peers",
	"never import: gateway.Config.FillProbeOff",
	"never import: dist.Config.StragglerAfter",
}

// ref is the compiled-in reference. In -write-reference mode it starts
// empty, every check records what it saw instead of comparing, and the
// result is written out.
var (
	ref          reference
	writingRefer bool
)

func loadReference() error {
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return fmt.Errorf("%s: %w", referencePath, err)
	}
	return nil
}

func writeReference() error {
	ref.Stability = apiStability
	b, err := json.MarshalIndent(&ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, append(b, '\n'), 0o644)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestOf hashes the %v rendering of v: every number in it, floats in
// shortest round-trip form, NaN included.
func digestOf(v any) string { return digest([]byte(fmt.Sprintf("%v", v))) }
