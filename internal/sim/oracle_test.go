package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/faults"
)

// The oracle suite pins the simulator's exact trajectories: the canonical
// Result JSON of every (config, seed) run below was generated before the
// struct-of-arrays refactor of the swarm core. Any change to the per-round
// RNG draw order, iteration order, or float accumulation order shows up
// here as a byte diff.
//
// A scenario with a file under testdata/oracle is compared byte for byte
// (one per family is kept in full so a divergence can be read as a diff);
// every other scenario is pinned by the sha256 of the same bytes in
// testdata/oracle/digests.json.
//
// Regenerate (only for deliberate, documented behavior changes):
//
//	go test ./internal/sim -run TestOracleGoldens -update
//
// which rewrites the full files that exist and the digests of the rest.
// To read the JSON behind a digest, create an empty file with the
// scenario's name first: -update then writes it in full.
var updateOracle = flag.Bool("update", false, "rewrite the oracle golden files")

// oracleConfigs is the scenario matrix: every feature that branches the
// round loop (strategy, skew, super-seed, faults, churn, slow peers,
// aborts, lingering, shake) appears in at least one config.
func oracleConfigs() map[string]Config {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.Pieces = 24
		cfg.MaxConns = 4
		cfg.NeighborSet = 10
		cfg.InitialPeers = 30
		cfg.ArrivalRate = 1.5
		cfg.SeedUpload = 3
		cfg.Horizon = 50
		cfg.TrackPeers = 4
		return cfg
	}

	m := map[string]Config{}

	m["basic"] = base()

	random := base()
	random.PieceSelection = RandomFirst
	m["random_first"] = random

	super := base()
	super.InitialSkew = 0.8
	super.SuperSeed = true
	m["skew_superseed"] = super

	faulty := base()
	faulty.Faults = &faults.Plan{
		Seed:             7,
		ConnFailRate:     0.05,
		CrashRate:        0.01,
		RejoinAfter:      4,
		TrackerBlackouts: []faults.Window{{From: 10, To: 20}},
	}
	m["faults"] = faulty

	flash := base()
	flash.InitialPeers = 120
	flash.ArrivalRate = 0
	flash.SeedUpload = 5
	m["flashcrowd"] = flash

	churn := base()
	churn.SlowPeerFraction = 0.3
	churn.SlowPeerRate = 0.5
	churn.AbortRate = 0.01
	churn.SeedLingerRounds = 3
	m["slow_abort_linger"] = churn

	shake := base()
	shake.ShakeThreshold = 0.75
	shake.TrackerRefreshRounds = 12
	shake.NeighborSet = 6
	m["shake_stale_tracker"] = shake

	unstable := base()
	unstable.Pieces = 3
	unstable.InitialSkew = 0.95
	unstable.InitialPeers = 60
	unstable.ArrivalRate = 4
	unstable.MaxPeers = 300
	unstable.Horizon = 60
	m["unstable_skew"] = unstable

	return m
}

var oracleSeeds = [][2]uint64{{1, 2}, {42, 0xBEEF}, {7, 7}}

// oracleJSON renders a Result as canonical indented JSON. NaN (legal in
// several Result fields) maps to null; the kernel's wall-clock figure is
// excluded as the one nondeterministic field.
func oracleJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	f := func(x float64) any {
		if math.IsNaN(x) {
			return nil
		}
		return x
	}
	fs := func(xs []float64) []any {
		out := make([]any, len(xs))
		for i, x := range xs {
			out[i] = f(x)
		}
		return out
	}
	ser := func(T, V []float64) map[string]any {
		return map[string]any{"t": fs(T), "v": fs(V)}
	}
	completions := make([]map[string]any, 0, res.NumCompletions())
	for i := range res.NumCompletions() {
		c := res.Completion(i)
		row := res.Acquisitions(i)
		ttd := make([]float64, len(row)-1)
		for m := range ttd {
			ttd[m] = float64(row[m+1]) - float64(row[m])
		}
		completions = append(completions, map[string]any{
			"id": int(c.ID), "arrived": f(c.ArrivedAt), "done": f(c.DoneAt),
			"ttd0": f(float64(row[0]) - c.ArrivedAt), "ttd": fs(ttd),
		})
	}
	traces := make([]map[string]any, 0, len(res.Traces))
	for _, tr := range res.Traces {
		samples := make([][4]any, 0, len(tr.Samples))
		for _, smp := range tr.Samples {
			samples = append(samples, [4]any{f(smp.Time), smp.Pieces, smp.Potential, smp.Conns})
		}
		traces = append(traces, map[string]any{
			"id": int(tr.ID), "arrived": f(tr.ArrivedAt), "completed": tr.Completed,
			"samples": samples,
		})
	}
	doc := map[string]any{
		"population":  ser(res.PopulationSeries.T, res.PopulationSeries.V),
		"entropy":     ser(res.EntropySeries.T, res.EntropySeries.V),
		"efficiency":  ser(res.EfficiencySeries.T, res.EfficiencySeries.V),
		"pr":          ser(res.PRSeries.T, res.PRSeries.V),
		"completions": completions,
		"traces":      traces,
		"end_time":    f(res.EndTime),
		"counters": map[string]int{
			"arrivals": res.Arrivals(), "exchanges": res.Exchanges(),
			"seed_uploads": res.SeedUploads(), "optimistic": res.OptimisticUploads(),
			"shakes": res.Shakes(), "aborts": res.Aborts(), "lingered": res.Lingered(),
			"rounds": res.Rounds(), "conns_formed": res.ConnsFormed(),
			"conns_dropped": res.connsDropped, "fault_drops": res.FaultDrops(),
			"crashes": res.Crashes(), "rejoins": res.Rejoins(),
			"blackout_rounds": res.BlackoutRounds(),
		},
		"mean_pr":  f(res.MeanPR()),
		"mean_eff": f(res.MeanEfficiency()),
		"kernel": map[string]any{
			"fired": res.EventsFired,
		},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		t.Fatalf("oracle: encode: %v", err)
	}
	return buf.Bytes()
}

// TestOracleGoldens runs every scenario × seed and compares the canonical
// Result JSON against the pinned pre-refactor bytes (in full or by
// digest, see above).
func TestOracleGoldens(t *testing.T) {
	dir := filepath.Join("testdata", "oracle")
	digestPath := filepath.Join(dir, "digests.json")
	digests := map[string]string{}
	if raw, err := os.ReadFile(digestPath); err == nil {
		if err := json.Unmarshal(raw, &digests); err != nil {
			t.Fatalf("oracle: %s: %v", digestPath, err)
		}
	} else if !*updateOracle {
		t.Fatalf("oracle: %v (run with -update to generate)", err)
	}
	for name, cfg := range oracleConfigs() {
		for _, seeds := range oracleSeeds {
			cfg := cfg
			cfg.Seed1, cfg.Seed2 = seeds[0], seeds[1]
			fname := fmt.Sprintf("%s_s%d_%d.json", name, seeds[0], seeds[1])
			t.Run(fname, func(t *testing.T) {
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				got := oracleJSON(t, res)
				gotSum := fmt.Sprintf("%x", sha256.Sum256(got))
				path := filepath.Join(dir, fname)
				want, err := os.ReadFile(path)
				full := err == nil
				if *updateOracle {
					if full {
						delete(digests, fname)
						if err := os.WriteFile(path, got, 0o644); err != nil {
							t.Fatal(err)
						}
					} else {
						digests[fname] = gotSum
					}
					return
				}
				const diverged = "The swarm trajectory is no longer byte-identical — the RNG draw " +
					"order or an iteration order changed."
				if full {
					if !bytes.Equal(got, want) {
						t.Fatalf("oracle: Result JSON diverged from pinned golden %s.\n%s got %d bytes, want %d bytes",
							fname, diverged, len(got), len(want))
					}
					return
				}
				pinned, ok := digests[fname]
				if !ok {
					t.Fatalf("oracle: %s has neither a golden file nor a digest (run with -update to generate)", fname)
				}
				if gotSum != pinned {
					t.Fatalf("oracle: scenario %s: Result JSON hashes to %s, %s pins %s.\n%s\n"+
						"To read the JSON, `touch %s` and rerun with -run 'TestOracleGoldens/%s' -update: "+
						"that writes it in full (do the same at the last passing commit and diff the two).",
						fname, gotSum, digestPath, pinned, diverged, path, fname)
				}
			})
		}
	}
	if *updateOracle {
		raw, err := json.MarshalIndent(digests, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAcquisitionsLandOnRounds pins the premise of the int32 acquisition
// log: every piece is acquired at a whole round (the exchange, seed
// uploads and optimistic unchokes run at round times, the initial skew
// at 0), so every completion time across the oracle scenarios is a whole
// round, and the completion's logged rounds rise to it.
func TestAcquisitionsLandOnRounds(t *testing.T) {
	completions := 0
	for name, cfg := range oracleConfigs() {
		cfg.Seed1, cfg.Seed2 = oracleSeeds[0][0], oracleSeeds[0][1]
		res := runSwarm(t, cfg)
		completions += res.NumCompletions()
		for i := range res.NumCompletions() {
			c := res.Completion(i)
			if c.DoneAt != math.Trunc(c.DoneAt) {
				t.Fatalf("%s: peer %d completed at %g, not a whole round", name, c.ID, c.DoneAt)
			}
			row := res.Acquisitions(i)
			if !slices.IsSorted(row) || float64(row[len(row)-1]) != c.DoneAt {
				t.Fatalf("%s: peer %d completed at %g with acquisition rounds %v", name, c.ID, c.DoneAt, row)
			}
		}
	}
	if completions == 0 {
		t.Fatal("no scenario completed a download")
	}
	t.Logf("%d completions checked", completions)
}
