package experiments

import (
	"fmt"
	"testing"

	"repro/internal/par"
)

// TestJobCountInvariance is the determinism regression test for the
// parallel experiment engine: a fixed-seed figure must produce a
// bit-identical result structure whether its runs execute serially or on
// 4 or 8 workers. It covers the model-heavy harness (Fig1a) and every
// harness that runs swarms through sweep except FluidConvergence (its
// quick scale costs about 2 s a replay): Fig1b's sim-plus-ensemble
// reduce, the trace-classifying Fig2, the Fig4a k sweep, the stability
// pair, the paired Fig4d arms, the four ablations, both flash-crowd
// sweeps and the three-tier validation. The CI test job runs this under
// -race, so it doubles as a data-race probe of the fan-out paths.
func TestJobCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-jobs replay is slow")
	}
	harnesses := []struct {
		name string
		run  func() (any, error)
	}{
		{"fig1a", func() (any, error) { return Fig1a(Quick) }},
		{"fig4a", func() (any, error) { return Fig4a(Quick) }},
		{"fig4d", func() (any, error) { return Fig4d(Quick) }},
		{"validate", func() (any, error) { return ValidateDistributions(Quick) }},
		{"fig1b", func() (any, error) { return Fig1b(Quick) }},
		{"fig2", func() (any, error) {
			r, err := Fig2(Quick)
			if err != nil {
				return nil, err
			}
			// %#v prints a pointer as its address: compare the traces.
			var cases [][]any
			for _, c := range r.Cases {
				cases = append(cases, []any{c.Want, *c.Trace, c.Report, c.MatchFraction})
			}
			return cases, nil
		}},
		{"fig4bc", func() (any, error) { return Fig4bc(Quick) }},
		{"ablation_piece_selection", func() (any, error) { return AblationPieceSelection(Quick) }},
		{"ablation_shake_threshold", func() (any, error) { return AblationShakeThreshold(Quick) }},
		{"ablation_tracker_refresh", func() (any, error) { return AblationTrackerRefresh(Quick) }},
		{"ablation_super_seed", func() (any, error) { return AblationSuperSeed(Quick) }},
		{"flashcrowd", func() (any, error) { return FlashCrowd(Quick) }},
	}
	defer par.SetDefaultJobs(0)
	for _, h := range harnesses {
		t.Run(h.name, func(t *testing.T) {
			var want string
			for _, jobs := range []int{1, 4, 8} {
				par.SetDefaultJobs(jobs)
				r, err := h.run()
				if err != nil {
					t.Fatalf("jobs=%d: %v", jobs, err)
				}
				// %#v round-trips every float64 bit pattern uniquely
				// (and, unlike reflect.DeepEqual, treats NaN as equal
				// to itself), so string equality means bit-identical
				// results.
				got := fmt.Sprintf("%#v", r)
				if jobs == 1 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("jobs=%d result differs from serial run", jobs)
				}
			}
		})
	}
}
