package experiments

import (
	"fmt"
	"testing"

	"repro/internal/par"
)

// TestJobCountInvariance is the determinism regression test for the
// parallel experiment engine: a fixed-seed figure must produce a
// bit-identical result structure whether its runs execute serially or on
// 4 or 8 workers. It covers one model-heavy harness (Fig1a), one
// simulator sweep (Fig4a), one paired-arm comparison (Fig4d), and the
// three-tier validation (ValidateDistributions). The CI
// test job runs this under -race, so it doubles as a data-race probe of
// the fan-out paths.
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
