package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestMapOrdersResults(t *testing.T) {
	for _, jobs := range []int{1, 2, 4, 16} {
		got, err := Map(context.Background(), 100, jobs, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(got) != 100 {
			t.Fatalf("jobs=%d: %d results", jobs, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: slot %d holds %d", jobs, i, v)
			}
		}
	}
}

func TestMapEmptyAndNegative(t *testing.T) {
	got, err := Map(context.Background(), 0, 4, func(int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Errorf("n=0: %v, %v", got, err)
	}
	if _, err := Map(context.Background(), -1, 4, func(int) (int, error) { return 0, nil }); err == nil {
		t.Error("n<0 must error")
	}
}

func TestMapSmallestIndexError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, jobs := range []int{1, 8} {
		_, err := Map(context.Background(), 64, jobs, func(i int) (int, error) {
			if i%3 == 1 { // fails at 1, 4, 7, ...
				return 0, fmt.Errorf("%w %d", sentinel, i)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, sentinel) {
			t.Fatalf("jobs=%d: err = %v", jobs, err)
		}
		// With jobs=1 the smallest failing index is guaranteed; the
		// parallel path reports the smallest among the attempted jobs,
		// which fixed-feed claiming keeps at 1 in practice.
		if jobs == 1 && !strings.Contains(err.Error(), "job 1:") {
			t.Errorf("jobs=1: err = %v, want job 1", err)
		}
	}
}

func TestMapContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 32, 4, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestMapErrorStopsFeed(t *testing.T) {
	// After a failure the pool must stop claiming new jobs promptly: far
	// fewer than all n bodies should run.
	var ran atomic.Int64
	_, err := Map(context.Background(), 10_000, 2, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("first job fails")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n > 1000 {
		t.Errorf("%d jobs ran after early failure", n)
	}
}

func TestDefaultJobs(t *testing.T) {
	defer SetDefaultJobs(0) //nolint:errcheck
	if got := DefaultJobs(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default jobs = %d, want GOMAXPROCS", got)
	}
	if err := SetDefaultJobs(3); err != nil {
		t.Fatalf("SetDefaultJobs(3): %v", err)
	}
	if got := DefaultJobs(); got != 3 {
		t.Errorf("default jobs = %d, want 3", got)
	}
	if err := SetDefaultJobs(0); err != nil {
		t.Fatalf("SetDefaultJobs(0): %v", err)
	}
	if got := DefaultJobs(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default jobs after reset = %d, want GOMAXPROCS", got)
	}
}

// TestSetDefaultJobsValidation: negative worker counts are a caller
// bug, rejected loudly — and a rejected call must not disturb the
// current default.
func TestSetDefaultJobsValidation(t *testing.T) {
	defer SetDefaultJobs(0) //nolint:errcheck
	cases := []struct {
		n      int
		wantOK bool
	}{
		{1, true},
		{16, true},
		{0, true}, // reset to GOMAXPROCS
		{-1, false},
		{-5, false},
	}
	for _, tc := range cases {
		err := SetDefaultJobs(tc.n)
		if tc.wantOK && err != nil {
			t.Errorf("SetDefaultJobs(%d) = %v, want nil", tc.n, err)
		}
		if !tc.wantOK && err == nil {
			t.Errorf("SetDefaultJobs(%d) = nil, want error", tc.n)
		}
	}
	if err := SetDefaultJobs(7); err != nil {
		t.Fatal(err)
	}
	if err := SetDefaultJobs(-3); err == nil {
		t.Fatal("want error")
	}
	if got := DefaultJobs(); got != 7 {
		t.Errorf("rejected call changed default to %d, want 7", got)
	}
}

func TestPoolGauges(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	var maxWorkers atomic.Int64
	_, err := Map(context.Background(), 64, 4, func(i int) (int, error) {
		if w := int64(reg.Gauge("par.workers").Value()); w > maxWorkers.Load() {
			maxWorkers.Store(w)
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxWorkers.Load() < 1 {
		t.Error("par.workers gauge never rose")
	}
	if v := reg.Gauge("par.workers").Value(); v != 0 {
		t.Errorf("par.workers = %g after pool drained, want 0", v)
	}
	if v := reg.Gauge("par.inflight").Value(); v != 0 {
		t.Errorf("par.inflight = %g after pool drained, want 0", v)
	}
}
