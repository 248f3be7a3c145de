package main

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func startTarget(t *testing.T) string {
	t.Helper()
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts.URL
}

func TestBuildCorpusDeterministicAndMixed(t *testing.T) {
	a, err := buildCorpus("model=2,efficiency=5,sim=1,fluid=2", 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildCorpus("model=2,efficiency=5,sim=1,fluid=2", 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("corpus is not deterministic for identical flags")
	}
	counts := map[string]int{}
	for _, e := range a {
		counts[e.kind]++
	}
	want := map[string]int{"model": 16, "efficiency": 40, "sim": 8, "fluid": 16}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("mix counts = %v, want %v", counts, want)
	}

	if _, err := buildCorpus("bogus=1", 4); err == nil {
		t.Error("unknown kind must be rejected")
	}
	if _, err := buildCorpus("model=0", 4); err == nil {
		t.Error("all-zero mix must be rejected")
	}
	if _, err := buildCorpus("model", 4); err == nil {
		t.Error("missing weight must be rejected")
	}
}

func TestLoadRunAgainstLiveTarget(t *testing.T) {
	target := startTarget(t)
	rep, err := loadRun(context.Background(), loadOptions{
		target:      target,
		replicas:    []string{target},
		duration:    400 * time.Millisecond,
		concurrency: 4,
		seed:        7,
		mix:         "efficiency=4,model=1",
		keys:        4,
		batchSize:   3,
		batchFrac:   0.25,
		maxErrRate:  0,
		divergence:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.OK == 0 {
		t.Fatalf("no traffic recorded: %+v", rep)
	}
	if rep.Items < rep.Requests {
		t.Errorf("items (%d) < requests (%d); batch items must count individually", rep.Items, rep.Requests)
	}
	// Warmup primed every key, so the measured window is cache-dominated.
	if rep.CacheHits == 0 {
		t.Error("no cache hits recorded after warmup")
	}
	if rep.DivergenceChecked != 4 || rep.DivergenceFailed != 0 {
		t.Errorf("divergence: checked %d failed %d, want 4/0", rep.DivergenceChecked, rep.DivergenceFailed)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("unexpected violations: %v", rep.Violations)
	}
	if rep.P50Ms <= 0 || rep.P99Ms < rep.P95Ms || rep.P95Ms < rep.P50Ms || rep.MaxMs < rep.P99Ms {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v max=%v", rep.P50Ms, rep.P95Ms, rep.P99Ms, rep.MaxMs)
	}
}

func TestLoadRunDeterministicSequence(t *testing.T) {
	// Same seed + flags → the same per-worker request choices. Timing
	// differs, so compare the request *set* sizes via item counts under
	// a rate cap low enough that both runs complete the same schedule.
	target := startTarget(t)
	opts := loadOptions{
		target:      target,
		duration:    300 * time.Millisecond,
		rate:        100,
		concurrency: 2,
		seed:        42,
		mix:         "efficiency=1",
		keys:        3,
	}
	a, err := loadRun(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadRun(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Paced at 100 req/s for 300ms both runs issue ~30 requests; allow
	// scheduling slop but require the pacing to hold within 2x.
	for _, rep := range []*report{a, b} {
		if rep.Requests < 10 || rep.Requests > 60 {
			t.Errorf("paced run issued %d requests, want ~30", rep.Requests)
		}
		if rep.Errors != 0 {
			t.Errorf("errors: %d", rep.Errors)
		}
	}
}

func TestLoadRunFlagsSLOViolations(t *testing.T) {
	target := startTarget(t)
	rep, err := loadRun(context.Background(), loadOptions{
		target:      target,
		duration:    200 * time.Millisecond,
		concurrency: 2,
		seed:        1,
		mix:         "efficiency=1",
		keys:        2,
		sloP99:      0.000001, // impossible: everything is slower than 1ns
		minRate:     1e9,      // impossible throughput floor
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) < 2 {
		t.Fatalf("want p99 and min-rate violations, got %v", rep.Violations)
	}
	joined := strings.Join(rep.Violations, "; ")
	if !strings.Contains(joined, "p99") || !strings.Contains(joined, "rate") {
		t.Errorf("violations missing expected entries: %v", rep.Violations)
	}
}

func TestExactQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := exactQuantile(s, 0.50); got != 6 {
		t.Errorf("p50 = %v, want 6 (nearest rank)", got)
	}
	if got := exactQuantile(s, 0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	if got := exactQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}
