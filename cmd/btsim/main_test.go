package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

func testConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Pieces = 20
	cfg.NeighborSet = 12
	cfg.MaxConns = 3
	cfg.InitialPeers = 20
	cfg.ArrivalRate = 1
	cfg.Horizon = 40
	cfg.TrackPeers = 3
	return cfg
}

func TestRunSummaryAndSeries(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, testConfig(), true, "", "", ""); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"swarm run:", "completions=", "mean download time",
		"mean efficiency", "entropy:", "peers  entropy  efficiency",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestRunWritesTraces(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	var sb strings.Builder
	if err := run(&sb, testConfig(), false, dir, "", ""); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no trace files written")
	}
	// Every written trace parses and validates.
	for _, e := range entries {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		d, err := trace.Read(f)
		_ = f.Close()
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if d.Meta.Client != "sim" {
			t.Errorf("%s: client = %q", e.Name(), d.Meta.Client)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Pieces = 0
	var sb strings.Builder
	if err := run(&sb, cfg, false, "", "", ""); err == nil {
		t.Error("invalid config must error")
	}
}

func TestRunKernelStatsAndMetricsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	var sb strings.Builder
	if err := run(&sb, testConfig(), false, "", path, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "kernel:") ||
		!strings.Contains(sb.String(), "events fired") {
		t.Errorf("missing kernel stats line in %q", sb.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadSnapshots(f)
	_ = f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(recs))
	}
	if recs[0].Counters["sim.rounds"] <= 0 {
		t.Errorf("snapshot missing sim.rounds: %+v", recs[0].Counters)
	}
	if recs[0].Counters["sim.exchanges"] <= 0 {
		t.Errorf("snapshot missing sim.exchanges: %+v", recs[0].Counters)
	}
}
