package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/serve"
)

// btworkerBin is the compiled CLI under test, built once in TestMain.
var btworkerBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "btworker-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	btworkerBin = filepath.Join(dir, "btworker")
	if out, err := exec.Command("go", "build", "-o", btworkerBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building btworker: %v\n%s", err, out)
		os.RemoveAll(dir) //nolint:errcheck
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir) //nolint:errcheck
	os.Exit(code)
}

// TestBinaryConnect drives the shipped binary down its real path: it
// dials an in-test coordinator, says hello, and answers one request of
// every serve kind — model shards and whole answers alike — each pooled
// result byte-identical to a local run under its own deadline, with no
// nack and no strike; SIGTERM then sends the goodbye and exits 0.
func TestBinaryConnect(t *testing.T) {
	reg := obs.NewRegistry()
	coord := dist.New(dist.Config{Registry: reg})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var stderr bytes.Buffer
	cmd := exec.Command(btworkerBin, "-connect", addr, "-slots", "2", "-name", "bin")
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck
	for deadline := time.Now().Add(20 * time.Second); coord.HealthyWorkers() < 1; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("btworker never said hello\nstderr: %s", stderr.String())
		}
	}

	for _, req := range []*serve.Request{
		{Kind: serve.KindModel, Seed: 7, Model: &serve.ModelQuery{B: 40, Runs: 96}},
		{Kind: serve.KindEfficiency, Seed: 7, Efficiency: &serve.EfficiencyQuery{K: 5}},
		{Kind: serve.KindSim, Seed: 7, Sim: &serve.SimQuery{Horizon: 40}},
		{Kind: serve.KindStability, Seed: 7, Sim: &serve.SimQuery{Horizon: 40}},
		{Kind: serve.KindFluid, Seed: 7, Fluid: &serve.FluidQuery{Horizon: 50, Grid: 20}},
	} {
		if err := req.Canonicalize(); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		pooled, err := serve.PoolEvaluator(coord, 16)(ctx, req)
		cancel()
		if err != nil {
			t.Fatalf("%s: pool evaluation: %v\nstderr: %s", req.Kind, err, stderr.String())
		}
		local, err := serve.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		lb, _ := json.Marshal(local)
		if pb, _ := json.Marshal(pooled); !bytes.Equal(pb, lb) {
			t.Fatalf("%s: pool result diverges from local run:\n pool: %.160s\nlocal: %.160s", req.Kind, pb, lb)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("btworker after SIGTERM: %v\nstderr: %s", err, stderr.String())
	}
	// The process is gone; the coordinator books the goodbye and the
	// disconnect on its own goroutine.
	for deadline := time.Now().Add(10 * time.Second); coord.Workers() > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never saw the worker leave")
		}
	}
	if c := reg.Snapshot().Counters; c["dist.goodbyes"] != 1 || c["dist.strikes"] != 0 || c["dist.nacks"] != 0 || c["dist.results"] < 10 {
		t.Fatalf("goodbyes=%d strikes=%d nacks=%d results=%d, want 1, 0, 0, >= 10 (96 runs in shards of 16, one shard per other kind)",
			c["dist.goodbyes"], c["dist.strikes"], c["dist.nacks"], c["dist.results"])
	}
}

// TestBinaryFlagRejections: nonsensical flag values exit 2 with a clear
// message instead of silently clamping.
func TestBinaryFlagRejections(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"jobs zero", []string{"-jobs", "0", "-connect", "127.0.0.1:1"}, "-jobs must be >= 1"},
		{"jobs negative", []string{"-jobs", "-4", "-connect", "127.0.0.1:1"}, "-jobs must be >= 1"},
		{"slots zero", []string{"-slots", "0", "-connect", "127.0.0.1:1"}, "-slots must be >= 1"},
		{"slots negative", []string{"-slots", "-1", "-connect", "127.0.0.1:1"}, "-slots must be >= 1"},
		{"no connect", nil, "-connect is required"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(btworkerBin, tc.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("err = %v, want exit error", err)
			}
			if ee.ExitCode() != 2 {
				t.Fatalf("exit code = %d, want 2\nstderr: %s", ee.ExitCode(), stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr missing %q:\n%s", tc.want, stderr.String())
			}
		})
	}
}
