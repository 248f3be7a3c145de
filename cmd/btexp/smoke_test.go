package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// btexpBin is the compiled CLI under test, built once in TestMain.
var btexpBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "btexp-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	btexpBin = filepath.Join(dir, "btexp")
	if out, err := exec.Command("go", "build", "-o", btexpBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building btexp: %v\n%s", err, out)
		os.RemoveAll(dir) //nolint:errcheck
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir) //nolint:errcheck
	os.Exit(code)
}

func runBtexp(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(btexpBin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("btexp %v: %v\nstderr: %s", args, err, stderr.String())
	}
	return stdout.String()
}

// TestBinarySmokeGoldenFig4a pins the quick-scale Figure 4(a) table:
// the header plus the first and last series rows. The harness seeds
// every run by index, so these rows are bit-stable regardless of -jobs.
func TestBinarySmokeGoldenFig4a(t *testing.T) {
	out := runBtexp(t, "-fig", "4a", "-scale", "quick")
	for _, want := range []string{
		"# Figure 4(a): efficiency vs number of connections k (model upper bound vs simulation)",
		"1  0.5909      0.3672        0.7168", // first series row (k=1)
		"8  0.6584      0.7270        0.7724", // last series row (k=8)
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing golden line %q\n--- got:\n%s", want, out)
		}
	}
}

// allQuickSHA256 pins the bytes of `btexp -fig all -scale quick`: 201
// lines covering every figure in "all". Only a change that means to move
// a rendered number may change it, and the commit says so.
const allQuickSHA256 = "2790af6eb59954a43570ce1a9c717e1638beeaae42e86bf0458a374cff77e963"

// TestBinarySmokeJobsInvariant: the experiment engine's determinism
// contract at the CLI boundary — the rendered tables are identical for
// any worker count, and every quick-scale figure renders the pinned
// bytes at both. The binary is built without -race, so the race pass
// costs no more here.
func TestBinarySmokeJobsInvariant(t *testing.T) {
	serial := runBtexp(t, "-fig", "4a", "-scale", "quick", "-jobs", "1")
	wide := runBtexp(t, "-fig", "4a", "-scale", "quick", "-jobs", "8")
	if serial != wide {
		t.Fatal("-jobs changed the rendered figure")
	}
	for _, jobs := range []string{"1", "8"} {
		out := runBtexp(t, "-fig", "all", "-scale", "quick", "-jobs", jobs)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != allQuickSHA256 {
			t.Errorf("-fig all -scale quick -jobs %s: sha256 %s, want %s\n--- got:\n%s", jobs, got, allQuickSHA256, out)
		}
	}
}

func TestBinaryRejectsUnknownFigure(t *testing.T) {
	cmd := exec.Command(btexpBin, "-fig", "nope")
	if err := cmd.Run(); err == nil {
		t.Fatal("unknown figure must exit nonzero")
	}
}

// TestBinaryRejectsBadJobs: a non-positive -jobs exits 2 with a clear
// message instead of silently clamping or hanging.
func TestBinaryRejectsBadJobs(t *testing.T) {
	for _, jobs := range []string{"0", "-3"} {
		var stderr bytes.Buffer
		cmd := exec.Command(btexpBin, "-fig", "4a", "-scale", "quick", "-jobs", jobs)
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("-jobs %s: err = %v, want exit error", jobs, err)
		}
		if ee.ExitCode() != 2 {
			t.Fatalf("-jobs %s: exit code = %d, want 2", jobs, ee.ExitCode())
		}
		if !strings.Contains(stderr.String(), "-jobs must be >= 1") {
			t.Fatalf("-jobs %s: stderr missing message:\n%s", jobs, stderr.String())
		}
	}
}
