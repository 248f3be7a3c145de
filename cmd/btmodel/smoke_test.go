package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// btmodelBin is the compiled CLI under test, built once in TestMain so
// the smoke tests exercise the real binary (flag parsing, exit codes,
// stdout wiring) rather than run() in-process.
var btmodelBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "btmodel-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	btmodelBin = filepath.Join(dir, "btmodel")
	if out, err := exec.Command("go", "build", "-o", btmodelBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building btmodel: %v\n%s", err, out)
		os.RemoveAll(dir) //nolint:errcheck
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir) //nolint:errcheck
	os.Exit(code)
}

func runBinary(t *testing.T, bin string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", bin, args, err, stderr.String())
	}
	return stdout.String()
}

// TestBinarySmokeGolden pins fixed-seed runs' headers and the first
// and last series lines. These values are the model's output contract:
// they change only when the model itself (or its RNG discipline)
// changes, which must be a deliberate, reviewed act.
func TestBinarySmokeGolden(t *testing.T) {
	base := []string{"-B", "20", "-k", "3", "-s", "8", "-runs", "50", "-seed", "1"}
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"chain", base, []string{
			"multiphased download model: B=20 k=3 s=8",
			"  p_(   1) = 0.4750", // first trading-power line
			"  p_(  19) = 0.4750", // last trading-power line
			"  completion steps: mean 9.9, median 9.0, p25 9.0, p75 10.0",
			"  k=1: eta=0.4840 (p_r=0.450, 13 iterations)",  // first efficiency line
			"  k=4: eta=0.9366 (p_r=0.988, 215 iterations)", // last efficiency line
		}},
		{"seeded_selfphi", append(base[:len(base):len(base)], "-seedconns", "2", "-seedserve", "0.5", "-selfphi"), []string{
			"-> 1.36x speedup",
			"33 iterations, final delta 0.0000, entropy 0.909",
			"phi(   1) = 0.2377",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := runBinary(t, btmodelBin, tc.args...)
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("output missing golden line %q\n--- got:\n%s", want, out)
				}
			}
		})
	}
}

// TestBinarySmokeDeterministic: identical invocations are byte-identical;
// a different seed moves the Monte-Carlo summary.
func TestBinarySmokeDeterministic(t *testing.T) {
	args := []string{"-B", "20", "-k", "3", "-s", "8", "-runs", "50", "-seed", "7"}
	a := runBinary(t, btmodelBin, args...)
	b := runBinary(t, btmodelBin, args...)
	if a != b {
		t.Fatal("same seed produced different output")
	}
	c := runBinary(t, btmodelBin, "-B", "20", "-k", "3", "-s", "8", "-runs", "50", "-seed", "8")
	if a == c {
		t.Fatal("different seeds produced identical ensembles")
	}
}

func TestBinaryRejectsBadFlags(t *testing.T) {
	cmd := exec.Command(btmodelBin, "-B", "0")
	if err := cmd.Run(); err == nil {
		t.Fatal("B=0 must exit nonzero")
	}
}
