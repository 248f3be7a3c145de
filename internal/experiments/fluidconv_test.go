package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestFluidConvergenceMonotone is the sim-to-fluid convergence gate at
// Quick scale: the scaled stationary-window error must strictly shrink
// as the swarm scale grows.
func TestFluidConvergenceMonotone(t *testing.T) {
	r, err := FluidConvergence(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Err) != len(r.Ns) || len(r.Ns) != 3 {
		t.Fatalf("want 3 rows, got Ns=%v Err=%v", r.Ns, r.Err)
	}
	for i, eta := range r.Eta {
		if eta <= 0 || eta > 1 {
			t.Fatalf("row N=%d: predicted eta %g outside (0, 1]", r.Ns[i], eta)
		}
	}
	for i, e := range r.Err {
		if math.IsNaN(e) || e <= 0 {
			t.Fatalf("row N=%d: bad error %g", r.Ns[i], e)
		}
	}
	if !r.Monotone {
		t.Fatalf("scaled error not monotone in N: %v", r.Err)
	}
	if r.Err[len(r.Err)-1] >= r.Err[0]/2 {
		t.Fatalf("error barely shrinks over a 16x scale range: %v", r.Err)
	}
	// The fluid level at the predicted η and the sim level agree at the
	// largest scale — the §5 η at the runs' own p_r predicts the level.
	last := len(r.Ns) - 1
	if d := math.Abs(r.SimLevel[last] - r.FluidLevel[last]); d > 0.02 {
		t.Fatalf("predicted levels diverge at N=%d: sim %g fluid %g", r.Ns[last], r.SimLevel[last], r.FluidLevel[last])
	}
}

// TestFluidConvergenceRendered pins the figure registration: the
// fluidconv selector renders the table plus the machine-checkable
// verdict line the CI gate greps for.
func TestFluidConvergenceRendered(t *testing.T) {
	figs, err := SelectFigures("fluidconv", Quick, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || figs[0].Name != "fluidconv" {
		t.Fatalf("selector returned %v", figs)
	}
	var b bytes.Buffer
	if err := figs[0].Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "monotone: true") {
		t.Fatalf("rendered figure lacks the monotone verdict:\n%s", out)
	}
	if !strings.Contains(out, "scaled RMSE") {
		t.Fatalf("rendered figure lacks the error column:\n%s", out)
	}
}
