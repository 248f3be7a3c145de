package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/stats"
)

// TestEnsembleCtxCancelled asserts EnsembleCtx surfaces cancellation, on
// the default chain and on the stranded one (α = γ = p_init = 0): a
// cancelled context stops each run at its first poll, before any step,
// so walk folds the joining state and returns.
func TestEnsembleCtxCancelled(t *testing.T) {
	stranded := DefaultParams(10)
	stranded.Alpha, stranded.Gamma, stranded.PInit = 0, 0, 0
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		p    Params
	}{{"default", DefaultParams(10)}, {"stranded", stranded}} {
		t.Run(c.name, func(t *testing.T) {
			m, err := NewModel(c.p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.EnsembleCtx(ctx, stats.NewRNG(1, 2), 32); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			acc := NewEnsembleAccum(c.p.B)
			steps, err := m.walk(ctx, stats.NewRNG(1, 2), acc)
			if !errors.Is(err, context.Canceled) || steps != -1 {
				t.Fatalf("walk = %d, %v, want -1, context.Canceled", steps, err)
			}
			var states int64
			for _, n := range acc.PotCnt {
				states += n
			}
			if states != 1 {
				t.Fatalf("cancelled walk folded %d states, want the joining state only", states)
			}
		})
	}
}

// TestEnsembleCtxMatchesEnsemble asserts a never-firing context leaves the
// ensemble bit-identical to the plain call.
func TestEnsembleCtxMatchesEnsemble(t *testing.T) {
	p := DefaultParams(10)
	p.B = 30
	p.Phi = UniformPhi(30)
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Ensemble(stats.NewRNG(7, 9), 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.EnsembleCtx(context.Background(), stats.NewRNG(7, 9), 40)
	if err != nil {
		t.Fatal(err)
	}
	if a.CompletionSteps.Mean != b.CompletionSteps.Mean || a.Truncated != b.Truncated {
		t.Fatalf("ensembles diverge: %+v vs %+v", a.CompletionSteps, b.CompletionSteps)
	}
	for i := range a.FirstPassage {
		av, bv := a.FirstPassage[i], b.FirstPassage[i]
		if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
			t.Fatalf("first passage diverges at %d: %g vs %g", i, av, bv)
		}
	}
}
