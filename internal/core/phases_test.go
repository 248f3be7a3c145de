package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// classifyPhasesRef is ClassifyPhases as it was written before it labelled
// through trace.Phaser, with the escape and last-phase predicates inline.
// It stays as the reference the Phaser-based labelling must match.
func classifyPhasesRef(p Params, t Trajectory) PhaseBreakdown {
	var out PhaseBreakdown
	booted := false
	for step := 1; step < len(t); step++ {
		s := t[step]
		if !booted {
			if s.B >= 1 && s.I >= 1 {
				booted = true
				out.Efficient++ // the escaping step begins trading
				continue
			}
			out.Bootstrap++
			continue
		}
		if s.I == 0 && s.B > 1 && s.B < p.B {
			out.Last++
			continue
		}
		out.Efficient++
	}
	return out
}

// addRun is the fold SampleRuns made before the walker sampled into its
// accumulator: one whole trajectory, folded after the fact, step by step
// as walk folds each state as it lands. It stays as the reference walk
// must match entry for entry.
func (a *EnsembleAccum) addRun(p Params, traj Trajectory) {
	var pb PhaseBreakdown
	ph := trace.Phaser{B: p.B}
	nextB := 0
	for step, s := range traj {
		if step > 0 {
			pb.count(ph.Next(s.B, s.I))
		}
		a.PotSum[s.B] += int64(s.I)
		a.PotCnt[s.B]++
		if nextB <= s.B {
			a.FPSum[nextB] += int64(step)
			a.FPCnt[nextB]++
			if nextB = s.B + 1; nextB < len(a.FPSum) {
				a.FPSum[nextB] -= int64(step)
				a.FPCnt[nextB]--
			}
		}
	}
	if steps := len(traj) - 1; traj[steps].B == p.B {
		a.Completion = append(a.Completion, steps)
	} else {
		a.Truncated++
	}
	a.Phases.add(pb)
}

// TestClassifyPhasesMatchesReference holds ClassifyPhases and addRun's
// phase totals to the reference on hand-made trajectories, and on
// sampled ones holds the walker's phase totals to ClassifyPhases over
// SampleTrajectory of the same substream — and the walker's whole
// accumulator and completion step to addRun's.
func TestClassifyPhasesMatchesReference(t *testing.T) {
	hand := []Trajectory{
		nil,
		{{}},
		{{}, {B: 1}, {B: 1}},                   // never boots
		{{}, {B: 1}, {B: 1}, {B: 1, I: 1}},     // boots on the last step
		{{}, {B: 1, I: 2}, {N: 0, B: 1, I: 0}}, // b=1, i=0 after booting
		{{}, {B: 1, I: 2}, {N: 2, B: 1}, {N: 2, B: 3}},          // i=0 with live connections
		{{}, {B: 1}, {N: 2, B: 1}, {N: 1, B: 3}, {B: 4}},        // i=0, n>0 before booting
		{{}, {B: 1, I: 1}, {N: 1, B: 2}, {B: 3}, {B: 3}},        // stalls to the end
		{{}, {B: 1, I: 1}, {N: 3, B: 4}, {B: 20}, {B: 20}},      // completes with i=0
		{{}, {B: 25, I: 3}, {B: 30}, {N: 1, B: 30, I: 0}},       // b beyond B
		{{N: 3, B: 5, I: 2}, {B: 5}, {B: 5, I: 1}, {B: 6}},      // starts mid-download
		{{}, {B: 1, I: 1}, {B: 1, I: 0}, {B: 2, I: 0}, {B: 19}}, // 1 < b < B edges
	}
	p := testParams()
	for i, traj := range hand {
		want := classifyPhasesRef(p, traj)
		if got := ClassifyPhases(p, traj); got != want {
			t.Errorf("hand-made %d: ClassifyPhases = %+v, reference %+v", i, got, want)
		}
		if len(traj) == 0 || slices.ContainsFunc(traj, func(s State) bool { return s.B > p.B }) {
			continue // addRun folds only what a model can sample
		}
		acc, ref := NewEnsembleAccum(p.B), phaseAccumulator{}
		acc.addRun(p, traj)
		if ref.add(want); acc.Phases != ref {
			t.Errorf("hand-made %d: addRun phases = %+v, reference %+v", i, acc.Phases, ref)
		}
	}

	for _, c := range []struct {
		name string
		p    Params
	}{
		{"DefaultParams(5)", DefaultParams(5)},
		{"DefaultParams(40)", DefaultParams(40)},
		{"testParams", testParams()},
	} {
		m, err := NewModel(c.p)
		if err != nil {
			t.Fatal(err)
		}
		acc, ref := NewEnsembleAccum(c.p.B), NewEnsembleAccum(c.p.B)
		var want phaseAccumulator
		r := stats.NewRNG(30, 5)
		for run := 0; run < 10_000; run++ {
			traj := m.SampleTrajectory(r.At(run))
			if got, wantRef := ClassifyPhases(c.p, traj), classifyPhasesRef(c.p, traj); got != wantRef {
				t.Fatalf("%s run %d: ClassifyPhases = %+v, reference %+v", c.name, run, got, wantRef)
			}
			want.add(ClassifyPhases(c.p, traj))
			steps, err := m.walk(context.Background(), r.At(run), acc)
			if err != nil {
				t.Fatal(err)
			}
			if acc.Phases != want {
				t.Fatalf("%s run %d: walk phases = %+v, ClassifyPhases %+v", c.name, run, acc.Phases, want)
			}
			ref.addRun(c.p, traj)
			if steps >= 0 {
				acc.Completion = append(acc.Completion, steps)
			} else {
				acc.Truncated++
			}
			if acc.Runs() != ref.Runs() || !slices.Equal(acc.PotSum, ref.PotSum) || !slices.Equal(acc.PotCnt, ref.PotCnt) ||
				!slices.Equal(acc.FPSum, ref.FPSum) || !slices.Equal(acc.FPCnt, ref.FPCnt) {
				t.Fatalf("%s run %d: walk folded %+v, addRun %+v", c.name, run, acc, ref)
			}
		}
		if !reflect.DeepEqual(acc, ref) {
			t.Fatalf("%s: walk folded %+v, addRun %+v", c.name, acc, ref)
		}
	}
}
