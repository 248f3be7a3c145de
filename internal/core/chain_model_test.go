package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/par"
	"repro/internal/stats"
)

func TestExpectedDownloadTimeMatchesSampling(t *testing.T) {
	p := testParams()
	exact, err := ExpectedDownloadTime(p)
	if err != nil {
		t.Fatal(err)
	}
	if exact <= float64(p.B)/float64(p.K) {
		t.Fatalf("expected time %g implausibly small", exact)
	}
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(77, 88)
	var acc stats.Accumulator
	for i := 0; i < 4000; i++ {
		traj := m.SampleTrajectory(r.Split())
		if traj[len(traj)-1].B != p.B {
			t.Fatal("trajectory did not complete")
		}
		acc.Add(float64(len(traj) - 1))
	}
	if rel := math.Abs(acc.Mean()-exact) / exact; rel > 0.05 {
		t.Errorf("sampled mean %g vs exact %g (rel %g)", acc.Mean(), exact, rel)
	}
}

func TestTrajectoryShape(t *testing.T) {
	p := testParams()
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(5, 5)
	traj := m.SampleTrajectory(r)
	if traj[0] != (State{}) {
		t.Error("trajectory must start at (0,0,0)")
	}
	last := traj[len(traj)-1]
	if last.B != p.B {
		t.Errorf("trajectory ends at b = %d, want %d", last.B, p.B)
	}
	// b never decreases and never jumps by more than K.
	for i := 1; i < len(traj); i++ {
		db := traj[i].B - traj[i-1].B
		if db < 0 || db > p.K {
			t.Fatalf("step %d: b jumped by %d", i, db)
		}
		if traj[i].N < 0 || traj[i].N > p.K {
			t.Fatalf("step %d: n = %d out of range", i, traj[i].N)
		}
		if traj[i].I < 0 || traj[i].I > p.S {
			t.Fatalf("step %d: i = %d out of range", i, traj[i].I)
		}
	}
}

func TestEnsembleStats(t *testing.T) {
	p := testParams()
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	es, err := m.Ensemble(stats.NewRNG(9, 9), 300)
	if err != nil {
		t.Fatal(err)
	}
	if es.CompletionSteps.N != 300 {
		t.Errorf("completions = %d, want 300", es.CompletionSteps.N)
	}
	// First passage to 0 pieces is 0 steps and is monotone in b.
	if es.FirstPassage[0] != 0 {
		t.Errorf("first passage to 0 = %g", es.FirstPassage[0])
	}
	for b := 1; b <= p.B; b++ {
		if es.FirstPassage[b] < es.FirstPassage[b-1] {
			t.Fatalf("first passage not monotone at b=%d", b)
		}
	}
	// Potential ratio curve is within [0, 1].
	for b, v := range es.PotentialRatioCurve(p.S) {
		if math.IsNaN(v) {
			continue
		}
		if v < 0 || v > 1 {
			t.Errorf("ratio[%d] = %g out of [0,1]", b, v)
		}
	}
	if _, err := m.Ensemble(stats.NewRNG(1, 1), 0); err == nil {
		t.Error("zero runs must be rejected")
	}
	if es.Truncated != 0 {
		t.Errorf("truncated = %d on a completing ensemble", es.Truncated)
	}
}

func TestEnsembleJobsInvariance(t *testing.T) {
	// The parallel fan-out must be bit-identical for any worker count:
	// run i always draws from the indexed substream At(i) and partials
	// merge in run order.
	p := testParams()
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	run := func(jobs int) EnsembleStats {
		par.SetDefaultJobs(jobs)
		es, err := m.Ensemble(stats.NewRNG(77, 88), 120)
		if err != nil {
			t.Fatal(err)
		}
		return es
	}
	defer par.SetDefaultJobs(0)
	want := run(1)
	for _, jobs := range []int{4, 8} {
		got := run(jobs)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("jobs=%d ensemble differs from serial", jobs)
		}
	}
}

// TestEnsembleTruncated: a run that never finishes is surfaced in
// Truncated, never folded into the completion summary. One row per law
// that strands a peer at 1 <= b < B with no connection — p_n = 0; an
// empty potential set with α = 0 (pInit = 0, or pInit = 0.01 at s = 1,
// where about 99 % of runs start empty); with γ = 0 at s = 2 — must
// finish and truncate exactly the runs a plain Step loop (to b = B or
// 10 000 steps) finishes and truncates on the same substreams, and
// count as many runs stuck in bootstrap and in the last phase. Every
// row matches the run-by-run fold over SampleTrajectory bit for bit.
// The near-stranded chain (pInit = 0, α = 1e-12) can still finish, so
// its runs walk the whole step cap.
func TestEnsembleTruncated(t *testing.T) {
	with := func(edit func(p *Params)) Params {
		p := DefaultParams(40)
		edit(&p)
		return p
	}
	for _, c := range []struct {
		name string
		p    Params
		runs int
	}{
		{"pn=0", with(func(p *Params) { p.PN = 0 }), 200},
		{"pInit=alpha=0", with(func(p *Params) { p.PInit, p.Alpha = 0, 0 }), 200},
		{"alpha=0 pInit=0.01 s=1", with(func(p *Params) { p.Alpha, p.PInit, p.S = 0, 0.01, 1 }), 200},
		{"gamma=0 s=2", with(func(p *Params) { p.Gamma, p.S = 0, 2 }), 200},
		{"near-stranded", with(func(p *Params) { p.PInit, p.Alpha = 0, 1e-12 }), 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := NewModel(c.p)
			if err != nil {
				t.Fatal(err)
			}
			r := stats.NewRNG(3, 3)
			es, err := m.Ensemble(r, c.runs)
			if err != nil {
				t.Fatal(err)
			}
			if ref := runByRunEnsemble(m, r, c.runs); !sameEnsemble(es, ref) {
				t.Fatalf("Ensemble %+v, run-by-run fold %+v", es, ref)
			}
			if c.runs == 2 {
				if es.Truncated != c.runs || len(es.CompletionTimes) != 0 {
					t.Fatalf("truncated %d, completions %v, want every run capped", es.Truncated, es.CompletionTimes)
				}
				ph := es.Phases
				if steps := ph.MeanBootstrap + ph.MeanEfficient + ph.MeanLast; steps != MaxTrajectorySteps {
					t.Fatalf("a capped run walked %g steps, want %d", steps, MaxTrajectorySteps)
				}
				return
			}
			var done []float64
			var truncated, doneSteps, stuck, last int
			for i := range c.runs {
				ri, s := r.At(i), State{}
				traj := Trajectory{s}
				for step := 0; step < 10_000 && s.B != c.p.B; step++ {
					s = m.Step(ri, s)
					traj = append(traj, s)
				}
				if s.B == c.p.B {
					done = append(done, float64(len(traj)-1))
					doneSteps += len(traj) - 1
				} else {
					truncated++
				}
				pb := ClassifyPhases(c.p, traj)
				if pb.Bootstrap > 1 {
					stuck++
				}
				if pb.Last > 0 {
					last++
				}
			}
			if truncated == 0 {
				t.Fatal("no run stranded; the row tests nothing")
			}
			if es.Truncated != truncated || !slices.Equal(es.CompletionTimes, done) {
				t.Fatalf("truncated %d, completions %v; the Step loop truncates %d, completes %v",
					es.Truncated, es.CompletionTimes, truncated, done)
			}
			ph, n := es.Phases, float64(c.runs)
			walked := math.Round((ph.MeanBootstrap+ph.MeanEfficient+ph.MeanLast)*n) - float64(doneSteps)
			if walked >= float64(truncated*10_000) {
				t.Errorf("the %d truncated runs walked %g steps; a stranded run stops where it strands", truncated, walked)
			}
			if es.Phases.FracStuckBootstrap != float64(stuck)/n || es.Phases.FracLastPhase != float64(last)/n {
				t.Errorf("stuck in bootstrap %g, in last phase %g; the Step loop %g, %g",
					es.Phases.FracStuckBootstrap, es.Phases.FracLastPhase, float64(stuck)/n, float64(last)/n)
			}
		})
	}
}

// Figure 1(a) shape from the model: with a small neighbor set the
// potential-set ratio dips at the start and the end of the download; with
// a large neighbor set it stays near 1 through the middle.
func TestPotentialCurveFig1aShape(t *testing.T) {
	mkParams := func(s int) Params {
		p := Params{
			B: 60, K: 7, S: s,
			PInit: 0.5, Alpha: 0.1, Gamma: 0.1, PR: 0.9, PN: 0.8,
			Phi: UniformPhi(60),
		}
		return p
	}
	curve := func(s int) []float64 {
		m, err := NewModel(mkParams(s))
		if err != nil {
			t.Fatal(err)
		}
		es, err := m.Ensemble(stats.NewRNG(uint64(s), 3), 400)
		if err != nil {
			t.Fatal(err)
		}
		return es.PotentialRatioCurve(s)
	}
	small := curve(5)
	large := curve(40)

	mid := func(c []float64) float64 {
		return stats.Mean(c[20:40])
	}
	// Mid-download the ratio approaches p_(b+n), which is near 1 for a
	// uniform ϕ regardless of s (the paper's "fraction of neighbors in the
	// potential set is close to 1 for a suitably chosen neighbor set").
	if mid(large) < 0.8 {
		t.Errorf("large-s mid-download ratio %g, want > 0.8", mid(large))
	}
	if mid(small) < 0.8 {
		t.Errorf("small-s mid-download ratio %g, want > 0.8", mid(small))
	}
	// End-of-download decline (last piece problem) visible for both.
	if large[55] > large[30] {
		t.Errorf("ratio should decline near completion: b=55 %g vs b=30 %g", large[55], large[30])
	}
	if small[55] > small[30] {
		t.Errorf("small-s ratio should decline near completion: b=55 %g vs b=30 %g", small[55], small[30])
	}
}
