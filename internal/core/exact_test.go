package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// slowBootParams is testParams() with a rare escape (α = 0.02) and a
// mostly empty initial potential set (p_init = 0.05, s = 4), so the
// bootstrap phase dominates.
func slowBootParams() Params {
	p := testParams()
	p.Alpha = 0.02
	p.PInit = 0.05
	p.S = 4
	return p
}

// seededParams is DefaultParams(s) with conns seed connections that each
// deliver a piece with probability pserve per step.
func seededParams(s, conns int, pserve float64) Params {
	p := DefaultParams(s)
	p.Seeds = SeedParams{Conns: conns, PServe: pserve}
	return p
}

// TestExactPhaseDurationsMatchMonteCarlo holds the three exact entry
// points to a fixed-seed ensemble within 4 standard errors (plus the
// ensemble's resolution, one step or one run in all of it): every phase
// and the download time to the sampler's means, and the phase occupancy
// and completion probability at a few steps to the sampler's fractions.
// Two closed forms hold too: the total is the absorption time, and
// without seeds the bootstrap phase is the join step plus the α wait
// when the initial potential set is empty, (1−p_init)^s/α. Seeds make
// that wait a γ wait once they deliver, so seeded rows skip it.
func TestExactPhaseDurationsMatchMonteCarlo(t *testing.T) {
	const runs = 40000
	steps := []int{2, 5, 10, 20, 40}
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"testParams", testParams()}, {"DefaultParams(5)", DefaultParams(5)}, {"alpha=0.02", slowBootParams()},
		{"s=20 seeds 1x0.5", seededParams(20, 1, 0.5)}, {"s=20 seeds 2x0.5", seededParams(20, 2, 0.5)},
		{"s=5 seeds 1x0.2", seededParams(5, 1, 0.2)}, {"s=50 seeds 3x0.9", seededParams(50, 3, 0.9)},
	} {
		exact, err := ExactPhaseDurations(c.p)
		if err != nil {
			t.Fatal(err)
		}
		total, err := ExpectedDownloadTime(c.p)
		if err != nil {
			t.Fatal(err)
		}
		occ, err := TransientPhases(c.p, steps[len(steps)-1])
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(c.p)
		if err != nil {
			t.Fatal(err)
		}
		r := stats.NewRNG(31, 41)
		var boot, eff, last, done stats.Accumulator
		// at[ph][j] counts the runs in phase ph at steps[j], ph = 0 once done.
		var at [trace.PhaseLast + 1][]float64
		for ph := range at {
			at[ph] = make([]float64, len(steps))
		}
		for range runs {
			traj := m.SampleTrajectory(r.Split())
			if traj[len(traj)-1].B != c.p.B {
				t.Fatalf("%s: trajectory did not complete", c.name)
			}
			pb := ClassifyPhases(c.p, traj)
			boot.Add(float64(pb.Bootstrap))
			eff.Add(float64(pb.Efficient))
			last.Add(float64(pb.Last))
			done.Add(float64(len(traj) - 1))
			ph := trace.Phaser{B: c.p.B}
			for st, s := range traj {
				label := ph.Next(s.B, s.I)
				if s.B == c.p.B {
					label = 0
				}
				if j := slices.Index(steps, st); j >= 0 {
					at[label][j]++
				}
			}
			for j, st := range steps {
				if st >= len(traj) {
					at[0][j]++
				}
			}
		}
		for _, ph := range []struct {
			name  string
			exact float64
			mc    *stats.Accumulator
		}{{"bootstrap", exact.Bootstrap, &boot}, {"efficient", exact.Efficient, &eff}, {"last", exact.Last, &last}, {"download time", total, &done}} {
			// One step in the whole ensemble, 1/runs, is the resolution of a
			// mean: seeds make the bootstrap and last phases ~1e-5 steps at
			// s = 20, and no run enters them.
			se := math.Sqrt(ph.mc.Variance() / runs)
			if d := math.Abs(ph.exact - ph.mc.Mean()); d > 4*se+1.0/runs {
				t.Errorf("%s %s: exact %.5g vs MC %.5g ± %.2g (%.1f SE)", c.name, ph.name, ph.exact, ph.mc.Mean(), se, d/se)
			}
		}
		for j, st := range steps {
			for ph, exact := range [...][]float64{occ.Done, occ.Bootstrap, occ.Efficient, occ.Last} {
				// A fraction's SE is √(q(1−q)/runs); one run, 1/runs, is its
				// resolution where q is 0 or 1.
				q := at[ph][j] / runs
				if d := math.Abs(exact[st] - q); d > 4*math.Sqrt(q*(1-q)/runs)+1.0/runs {
					t.Errorf("%s step %d %s: exact %.5g vs MC %.5g", c.name, st, [...]string{"done", "bootstrap", "efficient", "last"}[ph], exact[st], q)
				}
			}
		}
		if c.p.Seeds == (SeedParams{}) {
			wantBoot := math.Pow(1-c.p.PInit, float64(c.p.S)) * ExpectedBootstrapWait(c.p)
			if math.Abs(exact.Bootstrap-wantBoot) > 1e-9 {
				t.Errorf("%s: bootstrap %.12g, closed form %.12g", c.name, exact.Bootstrap, wantBoot)
			}
		}
		if math.Abs(exact.Total()-total) > 1e-9 {
			t.Errorf("%s: total %.12g, absorption time %.12g", c.name, exact.Total(), total)
		}
	}
}

// TestExactResultsAreBitReproducible calls the exact analyses repeatedly:
// every result must carry the same bits, so the chain's rows may not
// depend on map iteration order.
func TestExactResultsAreBitReproducible(t *testing.T) {
	p := testParams()
	var want []uint64
	for call := 0; call < 20; call++ {
		d, err := ExactPhaseDurations(p)
		if err != nil {
			t.Fatal(err)
		}
		occ, err := TransientPhases(p, 30)
		if err != nil {
			t.Fatal(err)
		}
		var bits []uint64
		for _, xs := range [][]float64{{d.Bootstrap, d.Efficient, d.Last}, occ.Bootstrap, occ.Efficient, occ.Last, occ.Done} {
			for _, x := range xs {
				bits = append(bits, math.Float64bits(x))
			}
		}
		if call == 0 {
			want = bits
		} else if !slices.Equal(bits, want) {
			t.Fatalf("call %d differs from call 0", call)
		}
	}
}

func TestExactPhaseDurationsRespondToAlpha(t *testing.T) {
	// Lowering α must lengthen the bootstrap phase and leave the efficient
	// phase nearly unchanged.
	slow := slowBootParams()
	fast := slow
	fast.Alpha = 0.9

	slowD, err := ExactPhaseDurations(slow)
	if err != nil {
		t.Fatal(err)
	}
	fastD, err := ExactPhaseDurations(fast)
	if err != nil {
		t.Fatal(err)
	}
	if slowD.Bootstrap <= fastD.Bootstrap {
		t.Errorf("bootstrap: alpha=0.02 %g must exceed alpha=0.9 %g",
			slowD.Bootstrap, fastD.Bootstrap)
	}
	// With PInit=0.05 and s=4, the empty-start probability is
	// (1-0.05)^4 ~ 0.81; the expected extra wait is ~0.81/alpha.
	extra := slowD.Bootstrap - fastD.Bootstrap
	if extra < 10 {
		t.Errorf("bootstrap extra wait %g, want sizable (~0.8/0.02)", extra)
	}
	// With α = 0 and p_init = 0 a peer never boots: the expected times are
	// infinite, and both sweeps must say so rather than return a number.
	stuck := slow
	stuck.Alpha, stuck.PInit = 0, 0
	if d, err := ExactPhaseDurations(stuck); err == nil {
		t.Errorf("alpha=0, p_init=0: phases %+v, want an error", d)
	}
	if T, err := ExpectedDownloadTime(stuck); err == nil {
		t.Errorf("alpha=0, p_init=0: download time %g, want an error", T)
	}
}

func TestTransientPhases(t *testing.T) {
	p := testParams()
	occ, err := TransientPhases(p, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Probabilities partition at every step.
	for tt := 0; tt <= 60; tt++ {
		sum := occ.Bootstrap[tt] + occ.Efficient[tt] + occ.Last[tt] + occ.Done[tt]
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("step %d: occupancy sums to %g", tt, sum)
		}
	}
	// Starts in bootstrap, ends (mostly) done.
	if occ.Bootstrap[0] != 1 {
		t.Errorf("step 0 bootstrap = %g, want 1", occ.Bootstrap[0])
	}
	if occ.Done[60] < 0.95 {
		t.Errorf("done by step 60 = %g, want > 0.95", occ.Done[60])
	}
	// Done is monotone non-decreasing.
	for tt := 1; tt <= 60; tt++ {
		if occ.Done[tt] < occ.Done[tt-1]-1e-12 {
			t.Fatalf("done decreased at step %d", tt)
		}
	}
}

// TestExactPhaseDurationsAtPaperScale runs the exact tier at the paper's
// scale (B = 200, s = 50) with p_init = 0.02, so that an empty start has
// probability 0.98^50 ≈ 0.36: the bootstrap phase must meet its closed
// form, the total the first-step time, and every phase a 10 000-run
// ensemble within 4 standard errors.
func TestExactPhaseDurationsAtPaperScale(t *testing.T) {
	const runs = 10000
	p := DefaultParams(50)
	p.PInit = 0.02
	exact, err := ExactPhaseDurations(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Pow(1-p.PInit, float64(p.S)) * ExpectedBootstrapWait(p); math.Abs(exact.Bootstrap-want) > 1e-9 {
		t.Errorf("bootstrap %.12g, closed form %.12g", exact.Bootstrap, want)
	}
	total, err := ExpectedDownloadTime(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Total()-total) > 1e-9 {
		t.Errorf("total %.12g, first-step time %.12g", exact.Total(), total)
	}
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(31, 41)
	var acc [3]stats.Accumulator
	for range runs {
		pb := ClassifyPhases(p, m.SampleTrajectory(r.Split()))
		acc[0].Add(float64(pb.Bootstrap))
		acc[1].Add(float64(pb.Efficient))
		acc[2].Add(float64(pb.Last))
	}
	for j, want := range []float64{exact.Bootstrap, exact.Efficient, exact.Last} {
		// One step in the whole ensemble, 1/runs, is the resolution of its
		// mean: the last phase is ~2e-16 steps here and no run enters it.
		se := math.Sqrt(acc[j].Variance() / runs)
		if d := math.Abs(want - acc[j].Mean()); d > 4*se+1.0/runs {
			t.Errorf("%v: exact %.6g vs MC %.6g ± %.2g", trace.Phase(j+1), want, acc[j].Mean(), se)
		}
	}
}

// TestExactPhaseDurationsAtLargeB runs the exact tier on a 20 000-piece
// file with s = 50 (4·20 001·8 states, ~3 220 steps to complete): the
// bootstrap phase must meet its closed form and the forward
// sweep's total the backward first-step time to a relative 1e-11.
func TestExactPhaseDurationsAtLargeB(t *testing.T) {
	p := DefaultParams(50)
	p.B = 20000
	p.Phi = UniformPhi(p.B)
	p.PInit = 0.02
	exact, err := ExactPhaseDurations(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Pow(1-p.PInit, float64(p.S)) * ExpectedBootstrapWait(p); math.Abs(exact.Bootstrap-want) > 1e-9 {
		t.Errorf("bootstrap %.12g, closed form %.12g", exact.Bootstrap, want)
	}
	total, err := ExpectedDownloadTime(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Total()-total) > 1e-11*total {
		t.Errorf("total %.12g, first-step time %.12g", exact.Total(), total)
	}
}
