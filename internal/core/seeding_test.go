package core

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestSeedParamsValidation(t *testing.T) {
	if err := (SeedParams{Conns: -1, PServe: 0.5}).Validate(); err == nil {
		t.Error("negative conns must be rejected")
	}
	if err := (SeedParams{Conns: 1, PServe: 1.5}).Validate(); err == nil {
		t.Error("PServe > 1 must be rejected")
	}
	if _, err := NewSeededModel(testParams(), SeedParams{Conns: -1}); err == nil {
		t.Error("NewSeededModel must validate")
	}
	bad := testParams()
	bad.B = 0
	if _, err := NewSeededModel(bad, SeedParams{}); err == nil {
		t.Error("NewSeededModel must validate base params")
	}
}

func TestSeededModelZeroSeedsMatchesBase(t *testing.T) {
	p := testParams()
	seeded, err := NewSeededModel(p, SeedParams{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	// Same seeds, same stream consumption -> identical trajectories.
	r1 := stats.NewRNG(5, 6)
	r2 := stats.NewRNG(5, 6)
	for trial := 0; trial < 50; trial++ {
		t1 := seeded.SampleTrajectory(r1.Split())
		t2 := base.SampleTrajectory(r2.Split())
		if len(t1) != len(t2) {
			t.Fatalf("trial %d: lengths %d vs %d", trial, len(t1), len(t2))
		}
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Fatalf("trial %d step %d: %+v vs %+v", trial, i, t1[i], t2[i])
			}
		}
	}
}

func TestSeedsAccelerateDownloads(t *testing.T) {
	p := testParams()
	r := stats.NewRNG(7, 8)
	speedup, err := SeedSpeedup(p, SeedParams{Conns: 2, PServe: 0.5}, r, 800)
	if err != nil {
		t.Fatal(err)
	}
	if speedup <= 1.05 {
		t.Errorf("seed speedup %g, want > 1.05", speedup)
	}
}

func TestSeedSpeedupMonotoneInCapacity(t *testing.T) {
	p := testParams()
	mean := func(conns int, pserve float64) float64 {
		m, err := NewSeededModel(p, SeedParams{Conns: conns, PServe: pserve})
		if err != nil {
			t.Fatal(err)
		}
		v, err := m.MeanDownloadSteps(stats.NewRNG(9, uint64(conns)*10+uint64(pserve*100)), 800)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	none := mean(0, 0)
	some := mean(1, 0.5)
	lots := mean(4, 0.9)
	if !(lots < some && some < none) {
		t.Errorf("download times must decrease with seed capacity: %g, %g, %g",
			none, some, lots)
	}
}

func TestSeedsRelieveLastPhase(t *testing.T) {
	// A configuration prone to long γ-waits: tiny neighbor set, tiny γ.
	p := testParams()
	p.S = 3
	p.Gamma = 0.05
	p.Alpha = 0.05
	p.PInit = 0.2

	base, err := NewSeededModel(p, SeedParams{})
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := NewSeededModel(p, SeedParams{Conns: 2, PServe: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	phaseMeans := func(m *SeededModel, seed uint64) (boot, last float64) {
		var accB, accL stats.Accumulator
		r := stats.NewRNG(seed, 11)
		for i := 0; i < 600; i++ {
			pb := ClassifyPhases(p, m.SampleTrajectory(r.Split()))
			accB.Add(float64(pb.Bootstrap))
			accL.Add(float64(pb.Last))
		}
		return accB.Mean(), accL.Mean()
	}
	_, baseLast := phaseMeans(base, 21)
	_, seededLast := phaseMeans(seeded, 22)
	if baseLast <= 0.5 {
		t.Fatalf("base config must exhibit a last phase (got %g steps)", baseLast)
	}
	// Seeds keep delivering pieces during i=0 waits, so time classified as
	// last phase must shrink substantially.
	if seededLast > baseLast*0.7 {
		t.Errorf("seeds must relieve the last phase: %g -> %g", baseLast, seededLast)
	}
}

func TestSeededMeanDownloadValidation(t *testing.T) {
	m, err := NewSeededModel(testParams(), SeedParams{Conns: 1, PServe: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MeanDownloadSteps(stats.NewRNG(1, 1), 0); err == nil {
		t.Error("zero runs must be rejected")
	}
	v, err := m.MeanDownloadSteps(stats.NewRNG(1, 2), 50)
	if err != nil || math.IsNaN(v) || v <= 0 {
		t.Errorf("mean = %g, %v", v, err)
	}
}
