package core

import (
	"errors"
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
	p := testParams()
	p.Seeds = SeedParams{Conns: -1}
	if _, err := NewModel(p); !errors.Is(err, ErrBadParams) {
		t.Errorf("NewModel must validate Seeds: %v", err)
	}
	bad := testParams()
	bad.B = 0
	bad.Seeds = SeedParams{Conns: 1, PServe: 0.5}
	if _, err := NewModel(bad); err == nil {
		t.Error("NewModel must validate the base params of a seeded model")
	}
}

// TestSeededModelZeroSeedsMatchesBase: seeds that deliver nothing —
// no connections, or connections that never serve — draw no number, so
// the model walks the paper's chain stream for stream.
func TestSeededModelZeroSeedsMatchesBase(t *testing.T) {
	p := testParams()
	base, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []SeedParams{{Conns: 3}, {PServe: 0.5}} {
		p.Seeds = sp
		seeded, err := NewModel(p)
		if err != nil {
			t.Fatal(err)
		}
		if seeded.Bytes() != base.Bytes() {
			t.Errorf("%+v: Bytes %d, base %d", sp, seeded.Bytes(), base.Bytes())
		}
		r1 := stats.NewRNG(5, 6)
		r2 := stats.NewRNG(5, 6)
		for trial := 0; trial < 50; trial++ {
			t1 := seeded.SampleTrajectory(r1.Split())
			t2 := base.SampleTrajectory(r2.Split())
			if len(t1) != len(t2) {
				t.Fatalf("%+v trial %d: lengths %d vs %d", sp, trial, len(t1), len(t2))
			}
			for i := range t1 {
				if t1[i] != t2[i] {
					t.Fatalf("%+v trial %d step %d: %+v vs %+v", sp, trial, i, t1[i], t2[i])
				}
			}
		}
	}
}

// TestSeededStepIsBaseStepThenFree holds a seeded Step to the base
// chain's step followed by one Binomial(Conns, PServe) draw of free
// pieces, capped at B: the draw order every seeded figure was made with.
func TestSeededStepIsBaseStepThenFree(t *testing.T) {
	p := testParams()
	base, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Seeds = SeedParams{Conns: 2, PServe: 0.5}
	seeded, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	free := runningSum(stats.Binomial{N: 2, P: 0.5}.PMFTable())
	r1, r2 := stats.NewRNG(13, 14), stats.NewRNG(13, 14)
	for trial := 0; trial < 50; trial++ {
		for s := (State{}); s.B < p.B; {
			got := seeded.Step(r1, s)
			want := base.Step(r2, s)
			want.B = min(want.B+free.index(r2.Float64()), p.B)
			if got != want {
				t.Fatalf("trial %d at %+v: %+v, want %+v", trial, s, got, want)
			}
			s = got
		}
	}
}

func TestSeedsAccelerateDownloads(t *testing.T) {
	speedup, err := SeedSpeedup(testParams(), SeedParams{Conns: 2, PServe: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if speedup <= 1.05 {
		t.Errorf("seed speedup %g, want > 1.05", speedup)
	}
}

func TestSeedSpeedupMonotoneInCapacity(t *testing.T) {
	speedup := func(conns int, pserve float64) float64 {
		v, err := SeedSpeedup(testParams(), SeedParams{Conns: conns, PServe: pserve})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	none := speedup(0, 0)
	some := speedup(1, 0.5)
	lots := speedup(4, 0.9)
	if !(none == 1 && 1 < some && some < lots) {
		t.Errorf("speedup must grow with seed capacity from exactly 1: %g, %g, %g",
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

	lastMean := func(sp SeedParams, seed uint64) float64 {
		p := p
		p.Seeds = sp
		m, err := NewModel(p)
		if err != nil {
			t.Fatal(err)
		}
		var acc stats.Accumulator
		r := stats.NewRNG(seed, 11)
		for i := 0; i < 600; i++ {
			acc.Add(float64(ClassifyPhases(p, m.SampleTrajectory(r.Split())).Last))
		}
		return acc.Mean()
	}
	baseLast := lastMean(SeedParams{}, 21)
	seededLast := lastMean(SeedParams{Conns: 2, PServe: 0.5}, 22)
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
	sp := SeedParams{Conns: 1, PServe: 0.5}
	if _, err := SeedSpeedup(testParams(), SeedParams{Conns: -1}); !errors.Is(err, ErrBadParams) {
		t.Errorf("negative seed conns: %v, want ErrBadParams", err)
	}
	v, err := SeedSpeedup(testParams(), sp)
	if err != nil || math.IsNaN(v) || v <= 0 {
		t.Errorf("speedup = %g, %v", v, err)
	}
	// Without seeds the stranded chain (α = γ = p_init = 0) never leaves
	// its first level, so the unseeded side has no finite download time.
	stranded := testParams()
	stranded.Alpha, stranded.Gamma, stranded.PInit = 0, 0, 0
	if _, err := SeedSpeedup(stranded, sp); err == nil {
		t.Error("a download that cannot complete must be an error")
	}
}
