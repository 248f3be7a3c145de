package trace

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestPhaseString(t *testing.T) {
	if PhaseBootstrap.String() != "bootstrap" ||
		PhaseEfficient.String() != "efficient" ||
		PhaseLast.String() != "last" ||
		Phase(0).String() != "unknown" ||
		Phase(4).String() != "unknown" {
		t.Error("phase names wrong")
	}
}

func TestPhaserRule(t *testing.T) {
	ph := Phaser{B: 10}
	for i, c := range []struct {
		pieces, potential int
		want              Phase
	}{
		{0, 0, PhaseBootstrap},
		{0, 3, PhaseBootstrap}, // no piece to trade yet
		{1, 0, PhaseBootstrap},
		{4, 0, PhaseBootstrap}, // pieces without a potential set do not boot
		{4, 1, PhaseEfficient}, // the escaping state
		{4, 0, PhaseLast},
		{1, 0, PhaseEfficient}, // b = 1 is never the last phase
		{9, 0, PhaseLast},
		{9, 2, PhaseEfficient},
		{10, 0, PhaseEfficient}, // complete
	} {
		if got := ph.Next(c.pieces, c.potential); got != c.want {
			t.Errorf("step %d: Next(%d, %d) = %v, want %v", i, c.pieces, c.potential, got, c.want)
		}
	}
}

func TestPhaserNextAllocatesNothing(t *testing.T) {
	ph := Phaser{B: 8}
	k := 0
	if n := testing.AllocsPerRun(1000, func() {
		k++
		_ = ph.Next(k%9, k%3)
	}); n != 0 {
		t.Errorf("Phaser.Next allocates %v per call", n)
	}
}

// analyzeRef is Analyze as it was written before it labelled samples
// through Phaser: a scan for the first booted sample, then a separate
// loop over the intervals after it with the last-phase predicate inline.
// Analyze must match it bit for bit (TestAnalyzeMatchesReference,
// FuzzRead).
func analyzeRef(d *Download) (PhaseReport, error) {
	if len(d.Samples) < 2 {
		return PhaseReport{}, ErrEmptyTrace
	}
	if err := d.Validate(); err != nil {
		return PhaseReport{}, err
	}
	first := d.Samples[0]
	last := d.Samples[len(d.Samples)-1]
	rep := PhaseReport{
		Duration:  last.T - first.T,
		Completed: d.Complete(),
	}
	if rep.Duration > 0 {
		rep.MeanRate = float64(last.Bytes-first.Bytes) / rep.Duration
	}
	bootEnd := -1
	for i, s := range d.Samples {
		if s.Pieces >= 1 && s.Potential >= 1 {
			bootEnd = i
			break
		}
	}
	if bootEnd < 0 {
		rep.BootstrapTime = rep.Duration
		rep.Regime = RegimeBootstrap
		return rep, nil
	}
	rep.BootstrapTime = d.Samples[bootEnd].T - first.T
	stall := 0.0
	tail := 0.0
	for i := bootEnd; i < len(d.Samples)-1; i++ {
		s := d.Samples[i]
		dt := d.Samples[i+1].T - s.T
		if s.Potential == 0 && s.Pieces > 1 && s.Pieces < d.Meta.Pieces {
			stall += dt
			tail += dt
		} else {
			tail = 0
		}
	}
	rep.LastPhaseTime = stall
	rep.TailStall = tail
	rep.EfficientTime = rep.Duration - rep.BootstrapTime - rep.LastPhaseTime
	if rep.EfficientTime < 0 {
		rep.EfficientTime = 0
	}
	switch {
	case rep.BootstrapTime >= regimeFraction*rep.Duration:
		rep.Regime = RegimeBootstrap
	case rep.LastPhaseTime >= regimeFraction*rep.Duration:
		rep.Regime = RegimeLastPhase
	default:
		rep.Regime = RegimeSmooth
	}
	return rep, nil
}

// sameReport compares two reports bit for bit, floats by their bits.
func sameReport(a, b PhaseReport) bool {
	bits := func(r PhaseReport) [6]uint64 {
		return [6]uint64{
			math.Float64bits(r.Duration), math.Float64bits(r.BootstrapTime),
			math.Float64bits(r.LastPhaseTime), math.Float64bits(r.EfficientTime),
			math.Float64bits(r.TailStall), math.Float64bits(r.MeanRate),
		}
	}
	return bits(a) == bits(b) && a.Completed == b.Completed && a.Regime == b.Regime
}

// randomTrace draws a small valid trace whose states cross every phase
// boundary often: repeated and zero-length intervals, stalls at b = 1,
// pieces that jump, and a first sample away from t = 0.
func randomTrace(r *rand.Rand) *Download {
	b := 1 + r.IntN(12)
	d := &Download{Meta: Meta{Pieces: b, PieceSize: 3}}
	t := 0.0
	if r.IntN(3) == 0 {
		t = r.Float64()*50 - 10
	}
	pieces := 0
	for n := 2 + r.IntN(30); len(d.Samples) < n; {
		switch r.IntN(4) {
		case 0: // zero-length interval
		case 1:
			t += float64(1 + r.IntN(5))
		default:
			t += r.Float64() * 3
		}
		if r.IntN(3) == 0 {
			pieces = min(b, pieces+r.IntN(4))
		}
		potential := 0
		if r.IntN(2) == 0 {
			potential = r.IntN(4)
		}
		d.Samples = append(d.Samples, Sample{
			T: t, Bytes: int64(pieces) * 3, Pieces: pieces, Potential: potential, Conns: r.IntN(3),
		})
	}
	return d
}

func TestAnalyzeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(30, 1))
	regimes := map[Regime]int{}
	for i := 0; i < 50_000; i++ {
		d := randomTrace(r)
		got, gerr := Analyze(d)
		want, werr := analyzeRef(d)
		if gerr != werr || !sameReport(got, want) {
			t.Fatalf("trace %d %+v:\nAnalyze   %+v (%v)\nreference %+v (%v)", i, d, got, gerr, want, werr)
		}
		regimes[got.Regime]++
	}
	if len(regimes) != 3 {
		t.Errorf("the random traces reach only regimes %v", regimes)
	}
}
