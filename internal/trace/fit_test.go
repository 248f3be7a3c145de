package trace

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestFitRejectsEmpty(t *testing.T) {
	if _, err := Fit(nil); !errors.Is(err, ErrNoTraces) {
		t.Errorf("empty: %v", err)
	}
	// Unanalyzable traces (too short) are skipped; all-skipped errors.
	short := &Download{Meta: Meta{Pieces: 2, PieceSize: 1}}
	if _, err := Fit([]*Download{short}); !errors.Is(err, ErrNoTraces) {
		t.Errorf("all-unanalyzable: %v", err)
	}
}

func TestFitRecoversSyntheticParameters(t *testing.T) {
	// Bootstrap-heavy synthetic traces have a known stall length; the fit
	// must recover alpha ~ 1/stall.
	var traces []*Download
	cfg := DefaultSyntheticConfig(RegimeBootstrap)
	cfg.StallRounds = 50
	for i := uint64(0); i < 6; i++ {
		cfg.Seed1 = i + 1
		d, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, d)
	}
	fit, err := Fit(traces)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Traces != 6 {
		t.Errorf("used %d traces", fit.Traces)
	}
	wantAlpha := 1.0 / 51 // stall of 50 rounds + escape step
	if fit.Alpha < wantAlpha/2 || fit.Alpha > wantAlpha*2 {
		t.Errorf("alpha = %g, want ~%g", fit.Alpha, wantAlpha)
	}
	if !strings.Contains(fit.String(), "alpha=") {
		t.Error("String format")
	}
}

func TestFitGammaFromLastPhaseTraces(t *testing.T) {
	var traces []*Download
	cfg := DefaultSyntheticConfig(RegimeLastPhase)
	cfg.StallRounds = 40
	for i := uint64(0); i < 4; i++ {
		cfg.Seed1 = i + 10
		d, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, d)
	}
	fit, err := Fit(traces)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(fit.Gamma) || fit.Gamma <= 0 || fit.Gamma > 0.2 {
		t.Errorf("gamma = %g, want small positive", fit.Gamma)
	}
	if math.IsNaN(fit.MeanCompletion) || fit.MeanCompletion <= 0 {
		t.Errorf("mean completion = %g", fit.MeanCompletion)
	}
}

func TestFitPotentialRatioFromSmoothTraces(t *testing.T) {
	var traces []*Download
	cfg := DefaultSyntheticConfig(RegimeSmooth)
	for i := uint64(0); i < 4; i++ {
		cfg.Seed1 = i + 20
		d, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, d)
	}
	fit, err := Fit(traces)
	if err != nil {
		t.Fatal(err)
	}
	// The generator caps the potential at PotentialCap with neighbor cap
	// PotentialCap+2, so the mid ratio sits near cap/(cap+2) ~ 0.9.
	if fit.PotentialRatio < 0.6 || fit.PotentialRatio > 1 {
		t.Errorf("potential ratio = %g", fit.PotentialRatio)
	}
	// Smooth traces: instant escapes, alpha ~ 1.
	if fit.Alpha < 0.5 {
		t.Errorf("smooth-trace alpha = %g, want near 1", fit.Alpha)
	}
}

func TestMedianAndMeanHelpers(t *testing.T) {
	if !math.IsNaN(median(nil)) {
		t.Error("empty median must return NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g", got)
	}
	if escapeProb(math.NaN(), 1) != 1 {
		t.Error("NaN wait must yield p=1")
	}
	if escapeProb(0.5, 1) != 1 {
		t.Error("p must clamp at 1")
	}
}
