package main

import (
	"strings"
	"testing"
)

func TestRunSingleFigure(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, nil, "4a", "quick", 8); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Figure 4(a)") {
		t.Errorf("missing figure header in %q", out[:minInt(200, len(out))])
	}
	if !strings.Contains(out, "model") || !strings.Contains(out, "simulation") {
		t.Error("missing columns")
	}
}

func TestRunMultipleFigures(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, nil, "1a,4d", "quick", 6); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Figure 1(a)") || !strings.Contains(out, "Figure 4(d)") {
		t.Error("missing one of the requested figures")
	}
}

func TestRunValidateAndFluid(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, nil, "validate", "quick", 6); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, col := range []string{"KS", "band", "lambda-cohort KS", "fluid DT", "model eta", "sim eta"} {
		if !strings.Contains(out, col) {
			t.Errorf("validation table lacks the %q column", col)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct{ fig, scale string }{
		{"nonsense", "quick"},
		{"4a,nonsense", "quick"}, // an unknown id inside a list
		{"fluid", "quick"},       // folded into validate
		{"4a", "warp"},
	} {
		var sb strings.Builder
		if err := run(&sb, nil, tc.fig, tc.scale, 5); err == nil {
			t.Errorf("-fig %s -scale %s must error", tc.fig, tc.scale)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
