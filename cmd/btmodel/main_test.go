package main

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func smallParams() core.Params {
	return core.Params{
		B: 20, K: 3, S: 8,
		PInit: 0.5, Alpha: 0.2, Gamma: 0.3, PR: 0.8, PN: 0.7,
		Phi: core.UniformPhi(20),
	}
}

func TestRunBasics(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, smallParams(), 50, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"multiphased download model",
		"trading power",
		"ensemble of 50 downloads",
		"efficiency steady state",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	p := smallParams()
	p.B = 0
	var sb strings.Builder
	if err := run(&sb, p, 10, 1); err == nil {
		t.Error("invalid params must error")
	}
}

func TestRunExact(t *testing.T) {
	var sb strings.Builder
	if err := runExact(&sb, smallParams()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "exact phase analysis") {
		t.Error("missing exact section")
	}
	if !strings.Contains(sb.String(), "transient phase occupancy") {
		t.Error("missing transient section")
	}
}

func TestRunSeeded(t *testing.T) {
	var sb strings.Builder
	if err := runSeeded(&sb, smallParams(), 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "speedup") {
		t.Error("missing speedup")
	}
}

func TestRunSelfPhi(t *testing.T) {
	var sb strings.Builder
	if err := runSelfPhi(&sb, smallParams()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "self-consistent phi") {
		t.Error("missing self-phi section")
	}
}
