package core

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// chainTraces samples runs trajectories of p, run i from r.At(i), as
// traces.
func chainTraces(t testing.TB, p Params, runs int, r *stats.RNG) []*trace.Download {
	t.Helper()
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*trace.Download, runs)
	for i := range out {
		out[i] = m.SampleTrajectory(r.At(i)).Download(p)
	}
	return out
}

// at50 is p at B = 50 with a uniform piece distribution.
func at50(p Params) Params {
	p.B, p.Phi = 50, UniformPhi(50)
	return p
}

// TestEstimateStandardErrors holds each reported SE to the scatter it
// claims: over 20 disjoint batches of 200 traces, the spread of the
// batch estimates divided by √20 must lie within a factor 1.6 of the SE
// the 4 000 traces together report (the spread of 20 draws is itself
// uncertain by about 16 %).
func TestEstimateStandardErrors(t *testing.T) {
	const batches, per = 20, 200
	p := at50(DefaultParams(5))
	traces := chainTraces(t, p, batches*per, stats.NewRNG(37, 5))
	all, err := Estimate(traces)
	if err != nil {
		t.Fatal(err)
	}
	pick := func(e Estimates) []ParamEstimate { return []ParamEstimate{e.PInit, e.Alpha, e.PR, e.PN} }
	spread := make([]stats.Accumulator, 4)
	for b := range batches {
		est, err := Estimate(traces[b*per : (b+1)*per])
		if err != nil {
			t.Fatal(err)
		}
		for j, e := range pick(est) {
			spread[j].Add(e.Value)
		}
	}
	for j, e := range pick(all) {
		if ratio := math.Sqrt(spread[j].Variance()/batches) / e.SE; ratio < 1/1.6 || ratio > 1.6 {
			t.Errorf("%s: batch spread / reported SE = %.3g", []string{"p_init", "alpha", "p_r", "p_n"}[j], ratio)
		}
	}
}

// TestEstimateSaysNoInformation pins the honest answer: at
// DefaultParams(50) with uniform ϕ no step ever waits with an empty
// potential set, so α and γ have no informing pair, and a trace without
// connCap says nothing about p_r and p_n.
func TestEstimateSaysNoInformation(t *testing.T) {
	p := DefaultParams(50)
	traces := chainTraces(t, p, 200, stats.NewRNG(37, 2))
	est, err := Estimate(traces)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range traces {
		d.Meta.ConnCap = 0
	}
	noCap, err := Estimate(traces)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]ParamEstimate{
		"alpha": est.Alpha, "gamma": est.Gamma, "p_r without connCap": noCap.PR, "p_n without connCap": noCap.PN,
	} {
		if e.Count != 0 || e.String() != "no information" {
			t.Errorf("%s = %+v (%s), want count 0 and no information", name, e, e)
		}
	}
	if !strings.Contains(est.String(), "alpha    no information") || est.PR.Count == 0 || noCap.PInit != est.PInit {
		t.Errorf("with connCap:\n%s\nwithout:\n%s", est, noCap)
	}
}

// TestDownloadRoundTripThroughSerialization: a chain-sampled trace
// analyzes the same before and after a write/read round trip.
func TestDownloadRoundTripThroughSerialization(t *testing.T) {
	p := DefaultParams(5)
	p.Gamma = 0.02
	d := chainTraces(t, p, 1, stats.NewRNG(37, 3))[0]
	var buf bytes.Buffer
	if err := trace.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	repA, err := trace.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := trace.Analyze(back)
	if err != nil {
		t.Fatal(err)
	}
	if repA != repB || back.Meta != d.Meta {
		t.Errorf("analysis changed across serialization: %+v vs %+v", repA, repB)
	}
}

// FuzzEstimate decodes trace bytes and estimates from every trace the
// reader accepts: no panic, every informed estimate in [0, 1] with a
// finite SE, and no sample pair means ErrNoTraces.
func FuzzEstimate(f *testing.F) {
	p := at50(DefaultParams(5))
	var buf bytes.Buffer
	if err := trace.Write(&buf, chainTraces(f, p, 1, stats.NewRNG(37, 4))[0]); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	const meta = `{"type":"meta","meta":{"pieces":4,"pieceSize":1,"neighborCap":2,"connCap":%s}}`
	for _, c := range []struct{ conns, samples string }{
		{"2", ``}, // no sample pair
		{"2", `{"t":0}`},
		// A potential set above s, connections above k, and n = m.
		{"2", `{"t":0}|{"t":1,"pieces":1,"potential":9,"conns":5}|{"t":2,"pieces":3,"potential":2,"conns":1}|{"t":3,"pieces":4}`},
		// Collinear n and m columns; a negative k; huge counts.
		{"3", `{"t":0,"pieces":1,"potential":2,"conns":1}|{"t":1,"pieces":2,"potential":2,"conns":1}|{"t":2,"pieces":3,"potential":2,"conns":1}`},
		{"-1", `{"t":0,"pieces":1,"potential":1}|{"t":1,"pieces":1,"conns":1}`},
		{"9000000000000000000", `{"t":0,"pieces":1,"potential":9000000000000000000,"conns":9000000000000000000}|{"t":1,"pieces":4,"potential":9000000000000000000,"conns":9000000000000000000}`},
	} {
		rec := strings.Replace(meta, "%s", c.conns, 1)
		for _, s := range strings.Split(c.samples, "|") {
			if s != "" {
				rec += "\n" + `{"type":"sample","sample":` + s + `}`
			}
		}
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, data string) {
		d, err := trace.Read(strings.NewReader(data))
		if err != nil {
			return
		}
		est, err := Estimate([]*trace.Download{d})
		if len(d.Samples) < 2 {
			if !errors.Is(err, ErrNoTraces) {
				t.Fatalf("%d samples: err = %v, want ErrNoTraces", len(d.Samples), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("accepted trace refused: %v", err)
		}
		all := []ParamEstimate{est.PInit, est.Alpha, est.Gamma, est.PR, est.PN}
		for _, lv := range est.Power {
			all = append(all, lv.ParamEstimate)
		}
		for _, e := range all {
			if e.Count > 0 && !(e.Value >= 0 && e.Value <= 1 && e.SE >= 0 && !math.IsInf(e.SE, 0)) {
				t.Fatalf("estimate %+v out of range in %+v", e, est)
			}
		}
	})
}
