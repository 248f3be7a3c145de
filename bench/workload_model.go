package main

import (
	"time"

	bitphase "repro"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/stats"
)

// ensembleRuns is the ensemble size of one model_ensemble call.
const ensembleRuns = 512

// modelInstance samples ensembles of the paper's default model.
type modelInstance struct {
	m     *core.Model
	rng   *stats.RNG
	calls int
	first *stats.Summary // completion summary of the first seeded ensemble
	bad   int64
}

func modelSetup(seed uint64, _ *tracing) (instance, error) {
	m, err := core.NewModel(core.DefaultParams(40))
	if err != nil {
		return nil, err
	}
	return &modelInstance{m: m, rng: stats.NewRNG(seed, 0xE5)}, nil
}

func ensembleRefOf(es core.EnsembleStats) ensembleRef {
	return ensembleRef{Digest: digestOf(es), Completed: es.CompletionSteps.N, MeanCompletion: es.CompletionSteps.Mean}
}

// referenceEnsemble samples the pinned ensemble at jobs = 1 and at the
// default job count; the two must be bit-equal to each other and to
// reference.json.
func (s *modelInstance) referenceEnsemble() bool {
	var got [2]ensembleRef
	for i, jobs := range []int{1, 0} {
		if err := par.SetDefaultJobs(jobs); err != nil {
			return false
		}
		es, err := s.m.Ensemble(stats.NewRNG(1, 2), ensembleRuns)
		if err != nil {
			return false
		}
		got[i] = ensembleRefOf(es)
	}
	if got[0] != got[1] {
		return false
	}
	if writingRefer {
		ref.ModelEnsemble = got[0]
		return true
	}
	return got[0] == ref.ModelEnsemble
}

// measure samples ensembles for d. Ensemble draws run i from the
// indexed substream rng.At(i) and never from rng itself, so every call
// is the same work and must return the same statistics.
func (s *modelInstance) measure(d time.Duration, lat *[]float64) (ops, failed int64, secs float64) {
	if s.calls == 0 && !s.referenceEnsemble() {
		s.bad++
	}
	s.calls++
	start := time.Now()
	for deadline := start.Add(d); time.Now().Before(deadline); {
		t0 := time.Now()
		es, err := s.m.Ensemble(s.rng, ensembleRuns)
		*lat = append(*lat, float64(time.Since(t0).Nanoseconds())/1e6)
		ops += ensembleRuns
		if err != nil {
			failed += ensembleRuns
			continue
		}
		// Hashing every ensemble would cost as much as sampling it; the
		// completion summary moves if any trajectory does.
		if s.first == nil {
			s.first = &es.CompletionSteps
		} else if es.CompletionSteps != *s.first {
			failed += ensembleRuns
		}
	}
	return ops, failed, time.Since(start).Seconds()
}

func (s *modelInstance) verify() (checked, failed int64) { return 1, s.bad }
func (s *modelInstance) layers(metrics)                  {}
func (s *modelInstance) close()                          {}

// figure is one of the six quick-scale paper figures: its public
// harness and the headline values it must reproduce.
type figure struct {
	name string
	run  func() (map[string]float64, error)
}

var figures = []figure{
	{"fig1a", func() (map[string]float64, error) {
		r, err := bitphase.Fig1a(bitphase.ScaleQuick)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"midRatio_s40":      r.Ratio[len(r.Ratio)-1][r.Pieces/2],
			"bootstrapSteps_s5": r.Phases[0].MeanBootstrap,
		}, nil
	}},
	{"fig1b", func() (map[string]float64, error) {
		r, err := bitphase.Fig1b(bitphase.ScaleQuick)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"modelSteps_s50": r.ModelTime[1][r.Pieces],
			"simRounds_s50":  r.SimTime[1][r.Pieces],
		}, nil
	}},
	{"fig2", func() (map[string]float64, error) {
		r, err := bitphase.Fig2(bitphase.ScaleQuick)
		if err != nil {
			return nil, err
		}
		out := map[string]float64{}
		for _, c := range r.Cases {
			out["match_"+c.Want.String()] = c.MatchFraction
		}
		return out, nil
	}},
	{"fig4a", func() (map[string]float64, error) {
		r, err := bitphase.Fig4a(bitphase.ScaleQuick)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"simEta_k1": r.SimEta[0], "simEta_k2": r.SimEta[1], "simEta_k8": r.SimEta[7],
			"modelEta_k8": r.ModelEta[7],
		}, nil
	}},
	{"fig4bc", func() (map[string]float64, error) {
		r, err := bitphase.Fig4bc(bitphase.ScaleQuick)
		if err != nil {
			return nil, err
		}
		last := func(xs []float64) float64 { return xs[len(xs)-1] }
		return map[string]float64{
			"endPeers_B3": last(r.Runs[0].Population), "endPeers_B10": last(r.Runs[1].Population),
			"endEntropy_B3": last(r.Runs[0].Entropy), "endEntropy_B10": last(r.Runs[1].Entropy),
		}, nil
	}},
	{"fig4d", func() (map[string]float64, error) {
		r, err := bitphase.Fig4d(bitphase.ScaleQuick)
		if err != nil {
			return nil, err
		}
		normal, shake := r.TailMeans()
		return map[string]float64{"tailTTD_normal": normal, "tailTTD_shake": shake}, nil
	}},
}

// figuresInstance regenerates the six figures; one window is one pass.
type figuresInstance struct {
	order []int                // seed-shuffled figure order
	figNs map[string][]float64 // per-figure host time, every pass
}

func figuresSetup(seed uint64, _ *tracing) (instance, error) {
	return &figuresInstance{
		order: stats.NewRNG(seed, 0xF16).Perm(len(figures)),
		figNs: map[string][]float64{},
	}, nil
}

func (s *figuresInstance) measure(_ time.Duration, lat *[]float64) (ops, failed int64, secs float64) {
	start := time.Now()
	for _, i := range s.order {
		f := figures[i]
		t0 := time.Now()
		got, err := f.run()
		s.figNs[f.name] = append(s.figNs[f.name], float64(time.Since(t0).Nanoseconds()))
		if err != nil || !checkFigure(got) {
			failed = 1
		}
	}
	el := time.Since(start)
	*lat = append(*lat, float64(el.Nanoseconds())/1e6)
	return 1, failed, el.Seconds()
}

// checkFigure compares a figure's headline values with reference.json.
// The figures are deterministic, so the comparison is exact.
func checkFigure(got map[string]float64) bool {
	if writingRefer {
		if ref.Figures == nil {
			ref.Figures = map[string]float64{}
		}
		for k, v := range got {
			ref.Figures[k] = v
		}
		return true
	}
	for k, v := range got {
		if want, ok := ref.Figures[k]; !ok || want != v {
			return false
		}
	}
	return true
}

func (s *figuresInstance) verify() (checked, failed int64) { return 0, 0 }

func (s *figuresInstance) layers(out metrics) {
	for name, ns := range s.figNs {
		out.set("experiments."+name+"_s", median(ns)/1e9, "s")
	}
}

func (s *figuresInstance) close() {}
