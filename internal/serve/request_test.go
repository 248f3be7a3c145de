package serve

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// fp and ip build the pointer-typed knobs ("explicit value") in test
// request literals.
func fp(v float64) *float64 { return &v }
func ip(v int) *int         { return &v }

func TestCanonicalizeFillsDefaults(t *testing.T) {
	req := &Request{Kind: KindModel, Seed: 1}
	if err := req.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if req.V != Version {
		t.Fatalf("V = %d, want %d", req.V, Version)
	}
	q := req.Model
	if q == nil || q.B != 200 || q.K != 7 || q.S != 40 || q.Runs != 200 {
		t.Fatalf("defaults not filled: %+v", q)
	}
}

// TestCanonicalEquivalentRequestsShareKey is the content-addressing
// property: a request spelling out the defaults and one omitting them
// must hash to the same key, while any semantic difference must not.
func TestCanonicalEquivalentRequestsShareKey(t *testing.T) {
	sparse := &Request{Kind: KindModel, Seed: 9}
	if err := sparse.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	explicit := &Request{Kind: KindModel, Seed: 9, Model: &ModelQuery{
		B: 200, K: 7, S: 40, PInit: fp(0.5), Alpha: fp(0.1), Gamma: fp(0.1), PR: fp(0.9), PN: fp(0.8), Runs: 200,
	}}
	if err := explicit.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if sparse.Key() != explicit.Key() {
		t.Fatalf("equivalent requests keyed differently:\n%s\n%s",
			sparse.Canonical(), explicit.Canonical())
	}
	other := &Request{Kind: KindModel, Seed: 10}
	if err := other.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if other.Key() == sparse.Key() {
		t.Fatal("different seeds share a key")
	}
}

// TestCanonicalizeEfficiencyCalibratedPR: an omitted PR resolves to the
// calibrated value, so "default" and "explicitly calibrated" dedupe.
func TestCanonicalizeEfficiencyCalibratedPR(t *testing.T) {
	implicit := &Request{Kind: KindEfficiency, Efficiency: &EfficiencyQuery{K: 3}}
	if err := implicit.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if implicit.Efficiency.PR == nil || *implicit.Efficiency.PR <= 0 {
		t.Fatalf("PR not resolved: %+v", implicit.Efficiency)
	}
	explicit := &Request{Kind: KindEfficiency, Efficiency: &EfficiencyQuery{K: 3, PR: fp(*implicit.Efficiency.PR)}}
	if err := explicit.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if implicit.Key() != explicit.Key() {
		t.Fatal("calibrated and explicit PR keyed differently")
	}
}

// TestModelCapsKeepEnsembleFoldExact ties the serving caps to the
// exactness argument behind core.EnsembleAccum: its largest entry sums
// at most s per step over every step of every run, and the curves are
// bit-identical across chunkings, shardings and the former float64 fold
// only while float64 holds that integer exactly. Raising a cap past 2^53
// must fail here, not drift a golden.
func TestModelCapsKeepEnsembleFoldExact(t *testing.T) {
	worst := float64(maxRuns) * float64(core.MaxTrajectorySteps+1) * float64(maxNeighbor)
	if limit := float64(1 << 53); worst >= limit {
		t.Fatalf("maxRuns %d × (MaxTrajectorySteps %d + 1) × maxNeighbor %d = %g >= 2^53 = %g",
			maxRuns, core.MaxTrajectorySteps, maxNeighbor, worst, limit)
	}
}

func TestCanonicalizeRejections(t *testing.T) {
	cases := []struct {
		name string
		req  Request
	}{
		{"missing kind", Request{}},
		{"unknown kind", Request{Kind: "entropy"}},
		{"wrong version", Request{V: 99, Kind: KindModel}},
		{"wrong section", Request{Kind: KindModel, Sim: &SimQuery{}}},
		{"two sections", Request{Kind: KindSim, Sim: &SimQuery{}, Model: &ModelQuery{}}},
		{"pieces cap", Request{Kind: KindSim, Sim: &SimQuery{Pieces: maxPieces + 1}}},
		{"lambda cap", Request{Kind: KindSim, Sim: &SimQuery{ArrivalRate: fp(maxLambda + 1)}}},
		{"runs cap", Request{Kind: KindModel, Model: &ModelQuery{Runs: maxRuns + 1}}},
		{"bad probability", Request{Kind: KindModel, Model: &ModelQuery{PInit: fp(1.5)}}},
		{"bad efficiency k", Request{Kind: KindEfficiency, Efficiency: &EfficiencyQuery{K: -1}}},
		// Negative b once reached core.UniformPhi and panicked on a
		// negative-length make(); it and its siblings must 400 instead.
		{"negative b", Request{Kind: KindModel, Model: &ModelQuery{B: -5}}},
		{"negative k", Request{Kind: KindModel, Model: &ModelQuery{K: -1}}},
		{"negative s", Request{Kind: KindModel, Model: &ModelQuery{S: -2}}},
		{"negative runs", Request{Kind: KindModel, Model: &ModelQuery{Runs: -10}}},
		{"negative pieces", Request{Kind: KindSim, Sim: &SimQuery{Pieces: -5}}},
		{"negative seeds", Request{Kind: KindSim, Sim: &SimQuery{Seeds: ip(-1)}}},
		{"negative lambda", Request{Kind: KindSim, Sim: &SimQuery{ArrivalRate: fp(-1)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Canonicalize()
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("err = %v, want ErrBadRequest", err)
			}
		})
	}
}

// TestStrandedModelQueriesAnswer: a model query whose runs strand is
// answered, not refused. core ends each run where it strands, so serve
// holds no rule per parameter. pn = 0 and pInit = alpha = 0 strand every
// run at its free first piece; alpha = 0 with pInit = 0.01 and s = 1
// strands about 99 %, counted here by stepping each run's substream
// until it completes or 10 000 steps pass. The three take about 0.3 s
// under -race.
func TestStrandedModelQueriesAnswer(t *testing.T) {
	for _, c := range []struct {
		body     string
		stranded int // -1: count with the Step loop
	}{
		{`{"kind":"model","model":{"pn":0,"runs":20000}}`, 20000},
		{`{"kind":"model","model":{"pInit":0,"alpha":0}}`, 200},
		{`{"kind":"model","model":{"alpha":0,"pInit":0.01,"s":1}}`, -1},
	} {
		req, err := DecodeRequest(strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		res, err := Evaluate(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		want := c.stranded
		if want < 0 {
			want = stepLoopStranded(t, req)
		}
		if got := res.(*ModelOut).Truncated; got != want {
			t.Errorf("%s: truncated = %d, want %d", c.body, got, want)
		}
	}
}

// stepLoopStranded counts the runs of req's ensemble that a plain Step
// loop on the same substreams leaves short of b = B after 10 000 steps.
func stepLoopStranded(t *testing.T, req *Request) int {
	q := req.Model
	m, err := core.NewModel(q.params())
	if err != nil {
		t.Fatal(err)
	}
	r, stranded := modelRNG(req.Seed), 0
	for i := range q.Runs {
		ri, s := r.At(i), core.State{}
		for step := 0; step < 10_000 && s.B != q.B; step++ {
			s = m.Step(ri, s)
		}
		if s.B != q.B {
			stranded++
		}
	}
	return stranded
}

// TestExplicitZerosAreHonored: zero is a meaningful value for the
// pointer-typed knobs (a seedless swarm, a zero optimistic-unchoke
// probability, a closed swarm with no arrivals), so an explicit zero
// must survive canonicalization — not be rewritten to the default —
// and must key differently from the defaulted request.
func TestExplicitZerosAreHonored(t *testing.T) {
	zero := &Request{Kind: KindSim, Seed: 1, Sim: &SimQuery{
		Seeds: ip(0), OptimisticProb: fp(0), ArrivalRate: fp(0),
	}}
	if err := zero.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	q := zero.Sim
	if *q.Seeds != 0 || *q.OptimisticProb != 0 || *q.ArrivalRate != 0 {
		t.Fatalf("explicit zeros rewritten: seeds=%d opt=%g lambda=%g",
			*q.Seeds, *q.OptimisticProb, *q.ArrivalRate)
	}
	defaulted := &Request{Kind: KindSim, Seed: 1}
	if err := defaulted.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if zero.Key() == defaulted.Key() {
		t.Fatal("explicit-zero request shares a key with the defaulted request")
	}

	// Same property on the model's probability knobs: γ = 0 (no direct
	// bootstrap completion) is a legitimate query.
	model := &Request{Kind: KindModel, Seed: 1, Model: &ModelQuery{Gamma: fp(0)}}
	if err := model.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if *model.Model.Gamma != 0 {
		t.Fatalf("explicit gamma=0 rewritten to %g", *model.Model.Gamma)
	}
}

// TestCanonicalFormIsStable pins the canonical byte form: changing it
// silently would orphan every previously cached result.
func TestCanonicalFormIsStable(t *testing.T) {
	req := &Request{Kind: KindEfficiency, Seed: 4, Efficiency: &EfficiencyQuery{K: 2, PR: fp(0.5)}}
	if err := req.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := string(req.Canonical()), "v1;kind=efficiency;seed=4;k=2;pr=0.5"; got != want {
		t.Fatalf("canonical form = %q, want %q", got, want)
	}
	if len(req.Key()) != 64 || strings.ToLower(req.Key()) != req.Key() {
		t.Fatalf("key is not lowercase hex sha256: %q", req.Key())
	}
}

// TestCanonicalizeRoundTripsJSON: the canonicalized request survives a
// JSON round trip with its key intact (the server re-derives keys from
// decoded bodies).
func TestCanonicalizeRoundTripsJSON(t *testing.T) {
	req := &Request{Kind: KindSim, Seed: 3, Sim: &SimQuery{Pieces: 30, Horizon: 50}}
	if err := req.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if back.Key() != req.Key() {
		t.Fatal("key changed across JSON round trip")
	}
}

// nudge moves a canonicalized field to a different value that is still
// inside every domain the request validators check, and reports whether
// it knows how for the field's type.
func nudge(f reflect.Value) bool {
	switch f.Kind() {
	case reflect.Pointer:
		if f.IsNil() {
			f.Set(reflect.New(f.Type().Elem()))
		}
		return nudge(f.Elem())
	case reflect.Int:
		f.SetInt(f.Int() + 1)
	case reflect.Float64:
		if f.Float() == 0 {
			f.SetFloat(0.25)
		} else {
			f.SetFloat(f.Float() / 2)
		}
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.String:
		switch f.String() {
		case FluidQS:
			f.SetString(FluidChunk)
		case FluidChunk:
			f.SetString(FluidQS)
		default:
			return false
		}
	default:
		return false
	}
	return true
}

// TestEveryRequestFieldMovesTheKey walks the JSON fields of the four
// query sections by reflection: starting from a canonical request, one
// field at a time is moved to another valid value, and the resulting key
// must differ from the base request's and from every other one-field
// variant's. A field added to a struct and forgotten in Canonical would
// alias cache keys — two different computations, one cached answer — and
// fails here by name. (A chunk-only knob on a "qs" fluid request is
// refused outright, which aliases nothing.) Every field moves the
// compute key the same way: only the seed may leave it in place.
func TestEveryRequestFieldMovesTheKey(t *testing.T) {
	for name, c := range map[string]struct {
		base    Request
		section func(*Request) any
	}{
		"model":       {Request{Kind: KindModel}, func(r *Request) any { return r.Model }},
		"efficiency":  {Request{Kind: KindEfficiency}, func(r *Request) any { return r.Efficiency }},
		"sim":         {Request{Kind: KindSim}, func(r *Request) any { return r.Sim }},
		"fluid/qs":    {Request{Kind: KindFluid}, func(r *Request) any { return r.Fluid }},
		"fluid/chunk": {Request{Kind: KindFluid, Fluid: &FluidQuery{Model: FluidChunk}}, func(r *Request) any { return r.Fluid }},
	} {
		fresh := func() (*Request, reflect.Value) {
			r := c.base
			if c.base.Fluid != nil {
				q := *c.base.Fluid
				r.Fluid = &q
			}
			if err := r.Canonicalize(); err != nil {
				t.Fatalf("%s: base request: %v", name, err)
			}
			return &r, reflect.ValueOf(c.section(&r)).Elem()
		}
		base, sec := fresh()
		seen := map[string]string{base.Key(): "the base request"}
		seenCompute := map[string]string{keyOf(base).ckey: "the base request"}
		for i := 0; i < sec.NumField(); i++ {
			field, _, _ := strings.Cut(sec.Type().Field(i).Tag.Get("json"), ",")
			if field == "" {
				t.Fatalf("%s: field %s has no json name", name, sec.Type().Field(i).Name)
			}
			req, sec := fresh()
			if !nudge(sec.Field(i)) {
				t.Fatalf("%s.%s: nudge has no rule for a %s", name, field, sec.Type().Field(i).Type)
			}
			if err := req.Canonicalize(); err != nil {
				if strings.Contains(err.Error(), "applies only to") {
					continue
				}
				t.Fatalf("%s.%s: nudged request is invalid, teach nudge a valid value: %v", name, field, err)
			}
			if other, dup := seen[req.Key()]; dup {
				t.Errorf("%s.%s: same key as %s — Canonical does not render this field\n%s", name, field, other, req.Canonical())
			}
			seen[req.Key()] = field
			ckey := keyOf(req).ckey
			if other, dup := seenCompute[ckey]; dup {
				t.Errorf("%s.%s: same compute key as %s", name, field, other)
			}
			seenCompute[ckey] = field
		}
	}
}

// TestSeedFreenessIsAProperty holds seedFree to what the evaluators do:
// efficiency and both fluid models return byte-identical results at
// seeds 0, 1 and 2⁶⁴−1, and share one compute key while Key() still
// moves; model, sim and stability results are seed-dependent, and their
// compute key moves with the seed.
func TestSeedFreenessIsAProperty(t *testing.T) {
	for _, c := range []struct {
		body     string
		seedFree bool
	}{
		{`{"kind":"efficiency","efficiency":{"k":5}}`, true},
		{`{"kind":"fluid","fluid":{"horizon":50,"grid":20}}`, true},
		{`{"kind":"fluid","fluid":{"model":"chunk","k":8,"s":4,"horizon":50,"grid":20}}`, true},
		{`{"kind":"model","model":{"b":20,"k":3,"s":8,"runs":20}}`, false},
		{`{"kind":"sim","sim":{"pieces":20,"initialPeers":30,"horizon":40}}`, false},
		{`{"kind":"stability","sim":{"pieces":20,"initialPeers":20,"lambda":1,"horizon":40}}`, false},
	} {
		keys, ckeys, results := map[string]bool{}, map[string]bool{}, map[string]bool{}
		for _, seed := range []uint64{0, 1, 1<<64 - 1} {
			req, err := DecodeRequest(strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Seed = seed
			k := keyOf(req)
			keys[k.key], ckeys[k.ckey] = true, true
			result, err := Evaluate(context.Background(), req)
			if err != nil {
				t.Fatalf("%s at seed %d: %v", c.body, seed, err)
			}
			b, err := json.Marshal(result)
			if err != nil {
				t.Fatal(err)
			}
			results[string(b)] = true
		}
		want := 3 // distinct compute keys and results over three seeds
		if c.seedFree {
			want = 1
		}
		if len(keys) != 3 || len(ckeys) != want || len(results) != want {
			t.Errorf("%s: %d keys, %d compute keys, %d results over three seeds; want 3, %d, %d",
				c.body, len(keys), len(ckeys), len(results), want, want)
		}
	}
}

// TestKeyAllocatesOnlyItsHex: the canonical form is hashed from a
// buffer on the caller's stack, so Key() allocates its hex string and
// nothing else, and keyOf one string per address (a seedFree kind has a
// compute key of its own). Rendered onto the heap, Key() read 2.
func TestKeyAllocatesOnlyItsHex(t *testing.T) {
	for _, c := range []struct {
		body         string
		key, keyedOf float64
	}{
		{`{"kind":"model","seed":5,"model":{"b":20,"k":3,"s":8,"runs":60}}`, 1, 1},
		{`{"kind":"efficiency","efficiency":{"k":5}}`, 1, 2},
		{`{"kind":"fluid","fluid":{"model":"chunk","k":8,"s":4,"horizon":50}}`, 1, 2},
		{`{"kind":"sim","seed":7,"sim":{"pieces":20,"initialPeers":30,"horizon":40}}`, 1, 1},
	} {
		req, err := DecodeRequest(strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { _ = req.Key() }); got != c.key {
			t.Errorf("%s: Key() allocates %v times, want %v", req.Kind, got, c.key)
		}
		if got := testing.AllocsPerRun(100, func() { _ = keyOf(req) }); got != c.keyedOf {
			t.Errorf("%s: keyOf allocates %v times, want %v", req.Kind, got, c.keyedOf)
		}
	}
}
