package faults

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/stats"
)

// normalized returns the spec String/ParseSpec round-trips to: String
// prints dropafter only alongside an active drop rate (defaulting it to
// DefaultDropAfter), so DropAfter is meaningful — and preserved — only
// when DropRate > 0.
func normalized(s Spec) Spec {
	if s.DropRate > 0 {
		s.DropAfter = s.dropAfter()
	} else {
		s.DropAfter = 0
	}
	return s
}

// TestSpecRoundTripEveryKind pins one table case per fault kind — the
// pool chaos rows' replay lines must reconstruct each schedule
// exactly from its printed form.
func TestSpecRoundTripEveryKind(t *testing.T) {
	cases := map[string]Spec{
		"empty":              {},
		"drop":               {Seed: 1, DropRate: 0.25, DropAfter: 4096},
		"drop-default-after": {Seed: 2, DropRate: 0.5},
		"corrupt":            {Seed: 3, CorruptRate: 0.125},
		"stall":              {Seed: 4, StallRate: 0.75},
		"refuse":             {Seed: 5, RefuseRate: 1},
		"latency":            {Seed: 6, Latency: 1500 * time.Microsecond},
		"connfail":           {Seed: 7, ConnFailRate: 0.2},
		"crash":              {Seed: 8, CrashRate: 0.01, RejoinAfter: 10},
		"blackout":           {Seed: 9, Blackouts: []Window{{From: 0.5, To: 1.5}, {From: 20, To: 35}}},
		"kitchen-sink": {
			Seed: 42, DropRate: 0.2, DropAfter: 65536, CorruptRate: 0.1,
			StallRate: 0.05, RefuseRate: 0.3, Latency: 5 * time.Millisecond,
			ConnFailRate: 0.2, CrashRate: 0.01, RejoinAfter: 3,
			Blackouts: []Window{{From: 1, To: 2}},
		},
	}
	for name, spec := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := ParseSpec(spec.String())
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v", spec.String(), err)
			}
			if want := normalized(spec); !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip of %q:\n got %+v\nwant %+v", spec.String(), got, want)
			}
		})
	}
}

// TestSpecRoundTripProperty drives ParseSpec(spec.String()) == spec
// across seeded-random specs covering every field jointly, including
// the float-formatting edges ('g'/-1 must round-trip bit-exactly).
func TestSpecRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(20260808, 0xFA)
	for i := 0; i < 500; i++ {
		var s Spec
		s.Seed = rng.Uint64()
		if rng.Bernoulli(0.5) {
			s.DropRate = rng.Float64()
			if rng.Bernoulli(0.5) {
				s.DropAfter = int64(1 + rng.IntN(1<<20))
			}
		}
		if rng.Bernoulli(0.5) {
			s.CorruptRate = rng.Float64()
		}
		if rng.Bernoulli(0.5) {
			s.StallRate = rng.Float64()
		}
		if rng.Bernoulli(0.5) {
			s.RefuseRate = rng.Float64()
		}
		if rng.Bernoulli(0.5) {
			// time.Duration String/ParseDuration round-trips any value.
			s.Latency = time.Duration(rng.IntN(int(5 * time.Second)))
		}
		if rng.Bernoulli(0.5) {
			s.ConnFailRate = rng.Float64()
		}
		if rng.Bernoulli(0.5) {
			s.CrashRate = rng.Float64()
			s.RejoinAfter = rng.IntN(100)
		}
		for n := rng.IntN(3); n > 0; n-- {
			from := rng.Float64() * 100
			s.Blackouts = append(s.Blackouts, Window{
				From: from,
				To:   from + math.Nextafter(0, 1) + rng.Float64()*100,
			})
		}
		raw := s.String()
		got, err := ParseSpec(raw)
		if err != nil {
			t.Fatalf("iteration %d: ParseSpec(%q): %v\nspec %+v", i, raw, err, s)
		}
		if want := normalized(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: round trip of %q:\n got %+v\nwant %+v", i, raw, got, want)
		}
	}
}
