package faults

import (
	"reflect"
	"testing"
)

// FuzzParseSpec asserts the -faults grammar never panics, that an
// accepted spec keeps every probability inside [0, 1], and that its
// printed form parses back to the same spec — the replay line a failing
// chaos run prints is the schedule it ran.
func FuzzParseSpec(f *testing.F) {
	f.Add("seed=42,drop=0.2,dropafter=65536,blackout=0.5:1.5")
	f.Add("seed=7,connfail=0.2,crash=0.01,rejoin=10,blackout=20:35,latency=5ms,stall=1,corrupt=0,refuse=0.5")
	f.Fuzz(func(t *testing.T, raw string) {
		s, err := ParseSpec(raw)
		if err != nil {
			return
		}
		for _, p := range []float64{s.DropRate, s.CorruptRate, s.StallRate, s.RefuseRate, s.ConnFailRate, s.CrashRate} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseSpec(%q) accepted probability %g", raw, p)
			}
		}
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) printed %q, which does not parse: %v", raw, s.String(), err)
		}
		if want := normalized(s); !reflect.DeepEqual(again, want) {
			t.Fatalf("round trip of %q via %q:\n got %+v\nwant %+v", raw, s.String(), again, want)
		}
	})
}
