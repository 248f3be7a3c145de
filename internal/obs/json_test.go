package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestF64MarshalsNonFiniteAsNull(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1.5, "1.5"},
		{0, "0"},
		{-3.25, "-3.25"},
		{math.NaN(), "null"},
		{math.Inf(1), "null"},
		{math.Inf(-1), "null"},
	}
	for _, tc := range cases {
		got, err := json.Marshal(F64(tc.in))
		if err != nil {
			t.Fatalf("F64(%v): %v", tc.in, err)
		}
		if string(got) != tc.want {
			t.Fatalf("F64(%v) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

// TestF64MatchesEncodingJSON: the flat encoder moves no byte. Every finite
// value must be spelled as json.Marshal(float64) spells it — across the
// 'f'/'e' switch at 1e-6 and 1e21, the exponent clean-up, signed zero and
// the subnormals — and every non-finite one as null.
func TestF64MatchesEncodingJSON(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		got, err := F64(v).MarshalJSON()
		if err != nil {
			t.Fatalf("F64(%v): %v", v, err)
		}
		want, err := json.Marshal(v)
		if err != nil {
			want = []byte("null") // NaN, ±Inf
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("F64(%v) [%#x] = %s, json.Marshal = %s", v, math.Float64bits(v), got, want)
		}
	}
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 100, 1e-5, 1e-6, 1e-7, 1e-9, 1e-10, 1e20, 1e21, 1e22,
		1.5e-9, 1.234e-10, 1e100, 1e-100, 123456789012345680000, 0.0000012345678901234567,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022, 0x0.fffffffffffffp-1022,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, v := range edges {
		for _, w := range []float64{v, -v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))} {
			check(w)
		}
	}
	const n = 1 << 20
	r := rand.New(rand.NewSource(20))
	for i := 0; i < n; i++ {
		check(math.Float64frombits(r.Uint64()))
	}
	// Bit patterns are uniform in the exponent; responses are not.
	for i := 0; i < n/4; i++ {
		check(r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30)))
	}
}

func TestF64sConverts(t *testing.T) {
	got, err := json.Marshal(F64s([]float64{1, math.NaN(), 2.5}))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "[1,null,2.5]" {
		t.Fatalf("F64s = %s", got)
	}
	// A nil input yields an empty (non-nil) slice: response fields encode
	// as [] rather than null, matching the serving layer's historic bytes.
	if got, err := json.Marshal(F64s(nil)); err != nil || string(got) != "[]" {
		t.Fatalf("F64s(nil) marshals to %s (%v), want []", got, err)
	}
}

// TestEmptyHistogramSnapshotJSON is a regression test: a registry
// holding a histogram that was never observed must still produce a
// snapshot line that is valid JSON and round-trips through ReadSnapshots — no NaN or
// Inf may leak into the wire format.
func TestEmptyHistogramSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("never.observed")

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, 1.0, reg.Snapshot()); err != nil {
		t.Fatalf("write: %v", err)
	}
	line := buf.String()
	if !json.Valid([]byte(line)) {
		t.Fatalf("snapshot line is not valid JSON: %s", line)
	}
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(line, bad) {
			t.Fatalf("snapshot leaks %s: %s", bad, line)
		}
	}

	recs, err := ReadSnapshots(strings.NewReader(line))
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	hs, ok := recs[0].Histograms["never.observed"]
	if !ok {
		t.Fatal("missing histogram never.observed")
	}
	if hs.Count != 0 || hs.Sum != 0 || hs.Min != 0 || hs.Max != 0 {
		t.Fatalf("empty histogram snapshot not zero: %+v", hs)
	}
}
