package obs

import (
	"math"
	"strconv"
)

// F64 is a float64 whose JSON encoding maps NaN and ±Inf to null.
// Telemetry legitimately produces non-finite values — quantiles of an
// empty histogram, ensemble curves at never-observed piece counts —
// which encoding/json refuses to emit; null is the JSON-representable
// spelling of the same fact. The serving layer's response bodies and
// stream records are made of it.
type F64 float64

// MarshalJSON implements json.Marshaler. A finite value is spelled
// exactly as encoding/json spells a float64 — shortest round-trip
// digits, exponent form below 1e-6 and from 1e21 up with a one-digit
// negative exponent unpadded — without a nested json.Marshal per value.
func (f F64) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	var buf [32]byte // on the stack; the result is allocated at its exact length
	b := strconv.AppendFloat(buf[:0], v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 → e-9
		b = b[:n-1]
	}
	return append([]byte(nil), b...), nil
}

// F64s converts a float64 slice to its NaN-safe JSON form.
func F64s(xs []float64) []F64 {
	out := make([]F64, len(xs))
	for i, v := range xs {
		out[i] = F64(v)
	}
	return out
}
