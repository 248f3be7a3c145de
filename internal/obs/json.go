package obs

import (
	"encoding/json"
	"math"
)

// F64 is a float64 whose JSON encoding maps NaN and ±Inf to null.
// Telemetry legitimately produces non-finite values — quantiles of an
// empty histogram, ensemble curves at never-observed piece counts —
// which encoding/json refuses to emit; null is the JSON-representable
// spelling of the same fact. The serving layer's response bodies and
// stream records are made of it.
type F64 float64

// MarshalJSON implements json.Marshaler.
func (f F64) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// F64s converts a float64 slice to its NaN-safe JSON form.
func F64s(xs []float64) []F64 {
	out := make([]F64, len(xs))
	for i, v := range xs {
		out[i] = F64(v)
	}
	return out
}
