package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead asserts the trace reader never panics, that accepted traces
// survive a write/read round trip and analysis, and that Analyze agrees
// with analyzeRef bit for bit.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	_ = Write(&buf, &Download{
		Meta: Meta{Client: "t", Pieces: 4, PieceSize: 10},
		Samples: []Sample{
			{T: 0}, {T: 1, Bytes: 10, Pieces: 1, Potential: 2},
			{T: 2, Bytes: 40, Pieces: 4},
		},
	})
	f.Add(buf.String())
	f.Add(`{"type":"meta","meta":{"pieces":2,"pieceSize":1}}`)
	f.Add(`{"type":"sample"}`)
	f.Add("not json at all")
	f.Add(`{"type":"meta","meta":{"pieces":-1}}`)
	// Monotonicity violations the validator must reject without panicking.
	f.Add(`{"type":"meta","meta":{"pieces":4,"pieceSize":10}}` + "\n" +
		`{"type":"sample","sample":{"t":1,"pieces":2}}` + "\n" +
		`{"type":"sample","sample":{"t":2,"pieces":1}}`)
	f.Add(`{"type":"meta","meta":{"pieces":4,"pieceSize":10}}` + "\n" +
		`{"type":"sample","sample":{"t":2}}` + "\n" +
		`{"type":"sample","sample":{"t":1}}`)
	f.Add(`{"type":"meta","meta":{"pieces":4,"pieceSize":10}}` + "\n" +
		`{"type":"sample","sample":{"t":1,"bytes":10}}` + "\n" +
		`{"type":"sample","sample":{"t":2,"bytes":5}}`)
	// Single-point trace (readable, but below Analyze's minimum), a
	// sample out of range, and an unknown record type.
	f.Add(`{"type":"meta","meta":{"pieces":4,"pieceSize":10}}` + "\n" +
		`{"type":"sample","sample":{"t":0}}`)
	f.Add(`{"type":"meta","meta":{"pieces":2,"pieceSize":1}}` + "\n" +
		`{"type":"sample","sample":{"t":0,"pieces":9}}`)
	f.Add(`{"type":"meta","meta":{"pieces":2,"pieceSize":1}}` + "\n" +
		`{"type":"round","sample":{"t":0}}`)
	// Phase boundaries Analyze must segment exactly as analyzeRef does:
	// boots only at the last sample; never boots; boots then stalls to
	// the end; b = 1 with an empty potential set after booting; a first
	// sample away from t = 0; zero-length intervals.
	for _, samples := range []string{
		`{"t":0}|{"t":1,"pieces":1}|{"t":2,"pieces":2,"potential":1}`,
		`{"t":0}|{"t":1,"pieces":1}|{"t":3,"pieces":3}`,
		`{"t":0}|{"t":1,"pieces":1,"potential":2}|{"t":2,"pieces":2}|{"t":5,"pieces":3}`,
		`{"t":0}|{"t":1,"pieces":1,"potential":1}|{"t":2,"pieces":1}|{"t":4,"pieces":4}`,
		`{"t":7.5}|{"t":8,"pieces":1,"potential":1}|{"t":9,"pieces":2}|{"t":12,"pieces":4}`,
		`{"t":0}|{"t":0,"pieces":1,"potential":1}|{"t":0,"pieces":2}|{"t":2,"pieces":2}|{"t":2,"pieces":4}`,
	} {
		rec := `{"type":"meta","meta":{"pieces":4,"pieceSize":1}}`
		for _, s := range strings.Split(samples, "|") {
			rec += "\n" + `{"type":"sample","sample":` + s + `}`
		}
		f.Add(rec)
	}

	f.Fuzz(func(t *testing.T, data string) {
		d, err := Read(strings.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, d); err != nil {
			t.Fatalf("accepted trace failed to write: %v", err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("rewritten trace failed to read: %v", err)
		}
		if len(back.Samples) != len(d.Samples) || back.Meta != d.Meta {
			t.Fatal("round trip mismatch")
		}
		// Analysis must never panic on an accepted trace, and Analyze
		// matches its reference bit for bit.
		got, gerr := Analyze(d)
		if want, werr := analyzeRef(d); gerr != werr || !sameReport(got, want) {
			t.Fatalf("Analyze = %+v (%v), reference %+v (%v)", got, gerr, want, werr)
		}
	})
}
