package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func sampleDownload() *Download {
	return &Download{
		Meta: Meta{
			Client: "test", Swarm: "unit", Pieces: 10,
			PieceSize: 100, NeighborCap: 8,
		},
		Samples: []Sample{
			{T: 0, Bytes: 0, Pieces: 0, Potential: 0, Conns: 0},
			{T: 1, Bytes: 100, Pieces: 1, Potential: 2, Conns: 1},
			{T: 3, Bytes: 300, Pieces: 3, Potential: 3, Conns: 2},
			{T: 5, Bytes: 500, Pieces: 5, Potential: 4, Conns: 3},
			{T: 7, Bytes: 700, Pieces: 7, Potential: 4, Conns: 3},
			{T: 9, Bytes: 900, Pieces: 9, Potential: 2, Conns: 2},
			{T: 10, Bytes: 1000, Pieces: 10, Potential: 0, Conns: 0},
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := sampleDownload()
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != d.Meta {
		t.Errorf("meta %+v != %+v", got.Meta, d.Meta)
	}
	if len(got.Samples) != len(d.Samples) {
		t.Fatalf("samples %d != %d", len(got.Samples), len(d.Samples))
	}
	for i := range d.Samples {
		if got.Samples[i] != d.Samples[i] {
			t.Errorf("sample %d: %+v != %+v", i, got.Samples[i], d.Samples[i])
		}
	}
	if !got.Complete() {
		t.Error("trace reaches all pieces; Complete must be true")
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	cases := []func(*Download){
		func(d *Download) { d.Meta.Pieces = 0 },
		func(d *Download) { d.Meta.PieceSize = 0 },
		func(d *Download) { d.Samples[2].T = 0.5 },
		func(d *Download) { d.Samples[2].Bytes = 50 },
		func(d *Download) { d.Samples[2].Pieces = 0 },
		func(d *Download) { d.Samples[1].Potential = -1 },
		func(d *Download) { d.Samples[1].Pieces = 99 },
	}
	for i, mutate := range cases {
		d := sampleDownload()
		mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: invalid trace accepted", i)
		}
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("")); !errors.Is(err, ErrNoMeta) {
		t.Errorf("empty stream: %v", err)
	}
	sampleFirst := `{"type":"sample","sample":{"t":0}}`
	if _, err := Read(strings.NewReader(sampleFirst)); !errors.Is(err, ErrNoMeta) {
		t.Errorf("sample before meta: %v", err)
	}
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("garbage must be rejected")
	}
	dupMeta := `{"type":"meta","meta":{"pieces":2,"pieceSize":1}}
{"type":"meta","meta":{"pieces":2,"pieceSize":1}}`
	if _, err := Read(strings.NewReader(dupMeta)); err == nil {
		t.Error("duplicate meta must be rejected")
	}
	unknown := `{"type":"meta","meta":{"pieces":2,"pieceSize":1}}
{"type":"wat"}`
	if _, err := Read(strings.NewReader(unknown)); err == nil {
		t.Error("unknown record type must be rejected")
	}
	noPayload := `{"type":"meta"}`
	if _, err := Read(strings.NewReader(noPayload)); err == nil {
		t.Error("meta without payload must be rejected")
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	d := sampleDownload()
	d.Samples[2].Bytes = 1
	var buf bytes.Buffer
	if err := Write(&buf, d); err == nil {
		t.Error("Write must validate")
	}
}

func TestAnalyzeSmooth(t *testing.T) {
	d := sampleDownload()
	rep, err := Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regime != RegimeSmooth {
		t.Errorf("regime = %s, want smooth", rep.Regime)
	}
	if !rep.Completed {
		t.Error("must be completed")
	}
	if rep.Duration != 10 {
		t.Errorf("duration = %g", rep.Duration)
	}
	if rep.BootstrapTime != 1 {
		t.Errorf("bootstrap = %g, want 1", rep.BootstrapTime)
	}
	if rep.MeanRate != 100 {
		t.Errorf("rate = %g", rep.MeanRate)
	}
	if !strings.Contains(rep.String(), "smooth") {
		t.Error("String must mention the regime")
	}
}

func TestAnalyzeTooShort(t *testing.T) {
	d := sampleDownload()
	d.Samples = d.Samples[:1]
	if _, err := Analyze(d); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("got %v, want ErrEmptyTrace", err)
	}
}

func TestAnalyzeStuckBootstrap(t *testing.T) {
	d := &Download{
		Meta: Meta{Client: "t", Pieces: 10, PieceSize: 1},
		Samples: []Sample{
			{T: 0}, {T: 5, Pieces: 1, Bytes: 1}, {T: 50, Pieces: 1, Bytes: 1},
		},
	}
	rep, err := Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regime != RegimeBootstrap {
		t.Errorf("regime = %s, want bootstrap", rep.Regime)
	}
	if rep.BootstrapTime != rep.Duration {
		t.Error("entire trace must be bootstrap")
	}
	if rep.Completed {
		t.Error("not completed")
	}
}

func TestAnalyzeLastPhase(t *testing.T) {
	// Quick start, then a long stall with empty potential set near the end.
	d := &Download{
		Meta: Meta{Client: "t", Pieces: 10, PieceSize: 1},
		Samples: []Sample{
			{T: 0, Pieces: 0},
			{T: 1, Pieces: 1, Bytes: 1, Potential: 3, Conns: 1},
			{T: 2, Pieces: 5, Bytes: 5, Potential: 4, Conns: 2},
			{T: 3, Pieces: 9, Bytes: 9, Potential: 0, Conns: 0},
			{T: 30, Pieces: 9, Bytes: 9, Potential: 0, Conns: 0},
			{T: 31, Pieces: 10, Bytes: 10, Potential: 0, Conns: 0},
		},
	}
	rep, err := Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regime != RegimeLastPhase {
		t.Errorf("regime = %s, want last-phase", rep.Regime)
	}
	if rep.LastPhaseTime < 27 {
		t.Errorf("last-phase time = %g, want >= 27", rep.LastPhaseTime)
	}
	if rep.TailStall < 27 {
		t.Errorf("tail stall = %g", rep.TailStall)
	}
	if !rep.Completed {
		t.Error("completed")
	}
}

func TestRegimeString(t *testing.T) {
	if RegimeSmooth.String() != "smooth" ||
		RegimeLastPhase.String() != "last-phase" ||
		RegimeBootstrap.String() != "bootstrap" ||
		Regime(0).String() != "unknown" {
		t.Error("regime names wrong")
	}
}
