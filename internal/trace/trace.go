// Package trace defines the download-trace format shared by the swarm
// simulator and the instrumented mini-BitTorrent client, plus the phase
// analyzer that segments a trace into the paper's bootstrap, efficient,
// and last download phases (Section 4).
//
// A trace is serialized as JSON Lines: one meta record followed by sample
// records, mirroring the statistics the paper's modified BitTornado client
// logged (cumulative bytes downloaded and potential-set size over time).
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// DefaultPieceSize is the conventional 256 KiB BitTorrent piece size
// (Section 2.1), used when a model or simulator trace counts bytes.
const DefaultPieceSize int64 = 256 << 10

// Meta describes the download a trace belongs to.
type Meta struct {
	Client      string `json:"client"`
	Swarm       string `json:"swarm"`
	Pieces      int    `json:"pieces"`
	PieceSize   int64  `json:"pieceSize"`
	NeighborCap int    `json:"neighborCap"`
	// ConnCap is k, the cap the samples' Conns count obeys (0: unknown).
	ConnCap int     `json:"connCap,omitempty"`
	Start   float64 `json:"start"`
}

// Sample is one instrumentation point.
type Sample struct {
	// T is the observation time (virtual time for simulated traces,
	// seconds since start for real client traces).
	T float64 `json:"t"`
	// Bytes is the cumulative number of payload bytes downloaded.
	Bytes int64 `json:"bytes"`
	// Pieces is the number of complete, verified pieces held.
	Pieces int `json:"pieces"`
	// Potential is the instantaneous potential-set size.
	Potential int `json:"potential"`
	// Conns is the number of active connections.
	Conns int `json:"conns"`
}

// Download is a full per-peer trace.
type Download struct {
	Meta    Meta
	Samples []Sample
}

// Validate checks internal consistency: positive piece geometry and
// monotone time/bytes/pieces.
func (d *Download) Validate() error {
	if d.Meta.Pieces < 1 || d.Meta.PieceSize < 1 {
		return fmt.Errorf("trace: bad geometry %d x %d", d.Meta.Pieces, d.Meta.PieceSize)
	}
	var prev Sample
	for i, s := range d.Samples {
		if i > 0 {
			if s.T < prev.T {
				return fmt.Errorf("trace: time went backwards at sample %d", i)
			}
			if s.Bytes < prev.Bytes {
				return fmt.Errorf("trace: bytes decreased at sample %d", i)
			}
			if s.Pieces < prev.Pieces {
				return fmt.Errorf("trace: pieces decreased at sample %d", i)
			}
		}
		if s.Pieces < 0 || s.Pieces > d.Meta.Pieces || s.Potential < 0 || s.Conns < 0 {
			return fmt.Errorf("trace: sample %d out of range: %+v", i, s)
		}
		prev = s
	}
	return nil
}

// Complete reports whether the trace reaches the full piece count.
func (d *Download) Complete() bool {
	n := len(d.Samples)
	return n > 0 && d.Samples[n-1].Pieces >= d.Meta.Pieces
}

// record is the on-disk line envelope.
type record struct {
	Type   string  `json:"type"`
	Meta   *Meta   `json:"meta,omitempty"`
	Sample *Sample `json:"sample,omitempty"`
}

// Write serializes the trace as JSON Lines.
func Write(w io.Writer, d *Download) error {
	if err := d.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(record{Type: "meta", Meta: &d.Meta}); err != nil {
		return fmt.Errorf("trace: encode meta: %w", err)
	}
	for i := range d.Samples {
		if err := enc.Encode(record{Type: "sample", Sample: &d.Samples[i]}); err != nil {
			return fmt.Errorf("trace: encode sample: %w", err)
		}
	}
	return bw.Flush()
}

// ErrNoMeta reports a trace stream that does not begin with a meta record.
var ErrNoMeta = errors.New("trace: stream does not start with a meta record")

// Read parses one trace from a JSON Lines stream.
func Read(r io.Reader) (*Download, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var d Download
	sawMeta := false
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		switch rec.Type {
		case "meta":
			if sawMeta {
				return nil, fmt.Errorf("trace: line %d: duplicate meta", line)
			}
			if rec.Meta == nil {
				return nil, fmt.Errorf("trace: line %d: meta record without payload", line)
			}
			d.Meta = *rec.Meta
			sawMeta = true
		case "sample":
			if !sawMeta {
				return nil, ErrNoMeta
			}
			if rec.Sample == nil {
				return nil, fmt.Errorf("trace: line %d: sample record without payload", line)
			}
			d.Samples = append(d.Samples, *rec.Sample)
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record type %q", line, rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawMeta {
		return nil, ErrNoMeta
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}
