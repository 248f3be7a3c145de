// Package dist is the repository's deterministic multi-node execution
// layer: a stdlib-only coordinator/worker subsystem that shards large
// fixed-seed computations — Monte-Carlo ensembles, served queries —
// across any number of workers while keeping the repository's signature
// bit-identical determinism. No binary runs it: on one host it is
// slower than local evaluation at every size serve admits (DESIGN.md
// §11), and it stays as the fixture of the serve_dist benchmark.
//
// The design rests on the same two rules as the single-node engine
// (internal/par):
//
//   - Work is indexed, never divided by wall clock or arrival order. A
//     task is (canonical spec bytes, N indexed units); the coordinator
//     cuts [0, N) into contiguous shards, and unit i always means the
//     same computation (model run i draws stats.RNG.At(i)) no matter
//     which worker evaluates it or how often.
//   - Results are position-addressed. Shard payloads are returned in
//     shard (index) order and merged by an ordered fold, so any
//     partitioning across any number of workers reproduces the serial
//     trajectory byte for byte.
//
// Because shards are pure functions of (spec, index range), execution is
// idempotent: a shard may be leased twice (after a worker dies, or
// speculatively for stragglers) and the first result wins — duplicates
// are counted and dropped, never merged twice. That turns fault recovery
// into re-execution with zero correctness cost.
//
// Transport is a versioned, checksummed frame protocol over TCP:
//
//	length | header length | CRC-32C | JSON header\n | payload
//
// Three 4-byte big-endian words: length counts the rest of the frame
// (the body), header length the JSON object and its newline, and the
// CRC covers the body but for its own four bytes. The header holds the
// control fields, greppable in captures; the payload (result frames
// only) is the evaluator's bytes untouched by any JSON scanner, so
// damage to it is the checksum's to catch: ErrBadFrame, the connection
// torn down, the shard requeued. Frames are hello (handshake, version +
// slots), lease (coordinator grants a shard), heartbeat (the
// coordinator's once-per-sweep liveness ping, which the worker's read
// loop echoes back: liveness is per connection, not per lease), result
// (payload), and nack (worker-side failure).
package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/obs/trace"
)

// ProtocolVersion is the wire-protocol version exchanged in hello
// frames; both sides must speak the same version. Version 3 introduced
// the layout above; version 4 keeps it and moves liveness from the lease
// to the connection (an echoed ping replaces per-lease heartbeats, and a
// lease carries no TTL); version 5 drops the worker's goodbye frame and
// its drain nack. A peer still framing one JSON object, payload inside
// it, behind the length (v1, v2) is refused by name at its first frame.
const ProtocolVersion = 5

// MaxFrameBytes bounds a single frame body. The largest legitimate
// frames are result payloads of whole-response kinds (a sim or figure
// body, tens of KiB; a model shard's accumulator is under 1 KiB) and
// results carrying trace spans; anything near the cap is a corrupt or
// hostile length prefix and is rejected.
const MaxFrameBytes = 16 << 20

// readChunkBytes is what ReadFrame allocates on the strength of a length
// prefix alone. Most frames fit and are read in one piece; a longer body
// doubles the buffer only after the bytes so far have arrived.
const readChunkBytes = 64 << 10

// ErrFrameTooLarge reports a length prefix beyond MaxFrameBytes.
var ErrFrameTooLarge = errors.New("dist: frame exceeds size limit")

// ErrBadFrame tags every malformed-frame failure (lengths, checksum,
// header, truncation) so transports can treat the class uniformly.
var ErrBadFrame = errors.New("dist: malformed frame")

// frameFixedBytes is the three words before the header.
const frameFixedBytes = 12

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// bodyCRC sums the header length and everything after the CRC word.
func bodyCRC(body []byte) uint32 {
	return crc32.Update(crc32.Checksum(body[:4], castagnoli), castagnoli, body[8:])
}

// Frame types.
const (
	// TypeHello opens a connection in both directions: the worker sends
	// its version, name, and slot count; the coordinator acknowledges
	// with its version.
	TypeHello = "hello"
	// TypeLease grants a shard to a worker (coordinator → worker).
	TypeLease = "lease"
	// TypeHeartbeat is the coordinator's liveness ping, sent once per
	// sweep (coordinator → worker) and echoed by the worker's read loop
	// (worker → coordinator).
	TypeHeartbeat = "heartbeat"
	// TypeResult delivers a shard's payload (worker → coordinator).
	TypeResult = "result"
	// TypeNack reports a shard evaluation failure (worker → coordinator)
	// or a fatal protocol rejection (coordinator → worker).
	TypeNack = "nack"
)

// Frame is the single wire envelope; T selects which fields are
// meaningful. A union type keeps the codec — and its fuzz surface — in
// one place.
type Frame struct {
	T string `json:"t"`
	// Hello fields. Goodbye frames reuse Worker.
	V      int    `json:"v,omitempty"`
	Worker string `json:"worker,omitempty"`
	Slots  int    `json:"slots,omitempty"`
	// Lease grant (coordinator → worker).
	Lease *Lease `json:"lease,omitempty"`
	// Shard address for result/nack.
	Addr string `json:"addr,omitempty"`
	// Result payload: opaque bytes that follow the JSON header on the
	// wire. A decoded frame's Payload aliases the buffer it was read into.
	Payload []byte `json:"-"`
	// EvalMs is the worker-reported evaluation time for a result frame,
	// in fractional milliseconds (obs.Ms of a Duration: always finite).
	EvalMs float64 `json:"evalMs,omitempty"`
	// Nack reason.
	Err string `json:"err,omitempty"`
	// Spans carries worker-side trace spans back with a result frame so
	// the coordinator can stitch them into the request's trace. Absent
	// unless the lease carried a trace ID.
	Spans []trace.SpanData `json:"spans,omitempty"`
}

// Lease describes one granted shard: the evaluator kind, the spec bytes
// it parameterizes, the index range [Lo, Hi) and the shard's content
// address.
type Lease struct {
	Addr string          `json:"addr"`
	Kind string          `json:"kind"`
	Spec json.RawMessage `json:"spec"`
	Lo   int             `json:"lo"`
	Hi   int             `json:"hi"`
	// TraceID/ParentSpanID propagate the request's trace context to the
	// worker: the worker binds its eval span under ParentSpanID (the
	// coordinator's per-grant shard span) and ships completed spans back
	// in the result frame. Empty when tracing is off.
	TraceID      string `json:"traceId,omitempty"`
	ParentSpanID string `json:"parentSpan,omitempty"`
}

// WriteFrame encodes f as one frame on w, in a single Write: on a TCP
// conn a separate prefix is its own segment and its own reader wake-up.
func WriteFrame(w io.Writer, f *Frame) error {
	var buf bytes.Buffer
	buf.Grow(frameFixedBytes + 256 + len(f.Payload))
	var fixed [frameFixedBytes]byte // filled in below, once the lengths are known
	buf.Write(fixed[:])
	// Encode is Marshal plus the trailing newline.
	if err := json.NewEncoder(&buf).Encode(f); err != nil {
		return fmt.Errorf("dist: encode frame: %w", err)
	}
	hlen := buf.Len() - frameFixedBytes
	buf.Write(f.Payload)
	frame := buf.Bytes()
	n := len(frame) - 4
	if n > MaxFrameBytes {
		return fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(frame[0:], uint32(n))
	binary.BigEndian.PutUint32(frame[4:], uint32(hlen))
	binary.BigEndian.PutUint32(frame[8:], bodyCRC(frame[4:]))
	_, err := w.Write(frame)
	return err
}

// ReadFrame decodes one frame from r. Truncated streams, a zero or
// oversized length or header length, a checksum mismatch and a non-JSON
// header all error cleanly (errors.Is ErrBadFrame, every one); the body
// buffer starts at no more than readChunkBytes and grows only as bytes
// actually arrive, so a hostile length prefix cannot force a large
// allocation.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short length prefix: %v", ErrBadFrame, err)
	}
	const words = frameFixedBytes - 4 // header length and CRC
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n <= words {
		return nil, fmt.Errorf("%w: %d-byte body has no header", ErrBadFrame, n)
	}
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %w: %d bytes", ErrBadFrame, ErrFrameTooLarge, n)
	}
	body := make([]byte, min(n, readChunkBytes))
	for got := 0; ; {
		m, err := io.ReadFull(r, body[got:])
		got += m
		if err != nil {
			return nil, fmt.Errorf("%w: truncated body (%d of %d bytes): %v", ErrBadFrame, got, n, err)
		}
		if got == n {
			break
		}
		body = append(body, make([]byte, min(got, n-got))...)
	}
	// A version <= 2 body is one JSON object. A v3 body opens with its
	// header length, whose top byte MaxFrameBytes keeps at 0 or 1.
	if body[0] == '{' {
		return nil, fmt.Errorf("%w: peer speaks frame layout v≤2, this build v%d", ErrBadFrame, ProtocolVersion)
	}
	hlen := int(binary.BigEndian.Uint32(body))
	if hlen == 0 || hlen > n-words {
		return nil, fmt.Errorf("%w: header length %d of %d", ErrBadFrame, hlen, n-words)
	}
	if got, want := bodyCRC(body), binary.BigEndian.Uint32(body[4:]); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, frame says %08x", ErrBadFrame, got, want)
	}
	f := &Frame{}
	if err := json.Unmarshal(body[words:words+hlen], f); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if f.T == "" {
		return nil, fmt.Errorf("%w: missing frame type", ErrBadFrame)
	}
	if words+hlen < n {
		f.Payload = body[words+hlen:]
	}
	return f, nil
}
