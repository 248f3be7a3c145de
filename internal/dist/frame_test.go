package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/retry"
)

// binaryPayload is what no JSON scanner would pass: NULs, a newline, a
// brace, high bytes.
var binaryPayload = []byte{0x00, '{', '\n', 0xff, 0x80, '"', 0x00}

func TestFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{T: TypeHello, V: ProtocolVersion, Worker: "w1", Slots: 4},
		{T: TypeLease, Lease: &Lease{Addr: "abc", Kind: "model", Spec: json.RawMessage(`{"b":40}`), Lo: 3, Hi: 9}},
		{T: TypeHeartbeat},
		{T: TypeResult, Addr: "abc", Payload: []byte(`[1,2,3]`), EvalMs: 12},
		{T: TypeResult, Addr: "abc", Payload: binaryPayload},
		{T: TypeNack, Addr: "abc", Err: "boom"},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("write %q: %v", f.T, err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %q: %v", want.T, err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip %q:\n got %s + %q\nwant %s + %q", want.T, gj, got.Payload, wj, want.Payload)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("drained stream: err = %v, want io.EOF", err)
	}
}

// TestFrameJSONL pins the layout: the length word counts the body, the
// header is one newline-terminated JSON line that never mentions the
// payload (greppable in captures), and the payload follows it verbatim.
func TestFrameJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{T: TypeResult, Addr: "x", Payload: binaryPayload}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if n := binary.BigEndian.Uint32(b[:4]); int(n) != len(b)-4 {
		t.Fatalf("length prefix %d, body %d", n, len(b)-4)
	}
	hlen := int(binary.BigEndian.Uint32(b[4:8]))
	header, payload := b[frameFixedBytes:frameFixedBytes+hlen], b[frameFixedBytes+hlen:]
	if want := `{"t":"result","addr":"x"}` + "\n"; string(header) != want {
		t.Fatalf("header %q, want %q", header, want)
	}
	if !bytes.Equal(payload, binaryPayload) {
		t.Fatalf("payload on the wire %q, want %q", payload, binaryPayload)
	}
}

// countingWriter counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameSingleWrite: prefix, header and payload leave in one
// Write, so a frame is one TCP segment and one reader wake-up, not three.
func TestWriteFrameSingleWrite(t *testing.T) {
	var w countingWriter
	if err := WriteFrame(&w, &Frame{T: TypeResult, Addr: "abc", Payload: binaryPayload}); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("WriteFrame made %d writes, want 1", w.writes)
	}
	if _, err := ReadFrame(&w); err != nil {
		t.Fatalf("read back: %v", err)
	}
}

// TestReadFrameBodyLongerThanFirstBuffer: a body longer than
// readChunkBytes arrives through the growth path — here in halves of
// whatever ReadFrame asks for — and still decodes whole; cut short, it
// reports how far it got.
func TestReadFrameBodyLongerThanFirstBuffer(t *testing.T) {
	want := &Frame{T: TypeResult, Addr: "big", Payload: bytes.Repeat([]byte("x"), 5*readChunkBytes+17)}
	var wire bytes.Buffer
	if err := WriteFrame(&wire, want); err != nil {
		t.Fatal(err)
	}
	whole := wire.Bytes()
	got, err := ReadFrame(iotest.HalfReader(bytes.NewReader(whole)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != want.Addr || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("large frame did not survive: addr %q, payload %d bytes (want %d)", got.Addr, len(got.Payload), len(want.Payload))
	}
	if _, err := ReadFrame(bytes.NewReader(whole[:len(whole)-1])); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("frame missing its last byte: err = %v, want ErrBadFrame", err)
	}
}

// rawFrame lays header and payload out as WriteFrame would, checksum
// included, without asking whether the header is a frame.
func rawFrame(header, payload []byte) []byte {
	b := make([]byte, frameFixedBytes, frameFixedBytes+len(header)+len(payload))
	b = append(append(b, header...), payload...)
	binary.BigEndian.PutUint32(b[0:], uint32(len(b)-4))
	binary.BigEndian.PutUint32(b[4:], uint32(len(header)))
	binary.BigEndian.PutUint32(b[8:], bodyCRC(b[4:]))
	return b
}

// v2Frame is the layout ProtocolVersion <= 2 wrote: the length, then
// one JSON line.
func v2Frame(body string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body)+1)), body+"\n"...)
}

func TestReadFrameMalformed(t *testing.T) {
	prefix := func(n uint32, body []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, n), body...)
	}
	// edit changes a well-formed result frame after its checksum was set.
	edit := func(f func(b []byte)) []byte {
		b := rawFrame([]byte(`{"t":"result","addr":"a"}`+"\n"), binaryPayload)
		f(b)
		return b
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"short header", []byte{0, 0}, ErrBadFrame},
		{"zero length", prefix(0, nil), ErrBadFrame},
		{"no room for a header", prefix(8, make([]byte, 8)), ErrBadFrame},
		{"oversized prefix", prefix(MaxFrameBytes+1, nil), ErrFrameTooLarge},
		{"oversized prefix is malformed too", prefix(MaxFrameBytes+1, nil), ErrBadFrame},
		{"lying prefix truncated body", prefix(1<<20, rawFrame([]byte(`{"t":"x"}`+"\n"), nil)[4:]), ErrBadFrame},
		{"junk body", rawFrame([]byte("junk\n"), nil), ErrBadFrame},
		{"valid json missing type", rawFrame([]byte("{}\n"), nil), ErrBadFrame},
		{"zero header length", rawFrame(nil, []byte(`{"t":"result"}`+"\n")), ErrBadFrame},
		{"header length past the body", edit(func(b []byte) { binary.BigEndian.PutUint32(b[4:], uint32(len(b))) }), ErrBadFrame},
		{"bad checksum", edit(func(b []byte) { b[8] ^= 0x01 }), ErrBadFrame},
		{"payload digit changed", edit(func(b []byte) { b[len(b)-1] ^= 0x01 }), ErrBadFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrame(bytes.NewReader(tc.in))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestReadFrameRejectsEveryFlippedByte: an encoded model result — a
// varint accumulator behind a JSON header — with any one byte inverted,
// or any one bit, is refused as ErrBadFrame, wherever the damage lands:
// length word, header length, checksum, header or payload. Before the
// checksum a flipped payload digit was still valid JSON and was merged.
func TestReadFrameRejectsEveryFlippedByte(t *testing.T) {
	payload := make([]byte, 0, 600)
	for i := 0; i < 300; i++ { // one- and two-byte varints
		payload = binary.AppendUvarint(payload, uint64(i*7%400))
	}
	var wire bytes.Buffer
	if err := WriteFrame(&wire, &Frame{T: TypeResult, Addr: "7f3a", EvalMs: 0.065, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	good := wire.Bytes()
	if _, err := ReadFrame(bytes.NewReader(good)); err != nil {
		t.Fatalf("undamaged frame: %v", err)
	}
	for pos := range good {
		for _, mask := range []byte{0xff, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80} {
			bad := bytes.Clone(good)
			bad[pos] ^= mask
			if f, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("byte %d of %d ^ %#02x: frame %+v, err %v; want ErrBadFrame", pos, len(good), mask, f, err)
			}
		}
	}
}

// TestOldLayoutPeerRefusedByName: a peer that still frames one JSON
// object behind the length (ProtocolVersion <= 2) is told so — not
// "header length 2065855522 of 57" — by ReadFrame, by a coordinator
// reading its hello, and by a worker reading its ack. Nothing is
// negotiated: the connection ends there.
func TestOldLayoutPeerRefusedByName(t *testing.T) {
	const name = "peer speaks frame layout v≤2"
	hello := v2Frame(`{"t":"hello","v":2,"worker":"old","slots":1}`)
	if _, err := ReadFrame(bytes.NewReader(hello)); !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), name) {
		t.Fatalf("ReadFrame of a v2 hello: %v, want ErrBadFrame naming the layout", err)
	}

	t.Run("v2 hello to v3 coordinator", func(t *testing.T) {
		var logs syncBuffer
		coord := New(Config{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
		addr, err := coord.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if b, err := io.ReadAll(conn); err != nil || len(b) != 0 {
			t.Fatalf("coordinator answered a v2 hello with %q (err %v), want a bare hang-up", b, err)
		}
		if !strings.Contains(logs.String(), name) || coord.Workers() != 0 {
			t.Fatalf("workers %d, coordinator log %q does not name the layout", coord.Workers(), logs.String())
		}
	})

	t.Run("v3 worker reading a v2 ack", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() { // a coordinator that acks every hello in the old layout
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				if f, err := ReadFrame(conn); err == nil && f.T == TypeHello {
					_, _ = conn.Write(v2Frame(`{"t":"hello","v":2}`))
					_, _ = io.Copy(io.Discard, conn)
				}
				conn.Close()
			}
		}()
		w := NewWorker(WorkerConfig{Addr: ln.Addr().String(), Reconnect: retry.Policy{MaxAttempts: 1}})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := w.Run(ctx); !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), name) {
			t.Fatalf("worker handed a v2 ack: %v, want ErrBadFrame naming the layout", err)
		}
	})
}

// syncBuffer is a bytes.Buffer a logger may write while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestWriteFrameTooLarge(t *testing.T) {
	f := &Frame{T: TypeResult, Payload: make([]byte, MaxFrameBytes)}
	if err := WriteFrame(io.Discard, f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// FuzzReadFrame asserts the decoder never panics and never trusts a
// length: any input either yields a well-formed frame or a clean
// ErrBadFrame, without allocating beyond the bytes actually present,
// and what it yields re-encodes to a frame that reads back the same.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range []*Frame{
		{T: TypeHello, V: ProtocolVersion, Worker: "w", Slots: 2},
		{T: TypeLease, Lease: &Lease{Addr: "a", Kind: "model", Spec: json.RawMessage(`{"b":1}`), Hi: 2}},
		{T: TypeHeartbeat}, // v4's ping, and its echo
		{T: TypeNack, Addr: "a", Err: "synthetic"},
		// A model result: one varint accumulator (B = 1, two runs).
		{T: TypeResult, Addr: "a", EvalMs: 1, Payload: []byte("\x02\x00\x01\x03\x02\x00\x05\x02\x02\x02\x03\x00\x00\x00\x02\x02\x03\x00")},
	} {
		var seed bytes.Buffer
		if err := WriteFrame(&seed, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(seed.Bytes())
	}
	result := []byte(`{"t":"result","addr":"a"}` + "\n")
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(rawFrame([]byte("junk\n"), nil))
	f.Add(rawFrame(result, binaryPayload)[:20])        // lying length, short body
	f.Add(rawFrame(nil, result))                       // zero header length: a payload with no header
	f.Add(v2Frame(`{"t":"hello","v":2,"worker":"w"}`)) // the old layout
	f.Add(append(rawFrame(result, nil), 0xde, 0xad))   // bytes after the frame
	oversized := rawFrame(result, binaryPayload)
	binary.BigEndian.PutUint32(oversized[4:], MaxFrameBytes) // header length past the body
	f.Add(oversized)
	badCRC := rawFrame(result, binaryPayload)
	badCRC[len(badCRC)-1] ^= 0x01 // the payload's last byte, as faults.CorruptConn would
	f.Add(badCRC)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			if fr != nil {
				t.Fatal("non-nil frame alongside error")
			}
			if err != io.EOF && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("error %v is neither io.EOF nor ErrBadFrame", err)
			}
			return
		}
		if fr.T == "" {
			t.Fatal("decoded frame with empty type")
		}
		if len(fr.Payload) > len(data) {
			t.Fatalf("%d-byte payload from %d bytes of input", len(fr.Payload), len(data))
		}
		// A decoded frame must re-encode (flush out unmarshal-only states)
		// and survive the trip.
		var wire bytes.Buffer
		if err := WriteFrame(&wire, fr); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := ReadFrame(&wire)
		if err != nil || again.T != fr.T || !bytes.Equal(again.Payload, fr.Payload) {
			t.Fatalf("re-encoded frame read back as %+v (err %v), want %+v", again, err, fr)
		}
	})
}
