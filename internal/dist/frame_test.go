package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{T: TypeHello, V: ProtocolVersion, Worker: "w1", Slots: 4, Nonce: 0xDEADBEEF},
		{T: TypeLease, Lease: &Lease{Addr: "abc", Kind: "model", Spec: json.RawMessage(`{"b":40}`), Lo: 3, Hi: 9, TTLMs: 1500}},
		{T: TypeHeartbeat, Addr: "abc"},
		{T: TypeResult, Addr: "abc", Payload: json.RawMessage(`[1,2,3]`), EvalMs: 12},
		{T: TypeNack, Addr: "abc", Err: "boom"},
		{T: TypeGoodbye, Worker: "w1"},
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
		if !bytes.Equal(gj, wj) {
			t.Fatalf("round trip %q:\n got %s\nwant %s", want.T, gj, wj)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("drained stream: err = %v, want io.EOF", err)
	}
}

func TestFrameJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{T: TypeHeartbeat, Addr: "x"}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if b[len(b)-1] != '\n' {
		t.Fatal("frame body does not end in newline (breaks greppability)")
	}
	n := binary.BigEndian.Uint32(b[:4])
	if int(n) != len(b)-4 {
		t.Fatalf("length prefix %d, body %d", n, len(b)-4)
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

// TestWriteFrameSingleWrite: header and body leave in one Write, so a
// frame is one TCP segment and one reader wake-up, not two.
func TestWriteFrameSingleWrite(t *testing.T) {
	var w countingWriter
	if err := WriteFrame(&w, &Frame{T: TypeResult, Addr: "abc", Payload: json.RawMessage(`{"runs":1}`)}); err != nil {
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
	want := &Frame{T: TypeResult, Addr: "big", Payload: json.RawMessage(`"` + strings.Repeat("x", 5*readChunkBytes+17) + `"`)}
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

func TestReadFrameMalformed(t *testing.T) {
	mk := func(b []byte) io.Reader { return bytes.NewReader(b) }
	prefix := func(n uint32, body []byte) []byte {
		out := make([]byte, 4, 4+len(body))
		binary.BigEndian.PutUint32(out, n)
		return append(out, body...)
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"short header", []byte{0, 0}, ErrBadFrame},
		{"zero length", prefix(0, nil), ErrBadFrame},
		{"oversized prefix", prefix(MaxFrameBytes+1, nil), ErrFrameTooLarge},
		{"lying prefix truncated body", prefix(1<<20, []byte(`{"t":"x"}`)), ErrBadFrame},
		{"junk body", prefix(4, []byte("junk")), ErrBadFrame},
		{"valid json missing type", prefix(3, []byte("{}\n")), ErrBadFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrame(mk(tc.in))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	f := &Frame{T: TypeResult, Payload: json.RawMessage(`"` + strings.Repeat("x", MaxFrameBytes) + `"`)}
	if err := WriteFrame(io.Discard, f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// FuzzReadFrame asserts the decoder never panics and never trusts a
// length prefix: any input either yields a well-formed frame or a clean
// error, without allocating beyond the bytes actually present.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrame(&seed, &Frame{T: TypeHello, V: 1, Worker: "w", Slots: 2})
	f.Add(seed.Bytes())
	seed.Reset()
	_ = WriteFrame(&seed, &Frame{T: TypeResult, Addr: "a", Payload: json.RawMessage(`[1]`)})
	f.Add(seed.Bytes())
	seed.Reset()
	_ = WriteFrame(&seed, &Frame{T: TypeGoodbye, Worker: "w"})
	f.Add(seed.Bytes())
	seed.Reset()
	// A v2 model result: one folded accumulator (here B = 1, two runs).
	_ = WriteFrame(&seed, &Frame{T: TypeResult, Addr: "a", EvalMs: 1, Payload: json.RawMessage(
		`{"potSum":[1,0],"potCnt":[3,2],"fpSum":[0,5],"fpCnt":[2,2],` +
			`"phases":{"bootstrap":2,"efficient":3,"last":0,"stuckBootstrap":0,"hasLast":0},` +
			`"completion":[2,3],"truncated":0}`)})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 4, 'j', 'u', 'n', 'k'})
	f.Add([]byte{0, 0, 16, 0, '{', '}'}) // lying prefix, short body
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			if fr != nil {
				t.Fatal("non-nil frame alongside error")
			}
			return
		}
		if fr.T == "" {
			t.Fatal("decoded frame with empty type")
		}
		// A decoded frame must re-encode (flush out unmarshal-only states).
		if err := WriteFrame(io.Discard, fr); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
	})
}
