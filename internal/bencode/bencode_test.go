package bencode

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncodeBasics(t *testing.T) {
	cases := []struct {
		in   any
		want string
	}{
		{"spam", "4:spam"},
		{"", "0:"},
		{[]byte{0, 1, 2}, "3:\x00\x01\x02"},
		{int64(42), "i42e"},
		{-7, "i-7e"},
		{0, "i0e"},
		{[]any{"a", int64(1)}, "l1:ai1ee"},
		{[]string{"x", "yz"}, "l1:x2:yze"},
		{map[string]any{"b": int64(2), "a": "one"}, "d1:a3:one1:bi2ee"},
		{[]any{}, "le"},
		{map[string]any{}, "de"},
	}
	for _, c := range cases {
		got, err := Encode(c.in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", c.in, err)
		}
		if string(got) != c.want {
			t.Errorf("Encode(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	if _, err := Encode(3.14); err == nil {
		t.Error("floats must be rejected")
	}
}

func TestDecodeBasics(t *testing.T) {
	v, err := Decode([]byte("d4:listl1:a1:be3:numi-3e3:str4:spame"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := AsDict(v)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := d.String("str"); err != nil || s != "spam" {
		t.Errorf("str = %q, %v", s, err)
	}
	if n, err := d.Int("num"); err != nil || n != -3 {
		t.Errorf("num = %d, %v", n, err)
	}
	if l, ok := d["list"].([]any); !ok || len(l) != 2 {
		t.Errorf("list = %v", d["list"])
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		in   string
		want error
	}{
		{"", ErrTruncated},
		{"i42", ErrTruncated},
		{"i042e", ErrBadInteger},
		{"i-0e", ErrBadInteger},
		{"i+0e", ErrBadInteger}, // regression: found by FuzzDecode
		{"i+7e", ErrBadInteger},
		{"ie", ErrBadInteger},
		{"i4xe", ErrBadInteger},
		{"5:abc", ErrTruncated},
		{"01:a", ErrBadString},
		{"4spam", ErrTruncated},
		{"l1:a", ErrTruncated},
		{"d1:b1:x1:a1:ye", ErrBadDict}, // keys out of order
		{"d1:a1:x1:a1:ye", ErrBadDict}, // duplicate keys
		{"i1ei2e", ErrTrailing},
	}
	for _, c := range cases {
		if _, err := Decode([]byte(c.in)); !errors.Is(err, c.want) {
			t.Errorf("Decode(%q) = %v, want %v", c.in, err, c.want)
		}
	}
	if _, err := Decode([]byte("x")); err == nil {
		t.Error("unknown prefix must fail")
	}
}

func TestDecodeDepthLimit(t *testing.T) {
	deep := bytes.Repeat([]byte("l"), 200)
	deep = append(deep, bytes.Repeat([]byte("e"), 200)...)
	if _, err := Decode(deep); !errors.Is(err, ErrTooDeep) {
		t.Errorf("got %v, want ErrTooDeep", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Build random nested values, encode, decode, compare.
	type gen func(depth int, raw []byte, idx *int) any
	var build gen
	next := func(raw []byte, idx *int) byte {
		if len(raw) == 0 {
			return 0
		}
		b := raw[*idx%len(raw)]
		*idx++
		return b
	}
	build = func(depth int, raw []byte, idx *int) any {
		switch next(raw, idx) % 4 {
		case 0:
			return string(raw[:int(next(raw, idx))%(len(raw)+1)])
		case 1:
			return int64(int8(next(raw, idx)))
		case 2:
			if depth > 3 {
				return int64(1)
			}
			n := int(next(raw, idx)) % 4
			l := make([]any, n)
			for i := range l {
				l[i] = build(depth+1, raw, idx)
			}
			return l
		default:
			if depth > 3 {
				return "leaf"
			}
			n := int(next(raw, idx)) % 4
			m := make(map[string]any, n)
			for i := 0; i < n; i++ {
				key := string([]byte{'k', byte('a' + i)})
				m[key] = build(depth+1, raw, idx)
			}
			return m
		}
	}
	f := func(raw []byte) bool {
		idx := 0
		v := build(0, raw, &idx)
		enc, err := Encode(v)
		if err != nil {
			return false
		}
		back, err := Decode(enc)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(v), back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// normalize converts encoder conveniences into the decoder's canonical
// types so DeepEqual comparisons line up.
func normalize(v any) any {
	switch x := v.(type) {
	case []byte:
		return string(x)
	case int:
		return int64(x)
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = normalize(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = normalize(e)
		}
		return out
	default:
		return v
	}
}

func TestDictAccessors(t *testing.T) {
	v, err := Decode([]byte("d3:numi7e3:subd1:k1:vee"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := AsDict(v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.String("missing"); err == nil {
		t.Error("missing key must error")
	}
	if _, err := d.String("num"); err == nil {
		t.Error("type mismatch must error")
	}
	if _, err := d.Int("sub"); err == nil {
		t.Error("type mismatch must error")
	}
	if _, err := d.Sub("num"); err == nil {
		t.Error("non-dict Sub must error")
	}
	if _, err := d.Sub("nope"); err == nil {
		t.Error("missing Sub must error")
	}
	sub, err := d.Sub("sub")
	if err != nil {
		t.Fatal(err)
	}
	if s, err := sub.String("k"); err != nil || s != "v" {
		t.Errorf("sub.k = %q, %v", s, err)
	}
	if _, err := AsDict("nope"); err == nil {
		t.Error("AsDict of non-dict must error")
	}
}

func TestCanonicalEncodingIsSortedAndDecodable(t *testing.T) {
	m := map[string]any{"zz": int64(1), "aa": "x", "mm": []any{int64(2)}}
	enc, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	// Decoding enforces sorted keys, so a successful round trip proves
	// canonical ordering.
	back, err := Decode(enc)
	if err != nil {
		t.Fatalf("canonical encoding rejected: %v", err)
	}
	if !reflect.DeepEqual(normalize(m), back) {
		t.Error("round trip mismatch")
	}
}
