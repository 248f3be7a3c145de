// Package bencode implements the BitTorrent bencoding format: byte
// strings, integers, lists, and dictionaries with lexicographically sorted
// keys. It is the serialization substrate for torrent metainfo files and
// tracker responses in the mini-BitTorrent client.
//
// The Go value mapping is:
//
//	string          <-> bencoded byte string
//	int64           <-> bencoded integer
//	[]any           <-> bencoded list
//	map[string]any  <-> bencoded dictionary
//
// Encode additionally accepts int, []byte, and []string for convenience.
package bencode

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// Errors returned by the decoder.
var (
	ErrTruncated  = errors.New("bencode: unexpected end of input")
	ErrTrailing   = errors.New("bencode: trailing bytes after value")
	ErrBadInteger = errors.New("bencode: malformed integer")
	ErrBadString  = errors.New("bencode: malformed string length")
	ErrBadDict    = errors.New("bencode: dictionary keys not sorted and unique")
	ErrTooDeep    = errors.New("bencode: nesting too deep")
)

// maxDepth bounds recursion so hostile inputs cannot exhaust the stack.
const maxDepth = 64

// Encode serializes v into bencoded form.
func Encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := encodeTo(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func encodeTo(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case string:
		writeString(buf, x)
	case []byte:
		writeString(buf, string(x))
	case int:
		writeInt(buf, int64(x))
	case int64:
		writeInt(buf, x)
	case []string:
		buf.WriteByte('l')
		for _, s := range x {
			writeString(buf, s)
		}
		buf.WriteByte('e')
	case []any:
		buf.WriteByte('l')
		for _, e := range x {
			if err := encodeTo(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte('e')
	case map[string]any:
		buf.WriteByte('d')
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			writeString(buf, k)
			if err := encodeTo(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('e')
	default:
		return fmt.Errorf("bencode: unsupported type %T", v)
	}
	return nil
}

func writeString(buf *bytes.Buffer, s string) {
	buf.WriteString(strconv.Itoa(len(s)))
	buf.WriteByte(':')
	buf.WriteString(s)
}

func writeInt(buf *bytes.Buffer, n int64) {
	buf.WriteByte('i')
	buf.WriteString(strconv.FormatInt(n, 10))
	buf.WriteByte('e')
}

// Decode parses a single bencoded value and requires the input to be fully
// consumed.
func Decode(data []byte) (any, error) {
	d := decoder{data: data}
	v, err := d.value(0)
	if err != nil {
		return nil, err
	}
	if d.pos != len(d.data) {
		return nil, ErrTrailing
	}
	return v, nil
}

type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) peek() (byte, error) {
	if d.pos >= len(d.data) {
		return 0, ErrTruncated
	}
	return d.data[d.pos], nil
}

func (d *decoder) value(depth int) (any, error) {
	if depth > maxDepth {
		return nil, ErrTooDeep
	}
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	switch {
	case c == 'i':
		return d.integer()
	case c >= '0' && c <= '9':
		return d.str()
	case c == 'l':
		return d.list(depth)
	case c == 'd':
		return d.dict(depth)
	default:
		return nil, fmt.Errorf("bencode: unexpected byte %q at offset %d", c, d.pos)
	}
}

func (d *decoder) integer() (int64, error) {
	d.pos++ // 'i'
	end := bytes.IndexByte(d.data[d.pos:], 'e')
	if end < 0 {
		return 0, ErrTruncated
	}
	tok := string(d.data[d.pos : d.pos+end])
	if len(tok) == 0 {
		return 0, ErrBadInteger
	}
	// Canonical form: no leading '+', no leading zeros (except "0"
	// itself), no "-0".
	body := tok
	if body[0] == '+' {
		return 0, ErrBadInteger
	}
	if body[0] == '-' {
		body = body[1:]
		if body == "" || body == "0" || body[0] == '0' {
			return 0, ErrBadInteger
		}
	} else if len(body) > 1 && body[0] == '0' {
		return 0, ErrBadInteger
	}
	n, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %q", ErrBadInteger, tok)
	}
	d.pos += end + 1
	return n, nil
}

func (d *decoder) str() (string, error) {
	colon := bytes.IndexByte(d.data[d.pos:], ':')
	if colon < 0 {
		return "", ErrTruncated
	}
	lenTok := string(d.data[d.pos : d.pos+colon])
	if len(lenTok) > 1 && lenTok[0] == '0' {
		return "", ErrBadString
	}
	n, err := strconv.Atoi(lenTok)
	if err != nil || n < 0 {
		return "", fmt.Errorf("%w: %q", ErrBadString, lenTok)
	}
	start := d.pos + colon + 1
	if start+n > len(d.data) {
		return "", ErrTruncated
	}
	d.pos = start + n
	return string(d.data[start : start+n]), nil
}

func (d *decoder) list(depth int) ([]any, error) {
	d.pos++ // 'l'
	out := []any{}
	for {
		c, err := d.peek()
		if err != nil {
			return nil, err
		}
		if c == 'e' {
			d.pos++
			return out, nil
		}
		v, err := d.value(depth + 1)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
}

func (d *decoder) dict(depth int) (map[string]any, error) {
	d.pos++ // 'd'
	out := make(map[string]any)
	prevKey := ""
	first := true
	for {
		c, err := d.peek()
		if err != nil {
			return nil, err
		}
		if c == 'e' {
			d.pos++
			return out, nil
		}
		key, err := d.str()
		if err != nil {
			return nil, err
		}
		if !first && key <= prevKey {
			return nil, fmt.Errorf("%w: %q after %q", ErrBadDict, key, prevKey)
		}
		first = false
		prevKey = key
		v, err := d.value(depth + 1)
		if err != nil {
			return nil, err
		}
		out[key] = v
	}
}

// Dict provides typed access to a decoded dictionary.
type Dict map[string]any

// AsDict asserts that v is a dictionary.
func AsDict(v any) (Dict, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("bencode: expected dictionary, got %T", v)
	}
	return Dict(m), nil
}

// String returns the byte-string value at key.
func (d Dict) String(key string) (string, error) {
	v, ok := d[key]
	if !ok {
		return "", fmt.Errorf("bencode: missing key %q", key)
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("bencode: key %q is %T, want string", key, v)
	}
	return s, nil
}

// Int returns the integer value at key.
func (d Dict) Int(key string) (int64, error) {
	v, ok := d[key]
	if !ok {
		return 0, fmt.Errorf("bencode: missing key %q", key)
	}
	n, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("bencode: key %q is %T, want int64", key, v)
	}
	return n, nil
}

// Sub returns the nested dictionary at key.
func (d Dict) Sub(key string) (Dict, error) {
	v, ok := d[key]
	if !ok {
		return nil, fmt.Errorf("bencode: missing key %q", key)
	}
	return AsDict(v)
}
