package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/par"
)

// Batch caps. The item cap bounds fan-out per request (256 admissions
// at most); the byte cap bounds the decoder's buffering — both tiers
// (replica and gateway) enforce the same limits so a batch rejected by
// one is rejected by the other.
const (
	MaxBatchItems = 256
	MaxBatchBytes = 4 << 20
)

// BatchItem is one order-preserving line of a /v1/batch JSONL response.
// Index is the item's position in the request array; Status is the HTTP
// status the item would have received from /v1/query. Successful items
// carry the full /v1/query envelope verbatim in Response (one writer's
// bytes, so batch and single-query responses are byte-identical per
// item); failed items carry Error, and shed (429) items additionally
// carry RetryAfterSec — the per-item spelling of the Retry-After header.
type BatchItem struct {
	Type          string          `json:"type"` // "item"
	Index         int             `json:"index"`
	Status        int             `json:"status"`
	Key           string          `json:"key,omitempty"`
	Cache         string          `json:"cache,omitempty"` // hit | miss | shared
	RetryAfterSec int             `json:"retryAfterSec,omitempty"`
	Error         string          `json:"error,omitempty"`
	Response      json.RawMessage `json:"response,omitempty"`
}

// BatchSummary is the terminal line of a /v1/batch response.
type BatchSummary struct {
	Type   string `json:"type"` // "summary"
	Items  int    `json:"items"`
	OK     int    `json:"ok"`
	Errors int    `json:"errors"`
	Shed   int    `json:"shed"`
}

// The fixed head of an item line and of the summary line, which
// WriteItemLine and json.Marshal(BatchItem) both begin with (type, index
// and status are BatchItem's first fields): the gateway reads an item's
// routing fields off this prefix and never parses the payload behind it.
const (
	ItemHead    = `{"type":"item","index":`
	StatusHead  = `,"status":`
	SummaryHead = `{"type":"summary"`
)

// lineWriters holds the buffers replies are written through, at both
// tiers: a reply costs neither a write per line nor a buffer of its own
// size.
var lineWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// LineWriter takes a pooled 64 KiB writer onto w; PutLineWriter returns
// it once the reply is flushed.
func LineWriter(w io.Writer) *bufio.Writer {
	bw := lineWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// PutLineWriter returns bw, flushed, to the pool.
func PutLineWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	lineWriters.Put(bw)
}

// writeEnvelope is the one envelope writer: k's Response around result,
// its cached bytes, as json.Marshal renders it. Kinds are ASCII, keys hex
// and results encoder fixed points: nothing is escaped or rescanned.
func writeEnvelope(w *bufio.Writer, k *keyed, result []byte) {
	b := strconv.AppendInt(append(w.AvailableBuffer(), `{"v":`...), int64(k.req.V), 10)
	b = append(append(b, `,"kind":"`...), k.req.Kind...)
	b = strconv.AppendUint(append(b, `","seed":`...), k.req.Seed, 10)
	b = append(append(b, `,"key":"`...), k.key...)
	_, _ = w.Write(append(b, `","result":`...))
	_, _ = w.Write(result)
	_ = w.WriteByte('}')
}

// WriteItemLine writes it as the line a json.Encoder's Encode(it)
// writes, byte for byte. A 200 item is the replica's own — Key is hex,
// Cache is hit, miss or shared, Response is a writeEnvelope envelope, a
// fixed point of the encoder's compaction — so nothing in it needs
// escaping and Response is copied, not scanned again. Any other item
// carries error text and goes through encoding/json.
func WriteItemLine(w *bufio.Writer, it *BatchItem) { writeItemLine(w, it, nil) }

// writeItemLine is WriteItemLine; with k set, it.Response is k's cached
// result, written inside k's envelope.
func writeItemLine(w *bufio.Writer, it *BatchItem, k *keyed) {
	if it.Status != http.StatusOK {
		writeJSONLine(w, *it)
		return
	}
	b := strconv.AppendInt(append(w.AvailableBuffer(), ItemHead...), int64(it.Index), 10)
	b = append(append(b, StatusHead+`200,"key":"`...), it.Key...)
	b = append(append(b, `","cache":"`...), it.Cache...)
	_, _ = w.Write(append(b, `","response":`...))
	if k == nil {
		_, _ = w.Write(it.Response)
	} else {
		writeEnvelope(w, k, it.Response)
	}
	_, _ = w.WriteString("}\n")
}

// writeJSONLine writes v's JSON and a newline or, like json.Encoder,
// nothing if v does not marshal.
func writeJSONLine(w *bufio.Writer, v any) {
	if b, err := json.Marshal(v); err == nil {
		_, _ = w.Write(append(b, '\n'))
	}
}

// Batch is a split /v1/batch body: Items are views into the pooled
// buffer the body was read into, each item's bytes without whitespace
// around them, as a json.Decoder hands them to a json.RawMessage.
type Batch struct {
	Items []json.RawMessage
	body  bytes.Buffer
}

// batches recycles split bodies, keeping none above maxBatchBuf so that
// one body near MaxBatchBytes does not stay pinned in the pool.
var batches = sync.Pool{New: func() any { return new(Batch) }}

const maxBatchBuf = 1 << 20

// Release returns b to the pool; no item may be read after it, so a
// handler releases its batch once its reply is flushed.
func (b *Batch) Release() {
	if b.body.Cap() <= maxBatchBuf {
		b.Items = b.Items[:0]
		b.body.Reset()
		batches.Put(b)
	}
}

// SplitBatch reads a JSON array of raw batch items from r, enforcing
// the item cap. It rejects anything that is not a non-empty array.
// Shared by the replica handler and the gateway so both tiers agree on
// what a well-formed batch is. The body is read once, whole, json.Valid
// checks it and splitArray cuts it into views, so a batch allocates
// nothing per item; a body it rejects gets splitError's text.
func SplitBatch(r io.Reader) (*Batch, error) {
	b := batches.Get().(*Batch)
	_, rerr := b.body.ReadFrom(r)
	body := b.body.Bytes()
	n := -1
	if rerr == nil && json.Valid(body) && bytes.TrimLeft(body, " \t\r\n")[0] == '[' {
		b.Items, n = splitArray(body, b.Items[:0])
	}
	var err error
	switch {
	case n < 0:
		err = splitError(body, rerr)
	case n == 0:
		err = fmt.Errorf("%w: empty batch", ErrBadRequest)
	case n > MaxBatchItems:
		err = fmt.Errorf("%w: batch of %d items exceeds cap %d", ErrBadRequest, n, MaxBatchItems)
	default:
		return b, nil
	}
	b.Release()
	return nil, err
}

// splitArray appends to items the first MaxBatchItems elements of body,
// a valid JSON array, and counts them all: in a valid body an element
// is what lies between depth-0 commas, trimmed, once strings are skipped.
func splitArray(body []byte, items []json.RawMessage) ([]json.RawMessage, int) {
	depth, start, end, n := 0, -1, 0, 0
	for i := bytes.IndexByte(body, '[') + 1; i < len(body); i++ {
		switch c := body[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			continue
		case depth == 0 && (c == ',' || c == ']'):
			if start >= 0 { // not "[]"
				if n < MaxBatchItems {
					items = append(items, body[start:end:end])
				}
				n++
			}
			if c == ']' {
				return items, n
			}
			start = -1
			continue
		}
		if start < 0 {
			start = i
		}
		switch body[i] {
		case '"':
			for i++; body[i] != '"'; i++ {
				if body[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		}
		end = i + 1
	}
	return items, n
}

// splitError is the error a json.Decoder reading the request gave, for
// a body SplitBatch could not split: the decoder reads the body, then
// readErr, so syntax and read errors come in the order the bytes did.
// A value that is not an array takes json's type error for the item
// slice (null, no items, is empty); an array here is followed by
// trailing data or a failed read.
func splitError(body []byte, readErr error) error {
	var r io.Reader = bytes.NewReader(body)
	if readErr != nil {
		r = io.MultiReader(r, failingReader{readErr})
	}
	dec := json.NewDecoder(r)
	var v json.RawMessage
	err := dec.Decode(&v)
	if err == nil && v[0] != '[' {
		err = json.Unmarshal(v, new([]json.RawMessage))
	}
	if err != nil {
		return fmt.Errorf("%w: batch body must be a JSON array of requests: %v", ErrBadRequest, err)
	}
	// Trailing garbage after the array is a malformed batch, not ignorable.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: trailing data after batch array", ErrBadRequest)
	}
	return fmt.Errorf("%w: empty batch", ErrBadRequest)
}

// failingReader fails every read with err.
type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) { return 0, f.err }

// DecodeBatchItem decodes one raw batch item exactly as /v1/query decodes
// its body.
func DecodeBatchItem(raw json.RawMessage) (*Request, error) {
	return DecodeRequest(bytes.NewReader(raw))
}

// DecodeBatch decodes the items SplitBatch returned and calls each with
// item i's outcome, in order: the request, or the error DecodeBatchItem
// gives for the same item. The items are one stream of values to one
// decoder, so a batch builds one decoder and one buffer, not one per
// item. SplitBatch has proved each item exactly one JSON value, and a
// decoder reads a whole value before it decodes any of it — a type
// error or an unknown field fails only that value — so the stream stays
// in step and item i+1 decodes as it would alone.
func DecodeBatch(items []json.RawMessage, each func(i int, req *Request, err error)) {
	dec := json.NewDecoder(&itemStream{items: items})
	reqs := make([]Request, len(items))
	for i := range items {
		if err := decodeNext(dec, &reqs[i]); err != nil {
			each(i, nil, err)
		} else {
			each(i, &reqs[i], nil)
		}
	}
}

// itemStream reads items as one stream, each item followed by a newline.
type itemStream struct {
	items []json.RawMessage
	off   int // bytes of items[0] read; len(items[0]) means its newline is next
}

func (s *itemStream) Read(p []byte) (n int, err error) {
	for n < len(p) && len(s.items) > 0 {
		if it := s.items[0]; s.off < len(it) {
			c := copy(p[n:], it[s.off:])
			n, s.off = n+c, s.off+c
			continue
		}
		p[n] = '\n'
		n, s.items, s.off = n+1, s.items[1:], 0
	}
	if n == 0 && len(s.items) == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// BatchKey derives the content address of a whole batch (for trace
// identity): the hex SHA-256 over the items' raw bytes.
func BatchKey(items []json.RawMessage) string {
	h := sha256.New()
	for _, it := range items {
		h.Write(it)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ErrorStatus is the one map from a pipeline error to an HTTP status:
// validation → 400, saturation → 429, deadline → 504, server shutdown →
// 503, anything else → 500. /v1/query, every batch item and the gateway
// all answer with it, so a per-item status means exactly what the
// single-query status does.
func ErrorStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, par.ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// handleBatch is the amortized-throughput path: a JSON array of
// requests answered as order-preserving JSONL, one BatchItem line per
// input item plus a terminal BatchSummary. It is the /v1/query pipeline
// over many requests: every item goes through the same decoder, items
// with one compute key share one cache probe and one computation, and
// the unique compute keys resolve through the same resolve a single does.
// Per-item failures are per-item statuses; the batch itself only fails
// (400) when the array is malformed.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	s.batchRequests.Inc()
	defer s.observeLatency(time.Now())
	batch, err := SplitBatch(http.MaxBytesReader(w, r.Body, MaxBatchBytes))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer batch.Release() // after the reply is flushed: items are views into it
	items := batch.Items
	s.batchItems.Add(int64(len(items)))
	tctx, root := s.rootSpan(w, r, BatchKey(items), "/v1/batch")
	defer root.End()
	root.AnnotateInt("items", len(items))

	// Decode + canonicalize every item first, grouping compute keys so N
	// requests for one result cost one resolution.
	bad := make([]error, len(items))     // per item: why it never became a request
	ks := make([]keyed, len(items))      // per valid item: its request and keys
	slot := make([]int, len(items))      // per valid item: its compute key's index in uniq
	uniq := make([]keyed, 0, len(items)) // first-seen order
	byKey := make(map[string]int, len(items))
	DecodeBatch(items, func(i int, req *Request, err error) {
		if err != nil {
			bad[i] = err
			return
		}
		ks[i] = keyOf(req)
		j, ok := byKey[ks[i].ckey]
		if !ok {
			j = len(uniq)
			byKey[ks[i].ckey] = j
			uniq = append(uniq, ks[i])
		}
		slot[i] = j
	})
	answers := s.resolve(tctx, uniq)
	if answers == nil {
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	bw := LineWriter(w)
	sum := BatchSummary{Type: "summary", Items: len(items)}
	retrySec := 0 // the reply's one Retry-After hint, taken on its first 429
	for i := range items {
		item := BatchItem{Type: "item", Index: i, Status: http.StatusOK}
		err := bad[i]
		if err == nil {
			a := answers[slot[i]]
			item.Key, item.Cache, item.Response, err = ks[i].key, a.src, a.result, a.err
		}
		if err != nil {
			item.Status, item.Error = ErrorStatus(err), err.Error()
			sum.Errors++
			s.batchBad.Inc()
		}
		switch {
		case item.Status == http.StatusOK:
			sum.OK++
		case item.Status == http.StatusTooManyRequests:
			// The per-item spelling of the 429 Retry-After header, from the
			// same live-load formula: one histogram snapshot per reply.
			if retrySec == 0 {
				retrySec = s.retryAfterSeconds()
			}
			item.RetryAfterSec = retrySec
			sum.Shed++
			s.shed.Inc()
		case item.Status >= 500:
			s.failures.Inc()
		}
		writeItemLine(bw, &item, &ks[i])
	}
	writeJSONLine(bw, sum)
	_ = bw.Flush() // a client that hung up loses only its own reply
	PutLineWriter(bw)
}
