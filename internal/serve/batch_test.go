package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// postBatch posts a raw batch body and returns the response plus the
// decoded item lines and summary (nil summary if none present).
func postBatch(t *testing.T, url, body string) (*http.Response, []BatchItem, *BatchSummary) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var items []BatchItem
	var sum *BatchSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), MaxBatchBytes)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("malformed response line %q: %v", line, err)
		}
		switch probe.Type {
		case "item":
			var it BatchItem
			if err := json.Unmarshal(line, &it); err != nil {
				t.Fatalf("malformed item line %q: %v", line, err)
			}
			items = append(items, it)
		case "summary":
			sum = &BatchSummary{}
			if err := json.Unmarshal(line, sum); err != nil {
				t.Fatalf("malformed summary line %q: %v", line, err)
			}
		default:
			t.Fatalf("unexpected line type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, items, sum
}

// TestBatchItemsMatchSingleQueryBytes is the batch tentpole contract:
// each successful item's embedded response is byte-identical to what
// /v1/query returns for the same canonical request, items come back in
// input order, and identical items dedupe into one computation.
func TestBatchItemsMatchSingleQueryBytes(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})
	reqs := []string{
		`{"kind":"efficiency","efficiency":{"k":3}}`,
		`{"kind":"fluid","fluid":{"horizon":50}}`,
		`{"kind":"efficiency","efficiency":{"k":3}}`, // dup of item 0
		`{"kind":"model","seed":5,"model":{"b":20,"k":3,"s":8,"runs":40}}`,
	}
	resp, items, sum := postBatch(t, ts.URL, "["+strings.Join(reqs, ",")+"]")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(items) != len(reqs) {
		t.Fatalf("%d item lines, want %d", len(items), len(reqs))
	}
	for i, it := range items {
		if it.Index != i {
			t.Fatalf("item %d carries index %d: order not preserved", i, it.Index)
		}
		if it.Status != http.StatusOK {
			t.Fatalf("item %d status %d (%s)", i, it.Status, it.Error)
		}
		single, b := postQuery(t, ts.URL, reqs[i])
		if single.StatusCode != http.StatusOK {
			t.Fatalf("single query %d status %d", i, single.StatusCode)
		}
		want := bytes.TrimSuffix(b, []byte("\n"))
		if !bytes.Equal(it.Response, want) {
			t.Errorf("item %d bytes diverge from /v1/query:\nbatch:  %s\nsingle: %s", i, it.Response, want)
		}
		if single.Header.Get("X-Cache-Key") != it.Key {
			t.Errorf("item %d key %s != single-query key %s", i, it.Key, single.Header.Get("X-Cache-Key"))
		}
	}
	if items[0].Key != items[2].Key {
		t.Fatalf("identical items got different keys: %s vs %s", items[0].Key, items[2].Key)
	}
	if sum == nil || sum.Items != 4 || sum.OK != 4 || sum.Errors != 0 {
		t.Fatalf("summary = %+v, want 4 items / 4 ok", sum)
	}
	// 3 unique keys → exactly 3 computations despite 4 items.
	if got := reg.Counter("serve.computations").Value(); got != 3 {
		t.Fatalf("computations = %d, want 3 (in-batch dedup)", got)
	}

	// Replies are written through pooled buffers: concurrent replies to
	// different batches must each stay whole and their own.
	bodies := []string{"[" + strings.Join(reqs, ",") + "]", "[" + reqs[3] + "," + reqs[1] + "]"}
	reply := func(k int) ([]byte, error) {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(bodies[k]))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	var want [2][]byte
	for k := range bodies {
		var err error
		if want[k], err = reply(k); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				k := (g + n) % 2
				if got, err := reply(k); err != nil || !bytes.Equal(got, want[k]) {
					t.Errorf("concurrent reply to batch %d (err %v) differs from the sequential one:\n%s\n%s", k, err, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBatchMixedValidInvalid pins the per-item error semantics: a batch
// with malformed and invalid members still answers 200 with per-item
// statuses, order preserved.
func TestBatchMixedValidInvalid(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	body := `[
		{"kind":"efficiency","efficiency":{"k":3}},
		{"kind":"nope"},
		{"kind":"model","model":{"b":-4}},
		{"bogus":true},
		{"kind":"efficiency","efficiency":{"k":4}}
	]`
	resp, items, sum := postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200 with per-item errors", resp.StatusCode)
	}
	wantStatus := []int{200, 400, 400, 400, 200}
	if len(items) != len(wantStatus) {
		t.Fatalf("%d items, want %d", len(items), len(wantStatus))
	}
	for i, it := range items {
		if it.Status != wantStatus[i] {
			t.Errorf("item %d status %d, want %d (err %q)", i, it.Status, wantStatus[i], it.Error)
		}
		if it.Status != 200 && it.Error == "" {
			t.Errorf("item %d failed without an error message", i)
		}
		if it.Status != 200 && it.Response != nil {
			t.Errorf("item %d failed but carries a response", i)
		}
	}
	if sum == nil || sum.OK != 2 || sum.Errors != 3 || sum.Shed != 0 {
		t.Fatalf("summary = %+v, want 2 ok / 3 errors", sum)
	}
}

// batchRejects are the bodies a batch is refused for as a whole, each
// with its 400 text: the text a json.Decoder split of the request gives.
func batchRejects() []struct{ name, body, want string } {
	const item = `{"kind":"efficiency"}`
	notArray := "batch body must be a JSON array of requests: "
	return []struct{ name, body, want string }{
		{"not an array", item, notArray + "json: cannot unmarshal object into Go value of type []json.RawMessage"},
		{"empty array", `[]`, "empty batch"},
		{"empty body", ``, notArray + "EOF"},
		{"trailing garbage", `[` + item + `] tail`, "trailing data after batch array"},
		{"second array", `[` + item + `][]`, "trailing data after batch array"},
		{"truncated", `[{"kind":"eff`, notArray + "unexpected EOF"},
		{"item cap exceeded", "[" + strings.Repeat(item+",", MaxBatchItems) + item + "]", "batch of 257 items exceeds cap 256"},
		{"trailing comma", `[1,]`, notArray + "invalid character ']' looking for beginning of value"},
		{"byte order mark", "\xef\xbb\xbf[1]", notArray + "invalid character 'ï' looking for beginning of value"},
		{"whitespace only", " \n\t ", notArray + "EOF"},
		{"null", `null`, "empty batch"},
		{"number", `12`, notArray + "json: cannot unmarshal number into Go value of type []json.RawMessage"},
		{"over MaxBatchBytes", "[" + strings.Repeat(item+",", MaxBatchBytes/len(item)) + item + "]", notArray + "http: request body too large"},
		// The split reads up to the cap, but the syntax error comes first.
		{"over MaxBatchBytes, malformed early", "[x" + strings.Repeat(" ", MaxBatchBytes), notArray + "invalid character 'x' looking for beginning of value"},
	}
}

// TestBatchDecoderRejects is the table test for the batch decoder's
// whole-request failure modes: each is a 400 with its own text.
func TestBatchDecoderRejects(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, tc := range batchRejects() {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close() //nolint:errcheck
			var got errorBody
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if want := "serve: bad request: " + tc.want; resp.StatusCode != http.StatusBadRequest || got.Error != want {
				t.Fatalf("status %d %q, want 400 %q", resp.StatusCode, got.Error, want)
			}
		})
	}
	// Scalars decode as RawMessage, so they surface per-item 400s rather
	// than failing the whole batch:
	resp, items, _ := postBatch(t, ts.URL, `[1, {"kind":"efficiency"}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed scalar batch status %d", resp.StatusCode)
	}
	if items[0].Status != 400 || items[1].Status != 200 {
		t.Fatalf("mixed scalar batch statuses = %d,%d want 400,200", items[0].Status, items[1].Status)
	}
}

// TestBatchItemsCarryRetryHints saturates a one-worker, no-queue server
// and asserts shed items carry the per-item Retry-After spelling
// (satellite: per-item retry hints).
func TestBatchItemsCarryRetryHints(t *testing.T) {
	block := make(chan struct{})
	cfg := Config{
		Workers: 1, Queue: -1,
		Evaluator: func(ctx context.Context, req *Request) (any, error) {
			<-block
			return Evaluate(ctx, req)
		},
	}
	s, ts, _ := newTestServer(t, cfg)
	defer close(block)

	// Occupy the only worker slot with a slow single query.
	started := make(chan struct{})
	go func() {
		close(started)
		http.Post(ts.URL+"/v1/query", "application/json", //nolint:errcheck
			strings.NewReader(`{"kind":"efficiency","efficiency":{"k":9}}`))
	}()
	<-started
	waitForAdmitted(t, s, 1)

	resp, items, sum := postBatch(t, ts.URL, `[{"kind":"efficiency","efficiency":{"k":3}},{"kind":"efficiency","efficiency":{"k":4}}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	for i, it := range items {
		if it.Status != http.StatusTooManyRequests {
			t.Fatalf("item %d status %d, want 429", i, it.Status)
		}
		if it.RetryAfterSec < 1 || it.RetryAfterSec > 30 {
			t.Fatalf("item %d retryAfterSec = %d, want within [1, 30]", i, it.RetryAfterSec)
		}
		// One reply, one hint: it is derived once, on the first shed item.
		if it.RetryAfterSec != items[0].RetryAfterSec {
			t.Fatalf("item %d retryAfterSec = %d, item 0 of the same reply says %d", i, it.RetryAfterSec, items[0].RetryAfterSec)
		}
	}
	if sum.Shed != 2 || sum.Errors != 2 {
		t.Fatalf("summary = %+v, want 2 shed", sum)
	}
}

// TestColdBatchDoesNotShedItself: one client, alone, sending one batch
// of distinct cold queries to an idle default server (4 workers, 16
// queue slots) is told 200 for every item. The misses resolve at most
// Workers at a time, so the batch waits for its own items; when every
// unique key raced for the gate at once, the 21st onward shed each other.
func TestColdBatchDoesNotShedItself(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{
		// Long enough that no slot frees up while the rest arrive.
		Evaluator: func(ctx context.Context, req *Request) (any, error) {
			time.Sleep(2 * time.Millisecond)
			return Evaluate(ctx, req)
		},
	})
	const n = 64
	reqs := make([]string, n)
	for i := range reqs {
		reqs[i] = fmt.Sprintf(`{"kind":"model","seed":%d,"model":{"b":20,"k":3,"s":8,"runs":20}}`, i+1)
	}
	resp, items, sum := postBatch(t, ts.URL, "["+strings.Join(reqs, ",")+"]")
	if resp.StatusCode != http.StatusOK || len(items) != n {
		t.Fatalf("batch status %d with %d items", resp.StatusCode, len(items))
	}
	if sum == nil || sum.OK != n || sum.Shed != 0 || sum.Errors != 0 {
		t.Fatalf("summary = %+v, want %d ok: a batch alone on an idle server shed its own items", sum, n)
	}
	for i, it := range items {
		if it.Status != http.StatusOK || it.Cache != "miss" {
			t.Fatalf("item %d: status %d cache %q (%s)", i, it.Status, it.Cache, it.Error)
		}
	}
	if shed, comps := reg.Counter("serve.shed").Value(), reg.Counter("serve.computations").Value(); shed != 0 || comps != n {
		t.Fatalf("serve.shed = %d, serve.computations = %d, want 0 and %d", shed, comps, n)
	}
}

// referenceSplit is the split a json.Decoder makes of the request: the
// array decoded into one json.RawMessage per item, then a token read to
// prove nothing follows it. SplitBatch answers as it does, text for text.
func referenceSplit(r io.Reader) ([]json.RawMessage, error) {
	var items []json.RawMessage
	dec := json.NewDecoder(r)
	if err := dec.Decode(&items); err != nil {
		return nil, fmt.Errorf("%w: batch body must be a JSON array of requests: %v", ErrBadRequest, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after batch array", ErrBadRequest)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	if len(items) > MaxBatchItems {
		return nil, fmt.Errorf("%w: batch of %d items exceeds cap %d", ErrBadRequest, len(items), MaxBatchItems)
	}
	return items, nil
}

// sameSplit splits what read returns with SplitBatch and with
// referenceSplit and fails unless both accept or both reject, with one
// 400 text, the same number of items and each item's same bytes.
func sameSplit(t *testing.T, data []byte, read func() io.Reader) *Batch {
	t.Helper()
	got, err := SplitBatch(read())
	want, werr := referenceSplit(read())
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("%q: SplitBatch error %v, reference %v", data, err, werr)
	case err != nil:
		if err.Error() != werr.Error() {
			t.Fatalf("%q: SplitBatch error %q, reference %q", data, err, werr)
		}
		return nil
	case len(got.Items) != len(want):
		t.Fatalf("%q: SplitBatch gives %d items, reference %d", data, len(got.Items), len(want))
	}
	for i := range want {
		if !bytes.Equal(got.Items[i], want[i]) {
			t.Fatalf("%q: item %d is %q, reference %q", data, i, got.Items[i], want[i])
		}
	}
	return got
}

// FuzzBatchDecode fuzzes the batch decoder end to end (split, decode,
// canonicalize), seeded from the serve canonicalization corpus: the
// request shapes the existing tests exercise, wrapped in arrays, failing
// items ahead of good ones, malformed envelopes, every whole-batch
// rejection and the edges of the array syntax. For every body SplitBatch
// agrees with referenceSplit — read whole, and cut by a byte cap halfway
// as an oversized body is — on accepting it, the 400 text, the item
// count and each item's bytes. For every body it accepts, DecodeBatch's
// outcome for item i is DecodeBatchItem(items[i])'s — the same error
// text, or the same Canonical() and Key() — so one decoder per batch
// answers what one per item did; and every decoded item survives a
// re-marshal with its key.
func FuzzBatchDecode(f *testing.F) {
	seeds := []string{
		`[{"kind":"model","seed":5,"model":{"b":20,"k":3,"s":8,"runs":60}}]`,
		`[{"kind":"efficiency","efficiency":{"k":3}},{"kind":"efficiency","efficiency":{"k":3,"pr":0}}]`,
		`[{"kind":"sim","seed":7,"sim":{"pieces":50,"horizon":100,"seeds":0}}]`,
		`[{"kind":"stability","sim":{"pieces":30}},{"kind":"fluid","fluid":{}}]`,
		`[{"kind":"fluid","fluid":{"model":"chunk","k":20,"s":5}},{"kind":"fluid","fluid":{"model":"qs","lambda":0}}]`,
		`[{"v":1,"kind":"model"},{"v":2,"kind":"model"}]`,
		`[{"kind":"model","model":{"b":-4}},{"bogus":true},42,"str",null]`,
		`[{"kind":"model","model":{"b":"x","k":3}},{"kind":"model","model":{"b":20}}]`,
		`[{"kind":"sim","sim":{"pieces":50,"extra":{"deep":[1,{"b":"x"}]}}},{"kind":"sim","sim":{"pieces":50}}]`,
		`[{"kind":"model","sim":{"pieces":50}},{"kind":"efficiency","efficiency":{"k":3}}]`,
		`[null,{"kind":"fluid"}]`,
		`[1e3,{"kind":"fluid","fluid":{"grid":21}}]`,
		`["str",{"kind":"efficiency","efficiency":{"k":4}}]`,
		`[[1,[2,{"kind":"model"}]],{"kind":"model"}]`,
		`[{"kind":"fluid","fluid":{"lambda":1e400}},{"kind":"fluid","fluid":{"lambda":1}}]`,
		`[]`,
		`[{}]`,
		`[{"kind":"sim","sim":{"lambda":0,"initialPeers":0,"seeds":0}}]`,
		`not json at all`,
		`[{"kind":"efficiency"}] trailing`,
	}
	// The edges of the array itself: whitespace around and between
	// items, strings holding the bytes the split looks for, nesting, and
	// the malformed arrays a scanner could mistake for items.
	seeds = append(seeds,
		" \t\r\n[ \n{\"kind\":\"efficiency\"} ,\t{\"kind\":\"fluid\"}\r\n] \n",
		`[ 1 , "a" ,null,true , [ ] , { } ]`,
		`[{"kind":"model","x":"]"},{"kind":"model","x":","},{"kind":"model","x":"\"],["}]`,
		`[{"kind":"model","x":"\\"},"\\\"]",{"kind":"model","x":"a\\\\"}]`,
		`["[", "{", "}", "]", ",", "\u005d"]`,
		`[[[[]]],[{"a":[1,{"b":[]}]}],[[1],[2]]]`,
		`[1,]`, `[,]`, `[1,,2]`, `[,1]`, `[1 2]`, `[{"a":1,}]`, `["unterminated]`, `["\x"]`,
		"\xef\xbb\xbf[1]", " \n\t ", "[\"\x01\"]", "[\"\xff\"]", `null`, `12`, `true`, `"s"`, `{}`,
	)
	// Every whole-batch rejection, but the two over MaxBatchBytes: every
	// input is also read through a byte cap below, which stands for them.
	for _, tc := range batchRejects() {
		if len(tc.body) < MaxBatchBytes {
			seeds = append(seeds, tc.body)
		}
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameSplit(t, data, func() io.Reader { // a cut body is always refused
			return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(data)), int64(len(data)/2))
		})
		batch := sameSplit(t, data, func() io.Reader { return bytes.NewReader(data) })
		if batch == nil {
			return // whole-batch rejection is a valid outcome
		}
		defer batch.Release()
		items := batch.Items
		next := 0
		DecodeBatch(items, func(i int, req *Request, err error) {
			if i != next {
				t.Fatalf("DecodeBatch reported item %d after %d items", i, next)
			}
			next++
			alone, aerr := DecodeBatchItem(items[i])
			switch {
			case (err == nil) != (aerr == nil):
				t.Fatalf("item %d %s: batch error %v, alone %v", i, items[i], err, aerr)
			case err != nil:
				if err.Error() != aerr.Error() {
					t.Fatalf("item %d %s: batch error %q, alone %q", i, items[i], err, aerr)
				}
				return
			case !bytes.Equal(req.Canonical(), alone.Canonical()) || req.Key() != alone.Key():
				t.Fatalf("item %d %s: batch decodes %s, alone %s", i, items[i], req.Canonical(), alone.Canonical())
			}
			// A canonicalized item must have a stable key and survive a
			// re-marshal/re-canonicalize round trip with the same key (the
			// gateway forwards re-marshaled canonical requests).
			b, merr := json.Marshal(req)
			if merr != nil {
				t.Fatalf("canonical request does not marshal: %v", merr)
			}
			again, derr := DecodeBatchItem(b)
			if derr != nil {
				t.Fatalf("canonical request does not re-decode: %v (body %s)", derr, b)
			}
			if again.Key() != req.Key() {
				t.Fatalf("canonicalization not idempotent: %s -> %s (body %s)", req.Key(), again.Key(), b)
			}
		})
		if next != len(items) {
			t.Fatalf("DecodeBatch reported %d of %d items", next, len(items))
		}
	})
}

// fewest is the fewest bytes one of 20 calls of f allocated.
func fewest(f func()) uint64 {
	var best uint64
	for run := 0; run < 20; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; run == 0 || b < best {
			best = b
		}
	}
	return best
}

// TestSplitBatchAllocationIsFlatInItems: a split reads the body once into
// a pooled buffer and hands its items out as views into it, so splitting
// 256 items costs what splitting 16 does, within one item's bytes. A
// json.Decoder split refilled a buffer to the body's size, copied every
// item into a json.RawMessage of its own and grew the item slice.
func TestSplitBatchAllocationIsFlatInItems(t *testing.T) {
	const item = `{"kind":"efficiency","efficiency":{"k":3}}`
	cost := func(n int) uint64 {
		body := []byte("[" + strings.Repeat(item+",", n-1) + item + "]")
		return fewest(func() {
			batch, err := SplitBatch(bytes.NewReader(body))
			if err != nil || len(batch.Items) != n {
				t.Fatalf("split of %d items: %v", n, err)
			}
			batch.Release()
		})
	}
	small, large := cost(16), cost(256)
	if max(small, large)-min(small, large) >= uint64(len(item)) {
		t.Errorf("splitting 16 items allocates %d B, 256 items %d B: want them within one item's %d B", small, large, len(item))
	}
	t.Logf("allocated per split: %d B for 16 items, %d B for 256", small, large)
}

// TestDecodeBatchAllocatesPerBatch: a batch's items share one decoder and
// its buffer, so a 64-item batch of every kind allocates at most half the
// bytes of decoding each item alone, which builds a reader, a decoder and
// a 512 B buffer per item. What is left is per request: the Request, its
// section and what Canonicalize fills in.
func TestDecodeBatchAllocatesPerBatch(t *testing.T) {
	kinds := []string{
		`{"kind":"model","seed":%d,"model":{"b":20,"k":3,"s":8,"runs":60}}`,
		`{"kind":"efficiency","efficiency":{"k":%d}}`,
		`{"kind":"sim","seed":%d,"sim":{"pieces":50,"horizon":100,"seeds":0}}`,
		`{"kind":"stability","seed":%d,"sim":{"pieces":30,"initialPeers":20,"lambda":1,"horizon":80}}`,
		`{"kind":"fluid","fluid":{"model":"chunk","k":%d,"s":4,"horizon":100,"grid":21}}`,
	}
	items := make([]json.RawMessage, 64)
	for i := range items {
		items[i] = json.RawMessage(fmt.Sprintf(kinds[i%len(kinds)], 2+i))
	}
	DecodeBatch(items, func(i int, _ *Request, err error) {
		if err != nil {
			t.Fatalf("item %d %s: %v", i, items[i], err)
		}
	})
	batch := fewest(func() { DecodeBatch(items, func(int, *Request, error) {}) })
	alone := fewest(func() {
		for _, it := range items {
			_, _ = DecodeBatchItem(it)
		}
	})
	if batch > alone/2 {
		t.Errorf("DecodeBatch allocates %d B for %d items, DecodeBatchItem %d B: want at most half", batch, len(items), alone)
	}
	t.Logf("allocated for %d items: %d B through DecodeBatch, %d B through DecodeBatchItem", len(items), batch, alone)
}

// FuzzItemLine: for any item the replica can emit — a 200 with one of
// the three cache words, a hex key and a body that is encoder output
// (the fuzzer's bytes passed through json.Marshal, as a result's are),
// or a failure whose error text is the fuzzer's bytes verbatim, with or
// without a retry hint — WriteItemLine's line is json.Encoder's.
func FuzzItemLine(f *testing.F) {
	// testdata/fuzz/FuzzItemLine holds the bodies and error texts that need
	// compaction and escaping; these are the edges of the other arguments.
	f.Add(1<<20, 0, uint8(2), []byte("not json \u2028 \xff"))
	f.Add(-1, 5, uint8(0), []byte(""))
	f.Fuzz(func(t *testing.T, index, status int, choice uint8, data []byte) {
		statuses := []int{200, 400, 429, 500, 502, 503, 504}
		it := BatchItem{Type: "item", Index: index, Status: statuses[uint(status)%uint(len(statuses))]}
		if it.Status == http.StatusOK {
			body, err := json.Marshal(json.RawMessage(data))
			if err != nil {
				body, _ = json.Marshal(string(data))
			}
			sum := sha256.Sum256(data)
			it.Key, it.Cache, it.Response = hex.EncodeToString(sum[:]), []string{"hit", "miss", "shared"}[choice%3], body
		} else {
			it.Error, it.RetryAfterSec = string(data), int(choice%4)*int(choice%31)
		}
		var got, want bytes.Buffer
		bw := bufio.NewWriterSize(&got, 64) // small: a line straddles flushes
		WriteItemLine(bw, &it)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&want).Encode(it); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteItemLine differs from json.Encoder:\n got %q\nwant %q", got.Bytes(), want.Bytes())
		}
	})
}

// FuzzEnvelope pins the one envelope writer: for any request the
// decoder accepts, of every kind and any seed, with its Evaluate result
// cached as the replica caches it (json.Marshal of the result alone),
// the envelope /v1/query writes is json.Marshal(&Response{…}) and a
// newline, and the 200 batch line around it is json.Encoder's.
// Evaluations that outrun a short deadline are skipped.
func FuzzEnvelope(f *testing.F) {
	for _, s := range []string{
		`{"kind":"model","seed":5,"model":{"b":20,"k":3,"s":8,"runs":20}}`,
		`{"kind":"model","seed":18446744073709551615,"model":{"b":10,"runs":5,"pInit":0}}`,
		`{"kind":"efficiency","efficiency":{"k":5}}`,
		`{"kind":"efficiency","seed":9,"efficiency":{"k":3,"pr":0}}`,
		`{"kind":"sim","seed":7,"sim":{"pieces":20,"initialPeers":30,"horizon":40}}`,
		`{"kind":"stability","seed":1,"sim":{"pieces":20,"initialPeers":20,"lambda":1,"horizon":40}}`,
		`{"kind":"fluid","seed":3,"fluid":{"horizon":50,"grid":20}}`,
		`{"kind":"fluid","fluid":{"model":"chunk","k":8,"s":4,"horizon":50,"grid":20}}`,
		`{"kind":"fluid","fluid":{"lambda":0,"x0":0,"y0":0,"horizon":10}}`,
	} {
		f.Add([]byte(s), 0, uint8(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, index int, choice uint8) {
		req, err := DecodeRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		result, err := Evaluate(ctx, req)
		if err != nil {
			return
		}
		cached, err := json.Marshal(result)
		if err != nil {
			t.Fatalf("%s: result does not marshal: %v", data, err)
		}
		want, err := json.Marshal(&Response{V: req.V, Kind: req.Kind, Seed: req.Seed, Key: req.Key(), Result: result})
		if err != nil {
			t.Fatal(err)
		}
		k := keyOf(req)
		var got bytes.Buffer
		bw := bufio.NewWriterSize(&got, 64) // small: an envelope straddles flushes
		writeEnvelope(bw, &k, cached)
		_ = bw.WriteByte('\n')
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("envelope differs from json.Marshal(&Response{…}):\n got %q\nwant %q", got.Bytes(), want)
		}

		it := BatchItem{Type: "item", Index: index, Status: http.StatusOK, Key: k.key, Cache: []string{"hit", "miss", "shared"}[choice%3]}
		var line, wantLine bytes.Buffer
		bw.Reset(&line)
		it.Response = cached
		writeItemLine(bw, &it, &k)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		it.Response = bytes.TrimSuffix(want, []byte("\n"))
		if err := json.NewEncoder(&wantLine).Encode(it); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line.Bytes(), wantLine.Bytes()) {
			t.Fatalf("item line differs from json.Encoder:\n got %q\nwant %q", line.Bytes(), wantLine.Bytes())
		}
	})
}

// waitForAdmitted polls until the gate reports n admitted requests.
func waitForAdmitted(t *testing.T, s *Server, n int) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if s.gate.Admitted() >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("gate never reached %d admitted", n)
}
