package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// deadReplica returns the URL of a listener that has gone away: every
// dial is refused.
func deadReplica() string {
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close()
	return dead.URL
}

// keyOf is the content address the gateway routes body by.
func keyOf(t *testing.T, body string) string {
	t.Helper()
	req, err := serve.DecodeBatchItem([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return req.Key()
}

// TestGatewayCallerGoneDoesNotStrike: clients that give up while their
// replicas are still legitimately computing say nothing about the
// replicas. Their forwards fail with the clients' own cancellation, and
// must neither strike the target nor be "retried" on the successors —
// where the same cancellation would fail them at once and strike those
// too, until a few impatient clients had quarantined a healthy tier.
func TestGatewayCallerGoneDoesNotStrike(t *testing.T) {
	slow := func() string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// The server watches for a dropped connection only once the body
			// is read.
			_, _ = io.Copy(io.Discard, r.Body)
			select { // healthy, but slower than its callers are patient
			case <-r.Context().Done():
			case <-time.After(5 * time.Second):
			}
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	_, gw, reg := newGateway(t, Config{Replicas: []string{slow(), slow()}})

	const clients = 3
	impatient := &http.Client{Timeout: 100 * time.Millisecond}
	for i := 0; i < clients; i++ {
		body := fmt.Sprintf(`{"kind":"efficiency","efficiency":{"k":%d}}`, i+2)
		resp, err := impatient.Post(gw+"/v1/query", "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close() //nolint:errcheck
			t.Fatalf("client %d got status %d from a replica that never answers", i, resp.StatusCode)
		}
	}
	// The handlers outlive their clients by the time it takes the gateway
	// to notice; each observes its latency on the way out.
	for deadline := time.Now().Add(5 * time.Second); reg.Histogram("gateway.latency_ms").Snapshot().Count < clients; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("gateway handlers never returned after their clients left")
		}
	}
	snap := reg.Snapshot()
	if s, r := snap.Counters["gateway.strikes"], snap.Counters["gateway.retries"]; s != 0 || r != 0 {
		t.Errorf("gateway.strikes = %d, gateway.retries = %d after %d callers gave up; want 0 and 0", s, r, clients)
	}
	if q := healthzQuarantined(t, gw); q != 0 {
		t.Errorf("%d healthy replicas quarantined by their callers' timeouts", q)
	}
}

// TestGatewayStreamFailsOverBeforeFirstByte: a stream whose home replica
// refuses the connection is served whole by the ring successor — the
// client sees a normal stream, the dead replica one strike.
func TestGatewayStreamFailsOverBeforeFirstByte(t *testing.T) {
	_, live := newReplica(t, serve.Config{})
	replicas := []string{deadReplica(), live}
	ring, err := NewRing(replicas, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A stream homed on the dead replica: ownership follows the URL hashes
	// (ephemeral ports), so search the seeds for one.
	var body string
	for seed := 1; ; seed++ {
		body = fmt.Sprintf(`{"kind":"sim","seed":%d,"sim":{"pieces":20,"initialPeers":15,"lambda":1,"horizon":40}}`, seed)
		if ring.Owner(keyOf(t, body)) == 0 {
			break
		}
	}
	_, gw, reg := newGateway(t, Config{Replicas: replicas})

	resp, got := post(t, gw, "/v1/stream", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, got)
	}
	if r := resp.Header.Get("X-Replica"); r != live {
		t.Errorf("stream served by %q, want the live replica %q", r, live)
	}
	_, direct := post(t, live, "/v1/stream", body)
	if !bytes.Equal(got, direct) {
		t.Errorf("stream through the gateway differs from the live replica's own:\n%s\n%s", got, direct)
	}
	lines := bytes.Split(bytes.TrimSpace(got), []byte("\n"))
	if last := lines[len(lines)-1]; len(lines) < 2 || !bytes.HasPrefix(last, []byte(`{"type":"result"`)) {
		t.Errorf("stream of %d lines ends in %s, want rounds then a result", len(lines), last)
	}
	if s := reg.Snapshot().Counters["gateway.strikes"]; s != 1 {
		t.Errorf("gateway.strikes = %d, want 1 (the refused dial)", s)
	}
}

// TestGatewayBatchFailsOverTruncatedReply: a replica that dies mid-reply
// — one whole item line, half of the next, then the connection drops —
// has answered nothing. Its sub-batch is replayed on the successor, and
// every item of the batch comes back 200 with exactly the bytes a direct
// query returns, for one strike.
func TestGatewayBatchFailsOverTruncatedReply(t *testing.T) {
	_, live := newReplica(t, serve.Config{})
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `{"type":"item","index":0,"status":200,"key":"k","cache":"miss","response":{"v":1}}`+"\n"+`{"type":"item","ind`)
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // drop the connection under the reply
	}))
	defer dying.Close()
	_, gw, reg := newGateway(t, Config{Replicas: []string{dying.URL, live}})

	// 24 keys: some home on each replica, whatever the ports hash to.
	var singles []string
	for k := 2; k < 26; k++ {
		singles = append(singles, fmt.Sprintf(`{"kind":"efficiency","efficiency":{"k":%d}}`, k))
	}
	resp, body := post(t, gw, "/v1/batch", "["+strings.Join(singles, ",")+"]")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	items, sum := parseBatch(t, body)
	if len(items) != len(singles) || sum.OK != len(singles) || sum.Errors != 0 {
		t.Fatalf("%d items, summary %+v; want %d, all ok", len(items), sum, len(singles))
	}
	for i, it := range items {
		if it.Index != i || it.Status != http.StatusOK {
			t.Fatalf("item %d: index %d status %d (%s)", i, it.Index, it.Status, it.Error)
		}
		_, direct := post(t, live, "/v1/query", singles[i])
		if !bytes.Equal(it.Response, bytes.TrimSuffix(direct, []byte("\n"))) {
			t.Errorf("item %d differs from the direct query:\n%s\n%s", i, it.Response, direct)
		}
	}
	snap := reg.Snapshot()
	if s, r := snap.Counters["gateway.strikes"], snap.Counters["gateway.retries"]; s != 1 || r != 1 {
		t.Errorf("gateway.strikes = %d, gateway.retries = %d, want 1 and 1 (the one truncated sub-batch)", s, r)
	}
}

// emitted is what writeLine writes for index and rest, newline included.
func emitted(index int, rest []byte) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, 16) // the line straddles flushes
	writeLine(bw, index, rest)
	_ = bw.Flush()
	return buf.Bytes()
}

// TestItemLinePrefixRead is the property behind the batch relay: for any
// BatchItem — payloads that themselves spell "index": and "status":
// included — the routing fields read off the fixed prefix of its
// marshaled line are the item's own, and the line emitted under a new
// index is the same item with only Index changed. Lines without that exact prefix are
// rejected, never guessed at.
func TestItemLinePrefixRead(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	decoys := []string{
		``, `plain`, `"index":7,"status":3`, `{"type":"item","index":9,"status":1}`,
		`,"status":500,`, "line\nbreak", `back\slash "quoted"`, `{"type":"summary"`,
	}
	pick := func() string { return decoys[rng.Intn(len(decoys))] }
	for n := 0; n < 2000; n++ {
		item := serve.BatchItem{
			Type:   "item",
			Index:  rng.Intn(1 << 20),
			Status: []int{200, 400, 429, 500, 502, 503, 504}[rng.Intn(7)],
			Key:    pick(), Cache: pick(), Error: pick(),
			RetryAfterSec: rng.Intn(3) * rng.Intn(31),
		}
		if rng.Intn(2) == 0 {
			payload, _ := json.Marshal(map[string]any{"index": rng.Intn(99), "status": pick(), "type": "item", "nested": map[string]int{"index": 1, "status": 2}})
			item.Response = payload
		}
		line, err := json.Marshal(item)
		if err != nil {
			t.Fatal(err)
		}
		index, status, rest, ok := splitItemLine(line)
		if !ok || index != item.Index || status != item.Status {
			t.Fatalf("prefix read of %s = (%d, %d, %v), want (%d, %d, true)", line, index, status, ok, item.Index, item.Status)
		}
		want := item
		want.Index = rng.Intn(1 << 20)
		var got serve.BatchItem
		if err := json.Unmarshal(emitted(want.Index, rest), &got); err != nil {
			t.Fatalf("re-indexed line %s does not parse: %v", emitted(want.Index, rest), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("re-indexing %s to %d changed more than the index:\n got %+v\nwant %+v", line, want.Index, got, want)
		}
	}
	for _, line := range []string{
		``,
		`{}`,
		`{"type":"summary","items":2,"ok":2,"errors":0,"shed":0}`,
		`{"index":0,"type":"item","status":200}`,           // reordered
		`{"type":"item","status":200,"index":0}`,           // reordered
		`{"type":"item","index":0}`,                        // no status
		`{"type":"item","index":0,"key":"k"}`,              // no status
		`{"type":"item","index":,"status":200}`,            // no index
		`{"type":"item","index":-1,"status":200}`,          // not a position
		`{"type":"item","index":0,"status":}`,              // no status value
		`{"type":"item","index":0,"status":200`,            // cut after the digits
		`{"type":"item","index":0,"status":200x}`,          // not a number
		`{"type":"item","index":0,"status":"200"}`,         // not a number
		`{"type": "item","index":0,"status":200}`,          // not the encoder's spelling
		`{"type":"item","index":12345678901,"status":200}`, // wider than any position
		` {"type":"item","index":0,"status":200}`,
	} {
		if index, status, _, ok := splitItemLine([]byte(line)); ok {
			t.Errorf("splitItemLine(%q) accepted a line without the fixed prefix: index %d status %d", line, index, status)
		}
	}
}

// TestItemLineWriterMatchesEncoder ties the two ends of the batch
// exchange to one line shape. For every item a replica can emit — a 200
// whose body is a real cached envelope of each request kind, or a decoy
// that spells "index": and "status": itself, under a hex key and one of
// the three cache words; a failure whose error text needs every escape
// encoding/json has, with and without a retry hint — the line
// serve.WriteItemLine writes (copying the body, never scanning it) is
// byte for byte json.Encoder's, splitItemLine reads the item's own index
// and status off it, and the line emitted under a new index is the
// encoder's line for the same item at that index.
func TestItemLineWriterMatchesEncoder(t *testing.T) {
	_, live := newReplica(t, serve.Config{})
	var bodies [][]byte
	for _, q := range []string{
		qBody,
		`{"kind":"efficiency","efficiency":{"k":5}}`,
		`{"kind":"sim","seed":7,"sim":{"pieces":20,"initialPeers":30,"horizon":40}}`,
		`{"kind":"fluid","fluid":{"horizon":50}}`,
		`{"kind":"fluid","fluid":{"model":"chunk","k":8,"s":4,"horizon":50}}`,
	} {
		resp, b := post(t, live, "/v1/query", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", q, resp.StatusCode)
		}
		bodies = append(bodies, bytes.TrimSuffix(b, []byte("\n")))
	}
	rng := rand.New(rand.NewSource(23))
	texts := []string{
		`plain`, `"quoted" back\slash`, `<script>&amp;</script>`, "line\nbreak\ttab", "sep\u2028\u2029",
		"bad utf8 \xff\xfe", `{"type":"item","index":9,"status":200}`, `,"status":500,`, ``,
	}
	encoded := func(it serve.BatchItem) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(it); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for n := 0; n < 3000; n++ {
		item := serve.BatchItem{Type: "item", Index: rng.Intn(1<<20 + 1)}
		if rng.Intn(3) > 0 {
			key := make([]byte, 32)
			rng.Read(key)
			item.Status, item.Key, item.Cache = http.StatusOK, fmt.Sprintf("%x", key), []string{"hit", "miss", "shared"}[rng.Intn(3)]
			if item.Response = bodies[rng.Intn(len(bodies))]; rng.Intn(3) == 0 {
				item.Response, _ = json.Marshal(map[string]any{
					"index": rng.Intn(99), "status": texts[rng.Intn(len(texts))], "type": "item",
					"nested": map[string]any{"index": 1, "status": 2, "response": json.RawMessage(item.Response)},
				})
			}
		} else {
			item.Status = []int{400, 429, 500, 502, 503, 504}[rng.Intn(6)]
			item.Error = texts[rng.Intn(len(texts))] + texts[rng.Intn(len(texts))]
			item.RetryAfterSec = rng.Intn(2) * rng.Intn(31)
		}
		var buf bytes.Buffer
		bw := bufio.NewWriterSize(&buf, 16+rng.Intn(4096)) // lines straddle flushes
		serve.WriteItemLine(bw, &item)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		line := buf.Bytes()
		if want := encoded(item); !bytes.Equal(line, want) {
			t.Fatalf("written line differs from json.Encoder's:\n got %s\nwant %s", line, want)
		}
		line = bytes.TrimSuffix(line, []byte("\n")) // as the gateway's line scanner hands it over
		index, status, rest, ok := splitItemLine(line)
		if !ok || index != item.Index || status != item.Status {
			t.Fatalf("prefix read of %s = (%d, %d, %v), want (%d, %d, true)", line, index, status, ok, item.Index, item.Status)
		}
		item.Index = rng.Intn(1 << 20)
		if got, want := emitted(item.Index, rest), encoded(item); !bytes.Equal(got, want) {
			t.Fatalf("re-indexed line differs from the encoder's at index %d:\n got %s\nwant %s", item.Index, got, want)
		}
	}
}
