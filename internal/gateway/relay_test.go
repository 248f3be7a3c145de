package gateway

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve"
)

// TestGatewayConcurrentBatchesMatchDirectBytes: batches relayed at once
// through one gateway each come back as exactly the reply a replica
// gives directly. Every line is a view into its sub-batch's pooled reply
// buffer until the summary is flushed; a buffer back in the pool any
// sooner is read into by another batch, and its lines change under the
// emit loop.
func TestGatewayConcurrentBatchesMatchDirectBytes(t *testing.T) {
	_, urlA := newReplica(t, serve.Config{})
	_, urlB := newReplica(t, serve.Config{})
	_, gw, _ := newGateway(t, Config{Replicas: []string{urlA, urlB}})

	const clients, perClient, rounds = 8, 3, 4
	batches := make([]string, clients*perClient)
	for b := range batches {
		var items []string
		for i := 0; i < 12+b%5; i++ {
			switch i % 3 {
			case 0:
				items = append(items, fmt.Sprintf(`{"kind":"efficiency","seed":%d,"efficiency":{"k":%d}}`, b, 2+i))
			case 1:
				items = append(items, fmt.Sprintf(`{"kind":"model","seed":%d,"model":{"b":20,"k":3,"s":8,"runs":%d}}`, b*100+i, 5+i))
			default:
				items = append(items, `{"kind":"nope"}`) // answered by the gateway itself
			}
		}
		batches[b] = "[" + strings.Join(items, ",") + "]"
	}
	// Warm both replicas, so that every item is a cache hit wherever the
	// ring sends it and the direct reply is the one the gateway must give.
	want := make([][]byte, len(batches))
	for b, batch := range batches {
		post(t, urlA, "/v1/batch", batch)
		post(t, urlB, "/v1/batch", batch)
		_, want[b] = post(t, urlA, "/v1/batch", batch)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for b := c * perClient; b < (c+1)*perClient; b++ {
					resp, err := http.Post(gw+"/v1/batch", "application/json", strings.NewReader(batches[b]))
					if err != nil {
						errs <- err
						return
					}
					got, err := io.ReadAll(resp.Body)
					resp.Body.Close() //nolint:errcheck
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(got, want[b]) {
						errs <- fmt.Errorf("batch %d, round %d: gateway reply differs from the direct one:\n got %s\nwant %s", b, r, got, want[b])
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// discard is a ResponseWriter that keeps nothing, so that what a relay
// allocates is the gateway's.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(int)             {}

// TestBatchRelayAllocationIsFlatInLineSize: what the gateway allocates
// to relay a batch does not grow with the size of the reply's lines. A
// stub replica answers 16 items with payloads of 32 B and then of 32 KB
// (a reply of ~2 KB and of ~512 KB); the bytes allocated per batch may
// differ by less than a quarter of the replies' difference. A relay that
// copied each line, or scanned the reply through a buffer of its own,
// allocates the difference at least once.
func TestBatchRelayAllocationIsFlatInLineSize(t *testing.T) {
	const items = 16
	reply := func(payload int) []byte {
		var b bytes.Buffer
		for i := 0; i < items; i++ {
			fmt.Fprintf(&b, `{"type":"item","index":%d,"status":200,"key":"k","cache":"hit","response":{"pad":"%s"}}`+"\n",
				i, strings.Repeat("x", payload))
		}
		fmt.Fprintf(&b, `{"type":"summary","items":%d,"ok":%d,"errors":0,"shed":0}`+"\n", items, items)
		return b.Bytes()
	}
	small, large := reply(32), reply(32<<10)
	var answer []byte // set before each measurement, read by the stub only
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Length", fmt.Sprint(len(answer)))
		_, _ = w.Write(answer)
	}))
	defer stub.Close()
	g, _, _ := newGateway(t, Config{Replicas: []string{stub.URL}})

	var batch []string
	for i := 0; i < items; i++ {
		batch = append(batch, fmt.Sprintf(`{"kind":"efficiency","efficiency":{"k":%d}}`, 2+i))
	}
	body := "[" + strings.Join(batch, ",") + "]"
	relay := func() {
		w := &discard{h: http.Header{}}
		g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)))
	}
	// perBatch is the fewest bytes one of 20 batches allocated: a batch
	// whose reply buffer missed the pool — a GC emptied it, the sub-batch
	// ran on another P, or the race detector dropped the buffer on purpose
	// — regrows it, and is not the relay's steady cost.
	perBatch := func(r []byte) uint64 {
		answer = r
		relay() // warm the pools
		var best uint64
		for run := 0; run < 20; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			relay()
			runtime.ReadMemStats(&after)
			if b := after.TotalAlloc - before.TotalAlloc; run == 0 || b < best {
				best = b
			}
		}
		return best
	}
	s, l := perBatch(small), perBatch(large)
	grown := int64(l) - int64(s)
	if limit := int64(len(large)-len(small)) / 4; grown > limit {
		t.Errorf("a batch allocates %d B with %d B of reply lines and %d B with %d B: %d B more, want under %d",
			s, len(small), l, len(large), grown, limit)
	}
	t.Logf("allocated per batch: %d B (reply %d B), %d B (reply %d B)", s, len(small), l, len(large))
}
