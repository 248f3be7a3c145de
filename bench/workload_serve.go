package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/serve"
)

// Traffic shape shared by the serve workloads: btload's corpus and mix.
const (
	batchItems = 64
	// sampleEvery is how often a cold response is kept for re-derivation.
	sampleEvery = 64
)

// mixBlock is btload's default mix (model 2, efficiency 5, sim 1,
// fluid 2) as one interleaved block of ten, so every ten consecutive
// operations carry the exact weights whatever the seed.
var mixBlock = [10]string{
	serve.KindEfficiency, serve.KindModel, serve.KindEfficiency, serve.KindFluid, serve.KindEfficiency,
	serve.KindSim, serve.KindEfficiency, serve.KindModel, serve.KindEfficiency, serve.KindFluid,
}

// appendQuery appends the request body of kind with parameter index i
// (0 ≤ i < scale.keysPerKind) and the given seed: btload's corpus entries,
// with the seed free so a cold workload can make every key new.
func appendQuery(b []byte, kind string, i int, seed uint64) []byte {
	b = append(b, `{"kind":"`...)
	b = append(b, kind...)
	b = append(b, `","seed":`...)
	b = strconv.AppendUint(b, seed, 10)
	switch kind {
	case serve.KindModel:
		b = append(b, `,"model":{"b":16,"k":3,"s":6,"runs":20}}`...)
	case serve.KindEfficiency:
		b = append(b, `,"efficiency":{"k":`...)
		b = strconv.AppendInt(b, int64(2+i), 10)
		b = append(b, `}}`...)
	case serve.KindSim:
		b = append(b, `,"sim":{"pieces":16,"horizon":30,"maxPeers":64}}`...)
	case serve.KindFluid:
		b = append(b, `,"fluid":{"horizon":`...)
		b = strconv.AppendInt(b, int64(20+i%10), 10)
		b = append(b, `}}`...)
	}
	return b
}

// distQuery is serve_dist's request: a 256-run ensemble, eight shards
// of serve.DefaultShardRuns.
func appendDistQuery(b []byte, seed uint64) []byte {
	b = append(b, `{"kind":"model","seed":`...)
	b = strconv.AppendUint(b, seed, 10)
	return append(b, `,"model":{"b":100,"k":7,"s":40,"runs":256}}`...)
}

// corpusEntry is one warm-corpus request and the response it must get.
type corpusEntry struct {
	name string // "kind/i", the key in reference.json
	body []byte
	want []byte
}

// warmCorpus is btload's key space: scale.keysPerKind bodies per kind. The
// seed of entry i is i, except that efficiency entries differ by k.
func warmCorpus() []corpusEntry {
	var out []corpusEntry
	for _, kind := range []string{serve.KindModel, serve.KindEfficiency, serve.KindSim, serve.KindFluid} {
		for i := 0; i < scale.keysPerKind; i++ {
			seed := uint64(i)
			if kind == serve.KindEfficiency {
				seed = 0
			}
			out = append(out, corpusEntry{
				name: fmt.Sprintf("%s/%d", kind, i),
				body: appendQuery(nil, kind, i, seed),
			})
		}
	}
	return out
}

// weightedOrder lists corpus indices with the mix's weights (each key
// of a kind appears weight times), shuffled by the seed.
func weightedOrder(seed uint64) []int {
	n := scale.keysPerKind // warmCorpus' layout: n bodies per kind, in this order
	kindBase := map[string]int{serve.KindModel: 0, serve.KindEfficiency: n, serve.KindSim: 2 * n, serve.KindFluid: 3 * n}
	var order []int
	for i := 0; i < n; i++ {
		for _, kind := range mixBlock {
			order = append(order, kindBase[kind]+i)
		}
	}
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

type serveMode int

const (
	modeHot serveMode = iota
	modeBatch
	modeCold
	modeDist
)

// batch is one /v1/batch body and the exact response it must get.
type batch struct {
	body, want []byte
}

// coldSample is a request/response pair kept for re-derivation.
type coldSample struct{ req, resp []byte }

// serveInstance is a set-up serving stack plus the closed loop's state.
type serveInstance struct {
	mode  serveMode
	st    *stack
	tr    *tracing
	seed  uint64
	calls int // measure calls so far; the first is the warm-up

	corpus  []corpusEntry
	order   []int
	batches []batch

	cursor  [clients]uint64 // per-client position, kept across windows
	mu      sync.Mutex
	samples []coldSample
	traceID atomic.Uint64

	counters map[string]int64 // registry deltas over measured windows
}

func serveSetup(mode serveMode) func(seed uint64, tr *tracing) (instance, error) {
	return func(seed uint64, tr *tracing) (instance, error) {
		replicas, workers := 2, 0
		if mode == modeDist {
			replicas, workers = 1, 2
		}
		st, err := newStack(replicas, workers, tr)
		if err != nil {
			return nil, err
		}
		s := &serveInstance{mode: mode, st: st, tr: tr, seed: seed, counters: map[string]int64{}}
		if mode == modeHot || mode == modeBatch {
			if err := s.warm(); err != nil {
				st.close()
				return nil, err
			}
		}
		return s, nil
	}
}

// conn is one closed-loop client: a reusable response buffer over the
// stack's shared keep-alive transport.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

// post sends one POST and leaves the response body in c.buf. A
// non-empty traceID is sent as the benchmark's trace headers.
func (c *conn) post(url string, body []byte, traceID, parent string) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
		req.Header.Set("X-Parent-Span", parent)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}

// warm primes every corpus key through the gateway, keeping each
// response as the bytes later hits must equal, and for serve_batch
// builds the batch bodies and verifies each one's response item by
// item.
func (s *serveInstance) warm() error {
	s.corpus = warmCorpus()
	s.order = weightedOrder(s.seed)
	c := &conn{client: s.st.client}
	for i := range s.corpus {
		e := &s.corpus[i]
		status, err := c.post(s.st.gatewayURL+"/v1/query", e.body, "", "")
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm %s: status %d: %v", e.name, status, err)
		}
		e.want = append([]byte(nil), c.buf.Bytes()...)
	}
	if s.mode != modeBatch {
		return nil
	}
	// Batches are consecutive runs of the shuffled weighted order, so the
	// set of batches holds every corpus entry equally often whatever the
	// seed: the seed moves items between batches, not work in or out.
	for b := 0; b < scale.distinctBatches; b++ {
		picks := make([]int, batchItems)
		items := make([]json.RawMessage, batchItems)
		for i := range picks {
			picks[i] = s.order[(b*batchItems+i)%len(s.order)]
			items[i] = s.corpus[picks[i]].body
		}
		body, err := json.Marshal(items)
		if err != nil {
			return err
		}
		status, err := c.post(s.st.gatewayURL+"/v1/batch", body, "", "")
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm batch %d: status %d: %v", b, status, err)
		}
		want := append([]byte(nil), c.buf.Bytes()...)
		if err := s.verifyBatch(want, picks); err != nil {
			return fmt.Errorf("warm batch %d: %w", b, err)
		}
		s.batches = append(s.batches, batch{body: body, want: want})
	}
	return nil
}

// verifyBatch checks a JSONL batch response line by line: every item in
// input order, status 200, and carrying exactly the bytes /v1/query
// answered for the same request.
func (s *serveInstance) verifyBatch(resp []byte, picks []int) error {
	lines := bytes.Split(bytes.TrimSuffix(resp, []byte("\n")), []byte("\n"))
	if len(lines) != len(picks)+1 {
		return fmt.Errorf("%d lines for %d items", len(lines), len(picks))
	}
	for i, idx := range picks {
		var it serve.BatchItem
		if err := json.Unmarshal(lines[i], &it); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
		want := bytes.TrimSuffix(s.corpus[idx].want, []byte("\n"))
		if it.Type != "item" || it.Index != i || it.Status != http.StatusOK || !bytes.Equal(it.Response, want) {
			return fmt.Errorf("item %d (%s): type %q index %d status %d, response differs from /v1/query: %v",
				i, s.corpus[idx].name, it.Type, it.Index, it.Status, !bytes.Equal(it.Response, want))
		}
	}
	var sum serve.BatchSummary
	if err := json.Unmarshal(lines[len(picks)], &sum); err != nil {
		return fmt.Errorf("summary: %w", err)
	}
	if sum.Type != "summary" || sum.Items != len(picks) || sum.OK != len(picks) {
		return fmt.Errorf("summary %+v for %d items", sum, len(picks))
	}
	return nil
}

func (s *serveInstance) measure(d time.Duration, lat *[]float64) (ops, failed int64, secs float64) {
	traced := s.tr != nil && s.calls > 0
	var before map[string]int64
	var upstreamBefore int64
	if traced {
		before = s.tr.reg.Snapshot().Counters
		upstreamBefore = s.tr.upstreamCalls.Load()
	}
	var (
		wg       sync.WaitGroup
		lats     [clients][]float64
		opsN     [clients]int64
		failedN  [clients]int64
		start    = time.Now()
		deadline = start.Add(d)
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := &conn{client: s.st.client}
			var body []byte
			for time.Now().Before(deadline) {
				i := s.cursor[c]
				s.cursor[c]++
				n := i*clients + uint64(c) // this client's global op number
				var (
					path  = "/v1/query"
					want  []byte
					items = int64(1)
				)
				switch s.mode {
				case modeHot:
					// The clients walk the same shuffled order half a lap apart.
					e := &s.corpus[s.order[(i+uint64(c*len(s.order)/clients))%uint64(len(s.order))]]
					body, want = e.body, e.want
				case modeBatch:
					b := &s.batches[n%uint64(len(s.batches))]
					path, body, want, items = "/v1/batch", b.body, b.want, batchItems
				case modeCold:
					// Never-seen seed per op; the parameter index walks the
					// corpus' range so the work mix equals the warm corpus'.
					body = appendQuery(body[:0], mixBlock[n%10], int(n/10)%scale.keysPerKind, s.seed<<32+n)
				case modeDist:
					body = appendDistQuery(body[:0], s.seed<<32+n)
				}
				var traceID, parent string
				var sp *trace.Span
				if traced {
					traceID = "b" + strconv.FormatUint(s.traceID.Add(1), 16)
					_, sp = trace.Start(trace.Bind(context.Background(), s.tr.coll, "client", traceID, ""), spanClient)
					parent = sp.ID()
				}
				t0 := time.Now()
				status, err := cn.post(s.st.gatewayURL+path, body, traceID, parent)
				el := time.Since(t0)
				sp.End()
				lats[c] = append(lats[c], float64(el.Nanoseconds())/1e6)
				opsN[c] += items
				switch {
				case err != nil || status != http.StatusOK:
					failedN[c] += items
				case want != nil && !bytes.Equal(cn.buf.Bytes(), want):
					failedN[c] += items
				case want == nil && n%sampleEvery == 0:
					s.mu.Lock()
					s.samples = append(s.samples, coldSample{
						req:  append([]byte(nil), body...),
						resp: append([]byte(nil), cn.buf.Bytes()...),
					})
					s.mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	secs = time.Since(start).Seconds()
	for c := 0; c < clients; c++ {
		*lat = append(*lat, lats[c]...)
		ops += opsN[c]
		failed += failedN[c]
	}
	if traced {
		for name, v := range s.tr.reg.Snapshot().Counters {
			s.counters[name] += v - before[name]
		}
		s.counters["bench.ops"] += ops
		s.counters["bench.exchanges"] += int64(len(lats[0]) + len(lats[1]))
		s.counters["bench.upstream"] += s.tr.upstreamCalls.Load() - upstreamBefore
	}
	s.calls++
	return ops, failed, secs
}

// verify checks content address ⇒ identical bytes outside the windows:
// for the warm corpus, each response against reference.json's digest,
// through the gateway and from each replica directly; for the cold
// workloads, each sampled response against an in-process serve.Evaluate
// of the same request.
func (s *serveInstance) verify() (checked, failed int64) {
	c := &conn{client: s.st.client}
	for i := range s.corpus {
		e := &s.corpus[i]
		for _, base := range append([]string{s.st.gatewayURL}, s.st.replicas...) {
			checked++
			status, err := c.post(base+"/v1/query", e.body, "", "")
			if err != nil || status != http.StatusOK || !bytes.Equal(c.buf.Bytes(), e.want) {
				failed++
			}
		}
		checked++
		if !checkCorpus(e.name, e.want) {
			failed++
		}
	}
	for _, sm := range s.samples {
		checked++
		want, err := evaluateLocally(sm.req)
		if err != nil || !bytes.Equal(sm.resp, want) {
			failed++
		}
	}
	return checked, failed
}

// evaluateLocally derives the /v1/query response bytes for a request
// body in this process, the way a replica would.
func evaluateLocally(body []byte) ([]byte, error) {
	req, err := serve.DecodeBatchItem(body)
	if err != nil {
		return nil, err
	}
	result, err := serve.Evaluate(context.Background(), req)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(&serve.Response{V: req.V, Kind: req.Kind, Seed: req.Seed, Key: req.Key(), Result: result})
	return append(b, '\n'), err
}

func checkCorpus(name string, body []byte) bool {
	if writingRefer {
		if ref.Corpus == nil {
			ref.Corpus = map[string]string{}
		}
		ref.Corpus[name] = digest(body)
		return true
	}
	return ref.Corpus[name] == digest(body)
}

// layers turns the traced windows' spans and counters into per-layer
// metrics. Times are per request: the median over requests of each
// layer's share of the client's wall-clock time.
func (s *serveInstance) layers(out metrics) {
	spans := s.tr.coll.Spans()
	roots := forest(spans, benchSpan)
	self := map[string][]float64{}  // layer → per-request self share, ms
	total := map[string][]float64{} // layer → per-request time under its spans, ms
	var requests []struct{ dur, sum float64 }
	for _, root := range roots {
		if root.name != spanClient {
			continue
		}
		sf, tt := map[string]float64{}, map[string]float64{}
		root.attribute(1, sf, tt)
		sum := 0.0
		for _, v := range sf {
			sum += v
		}
		requests = append(requests, struct{ dur, sum float64 }{float64(root.dur()) / 1e3, sum / 1e3})
		for _, name := range []string{spanClient, spanGateway, spanUpstream, spanReplica, spanDistRun} {
			self[name] = append(self[name], sf[name]/1e3)
			total[name] = append(total[name], tt[name]/1e3)
		}
		for name, v := range tt {
			if strings.HasPrefix(name, spanEvalPrefix) {
				total[name] = append(total[name], v/1e3)
				self[name] = append(self[name], sf[name]/1e3)
			}
		}
	}
	out.set("http.client_hop_ms", median(self[spanClient]), "ms")
	out.set("gateway.self_ms", median(self[spanGateway]), "ms")
	out.set("gateway.upstream_ms", median(total[spanUpstream]), "ms")
	out.set("http.replica_hop_ms", median(self[spanUpstream]), "ms")
	out.set("serve.handler_self_ms", median(self[spanReplica]), "ms")
	for _, kind := range []string{serve.KindModel, serve.KindEfficiency, serve.KindSim, serve.KindFluid} {
		out.set("serve.eval_ms."+kind, median(total[spanEvalPrefix+kind]), "ms")
	}
	if s.mode == modeDist {
		out.set("dist.run_ms", median(total[spanDistRun]), "ms")
		out.set("dist.self_ms", median(self[spanDistRun]), "ms")
		out.set("dist.merge_ms", median(self[spanEvalPrefix+serve.KindModel]), "ms")
		var shard []float64
		for _, sd := range spans {
			if sd.Name == spanWorkerEval {
				shard = append(shard, float64(sd.DurUS)/1e3)
			}
		}
		out.set("dist.worker_eval_ms", median(shard), "ms")
		if tasks := float64(s.tr.poolTasks.Load()); tasks > 0 {
			out.set("dist.shards_per_task", float64(s.tr.poolShards.Load())/tasks, "count")
			out.set("dist.payload_kb_per_task", float64(s.tr.poolBytes.Load())/1024/tasks, "KB")
		}
		results := float64(max(s.counters["dist.results"], 1))
		out.set("dist.wasted_share", float64(s.counters["dist.duplicate_results"]+s.counters["dist.late_results"])/results, "share")
		out.set("dist.reassignments", float64(s.counters["dist.reassignments"]), "count")
		out.set("dist.hedges", float64(s.counters["dist.hedges"]), "count")
	}
	// The median request: its spans' shares must add up to what the
	// client's own stopwatch saw.
	if len(requests) > 0 {
		sort.Slice(requests, func(i, j int) bool { return requests[i].dur < requests[j].dur })
		out.set("trace.request_sum_ms", requests[(len(requests)+1)/2-1].sum, "ms") // nearest rank, as p50_ms
	}

	ops := float64(max(s.counters["bench.ops"], 1))
	lookups := float64(max(s.counters["serve.cache.hits"]+s.counters["serve.cache.misses"], 1))
	out.set("serve.cache_hit_ratio", float64(s.counters["serve.cache.hits"])/lookups, "share")
	out.set("serve.evictions_per_op", float64(s.counters["serve.cache.evictions"])/ops, "count")
	out.set("serve.computations_per_op", float64(s.counters["serve.computations"])/ops, "count")
	out.set("serve.shed", float64(s.counters["serve.shed"]), "count")
	out.set("gateway.spills", float64(s.counters["gateway.spills"]), "count")
	out.set("gateway.fill_hits", float64(s.counters["gateway.fill.hits"]), "count")
	out.set("gateway.retries", float64(s.counters["gateway.retries"]), "count")
	if s.mode == modeBatch {
		out.set("gateway.subrequests_per_batch", float64(s.counters["bench.upstream"])/float64(max(s.counters["bench.exchanges"], 1)), "count")
	}
}

func (s *serveInstance) close() { s.st.close() }
