// Command btload is the deterministic load generator and SLO gate for
// the serving tier. It drives a btgate (or a bare btserve) with a
// seeded mix of model / efficiency / sim / fluid traffic at a target
// rate, records exact latency quantiles, and exits non-zero when any
// configured SLO is violated — the CI gate for the gateway tier.
//
// Usage:
//
//	btload -target http://127.0.0.1:8080 -duration 10s -rate 5000
//	btload -target ... -replicas http://r1,http://r2 -check-divergence 16 \
//	       -slo-p99-ms 250 -max-error-rate 0 -max-shed-rate 0.05 -min-rate 20000
//
// Determinism: the same -seed, -mix, -keys, and worker count issue the
// same request sequence per worker; the corpus of request bodies is a
// pure function of the flags. Two runs differ only in timing.
//
// The report (JSON on stdout) carries exact nearest-rank quantiles
// computed from every recorded sample — the numbers the SLO gates use.
// The servers' /metrics quantiles are obs.Histogram estimates and agree
// with these to within a factor of two (see obs.Histogram).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	var (
		target      = flag.String("target", "", "base URL to load (btgate or btserve; required)")
		replicas    = flag.String("replicas", "", "comma-separated replica base URLs for the divergence check")
		duration    = flag.Duration("duration", 10*time.Second, "measured load duration")
		rate        = flag.Float64("rate", 0, "target request rate in req/s (0 = as fast as the workers go)")
		concurrency = flag.Int("concurrency", 16, "concurrent load workers")
		seed        = flag.Int64("seed", 1, "RNG seed; same seed + flags = same request sequence")
		mix         = flag.String("mix", "model=2,efficiency=5,sim=1,fluid=2", "traffic mix weights by kind")
		keys        = flag.Int("keys", 64, "distinct request bodies per kind (the key space)")
		batchSize   = flag.Int("batch-size", 0, "items per /v1/batch op (0 disables batch traffic)")
		batchFrac   = flag.Float64("batch-frac", 0.1, "fraction of ops sent as batches under -batch-size")
		sloP99      = flag.Float64("slo-p99-ms", 0, "fail if exact p99 latency exceeds this many ms (0 = off)")
		maxErrRate  = flag.Float64("max-error-rate", -1, "fail if the non-2xx, non-429 fraction exceeds this (negative = off)")
		maxShedRate = flag.Float64("max-shed-rate", -1, "fail if the 429 fraction exceeds this (negative = off)")
		minRate     = flag.Float64("min-rate", 0, "fail if achieved throughput (req/s, batch items included) is below this (0 = off)")
		divergence  = flag.Int("check-divergence", 0, "after the run, byte-compare this many sampled keys between -target and every -replicas entry (0 = off)")
	)
	flag.Parse()
	if *target == "" {
		fmt.Fprintln(os.Stderr, "btload: -target is required")
		os.Exit(2)
	}
	rep, err := loadRun(context.Background(), loadOptions{
		target: *target, replicas: splitList(*replicas),
		duration: *duration, rate: *rate, concurrency: *concurrency,
		seed: *seed, mix: *mix, keys: *keys,
		batchSize: *batchSize, batchFrac: *batchFrac,
		sloP99:     *sloP99,
		maxErrRate: *maxErrRate, maxShedRate: *maxShedRate, minRate: *minRate,
		divergence: *divergence,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "btload: %v\n", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
	if len(rep.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "btload: SLO violations: %s\n", strings.Join(rep.Violations, "; "))
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value, dropping empty parts.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

type loadOptions struct {
	target      string
	replicas    []string
	duration    time.Duration
	rate        float64
	concurrency int
	seed        int64
	mix         string
	keys        int
	batchSize   int
	batchFrac   float64
	sloP99      float64
	maxErrRate  float64
	maxShedRate float64
	minRate     float64
	divergence  int
}

// report is btload's JSON output.
type report struct {
	Target    string  `json:"target"`
	Duration  string  `json:"duration"`
	Requests  int64   `json:"requests"` // HTTP exchanges issued
	Items     int64   `json:"items"`    // logical queries (batch items counted individually)
	Rate      float64 `json:"rate"`     // achieved items/s over the measured window
	OK        int64   `json:"ok"`
	Shed      int64   `json:"shed"`   // 429s
	Errors    int64   `json:"errors"` // everything else non-2xx, plus transport failures
	CacheHits int64   `json:"cacheHits"`

	// Exact quantiles over every recorded per-exchange latency.
	P50Ms float64 `json:"p50Ms"`
	P95Ms float64 `json:"p95Ms"`
	P99Ms float64 `json:"p99Ms"`
	MaxMs float64 `json:"maxMs"`

	DivergenceChecked int `json:"divergenceChecked,omitempty"`
	DivergenceFailed  int `json:"divergenceFailed,omitempty"`

	Violations []string `json:"violations,omitempty"`
}

// corpusEntry is one pre-marshaled request body.
type corpusEntry struct {
	kind string
	body []byte
}

// buildCorpus derives the deterministic request space from the flags:
// n bodies per kind, parameters varied by index. Small parameter sizes
// keep a cold compute in the low milliseconds so the load regime is
// cache-dominated after warmup.
func buildCorpus(mix string, n int) ([]corpusEntry, error) {
	weights := map[string]int{}
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -mix entry %q (want kind=weight)", part)
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad -mix weight %q", part)
		}
		weights[kv[0]] = w
	}
	gen := map[string]func(i int) []byte{
		"model": func(i int) []byte {
			return []byte(fmt.Sprintf(`{"kind":"model","seed":%d,"model":{"b":16,"k":3,"s":6,"runs":20}}`, i))
		},
		"efficiency": func(i int) []byte {
			return []byte(fmt.Sprintf(`{"kind":"efficiency","efficiency":{"k":%d}}`, 2+i))
		},
		"sim": func(i int) []byte {
			return []byte(fmt.Sprintf(`{"kind":"sim","seed":%d,"sim":{"pieces":16,"horizon":30,"maxPeers":64}}`, i))
		},
		"fluid": func(i int) []byte {
			return []byte(fmt.Sprintf(`{"kind":"fluid","seed":%d,"fluid":{"horizon":%d}}`, i, 20+i%10))
		},
	}
	var corpus []corpusEntry
	for _, kind := range []string{"model", "efficiency", "sim", "fluid"} { // fixed order: determinism
		w := weights[kind]
		delete(weights, kind)
		if w == 0 {
			continue
		}
		for rep := 0; rep < w; rep++ {
			for i := 0; i < n; i++ {
				corpus = append(corpus, corpusEntry{kind: kind, body: gen[kind](i)})
			}
		}
	}
	for kind := range weights {
		return nil, fmt.Errorf("unknown kind %q in -mix", kind)
	}
	if len(corpus) == 0 {
		return nil, fmt.Errorf("empty traffic mix %q", mix)
	}
	return corpus, nil
}

// loadRun executes the whole benchmark: warmup, measured load, SLO
// evaluation, and the optional divergence check.
func loadRun(ctx context.Context, o loadOptions) (*report, error) {
	if o.concurrency <= 0 {
		o.concurrency = 1
	}
	if o.keys <= 0 {
		o.keys = 1
	}
	corpus, err := buildCorpus(o.mix, o.keys)
	if err != nil {
		return nil, err
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = o.concurrency * 2
	tr.MaxIdleConnsPerHost = o.concurrency * 2
	client := &http.Client{Transport: tr, Timeout: 2 * time.Minute}

	// The distinct request bodies, sorted so the divergence sample is
	// reproducible.
	uniq := map[string][]byte{}
	for _, e := range corpus {
		uniq[string(e.body)] = e.body
	}
	bodies := make([][]byte, 0, len(uniq))
	for _, b := range uniq {
		bodies = append(bodies, b)
	}
	sort.Slice(bodies, func(i, j int) bool { return bytes.Compare(bodies[i], bodies[j]) < 0 })
	if err := warm(ctx, client, o.target, bodies, o.concurrency); err != nil {
		return nil, err
	}

	rep := &report{Target: o.target, Duration: o.duration.String()}
	var requests, items, ok, shed, errs, hits atomic.Int64
	var issued atomic.Int64
	lats := make([][]float64, o.concurrency) // per-worker: no contention

	start := time.Now()
	deadline := start.Add(o.duration)
	interval := time.Duration(0)
	if o.rate > 0 {
		interval = time.Duration(float64(time.Second) / o.rate)
	}
	var wg sync.WaitGroup
	for w := 0; w < o.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.seed + int64(w)*7919))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				if interval > 0 {
					// Global pacing: the nth exchange is due at start+n·interval,
					// whichever worker picks it up.
					due := start.Add(time.Duration(issued.Add(1)-1) * interval)
					if d := time.Until(due); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							return
						}
					}
					if !time.Now().Before(deadline) {
						return
					}
				}
				isBatch := o.batchSize > 0 && rng.Float64() < o.batchFrac
				var (
					status  int
					cache   string
					nitems  int64 = 1
					elapsed time.Duration
					err     error
				)
				if isBatch {
					picks := make([]json.RawMessage, o.batchSize)
					for i := range picks {
						picks[i] = json.RawMessage(corpus[rng.Intn(len(corpus))].body)
					}
					body, _ := json.Marshal(picks)
					t0 := time.Now()
					status, _, _, err = postOnce(ctx, client, o.target+"/v1/batch", body)
					elapsed = time.Since(t0)
					nitems = int64(o.batchSize)
				} else {
					e := corpus[rng.Intn(len(corpus))]
					t0 := time.Now()
					status, cache, _, err = postOnce(ctx, client, o.target+"/v1/query", e.body)
					elapsed = time.Since(t0)
				}
				requests.Add(1)
				items.Add(nitems)
				ms := float64(elapsed.Nanoseconds()) / 1e6
				lats[w] = append(lats[w], ms)
				switch {
				case err != nil:
					errs.Add(1)
				case status == http.StatusOK:
					ok.Add(1)
					if cache == "hit" {
						hits.Add(1)
					}
				case status == http.StatusTooManyRequests:
					shed.Add(1)
				default:
					errs.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Float64s(all)
	rep.Requests = requests.Load()
	rep.Items = items.Load()
	rep.OK = ok.Load()
	rep.Shed = shed.Load()
	rep.Errors = errs.Load()
	rep.CacheHits = hits.Load()
	rep.Rate = float64(rep.Items) / elapsed.Seconds()
	rep.P50Ms = exactQuantile(all, 0.50)
	rep.P95Ms = exactQuantile(all, 0.95)
	rep.P99Ms = exactQuantile(all, 0.99)
	if len(all) > 0 {
		rep.MaxMs = all[len(all)-1]
	}

	if o.divergence > 0 && len(o.replicas) > 0 {
		checked, failed, err := checkDivergence(ctx, client, o, bodies)
		if err != nil {
			return nil, err
		}
		rep.DivergenceChecked, rep.DivergenceFailed = checked, failed
		if failed > 0 {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("%d/%d sampled keys returned different bytes via gateway vs direct replica", failed, checked))
		}
	}

	total := float64(rep.Requests)
	if total == 0 {
		rep.Violations = append(rep.Violations, "no requests completed")
	} else {
		if o.sloP99 > 0 && rep.P99Ms > o.sloP99 {
			rep.Violations = append(rep.Violations, fmt.Sprintf("p99 %.2fms > SLO %.2fms", rep.P99Ms, o.sloP99))
		}
		if o.maxErrRate >= 0 {
			if r := float64(rep.Errors) / total; r > o.maxErrRate {
				rep.Violations = append(rep.Violations, fmt.Sprintf("error rate %.4f > budget %.4f", r, o.maxErrRate))
			}
		}
		if o.maxShedRate >= 0 {
			if r := float64(rep.Shed) / total; r > o.maxShedRate {
				rep.Violations = append(rep.Violations, fmt.Sprintf("shed (429) rate %.4f > budget %.4f", r, o.maxShedRate))
			}
		}
		if o.minRate > 0 && rep.Rate < o.minRate {
			rep.Violations = append(rep.Violations, fmt.Sprintf("achieved rate %.0f req/s < floor %.0f req/s", rep.Rate, o.minRate))
		}
	}
	return rep, nil
}

// postOnce issues one POST and returns (status, X-Cache header, body).
func postOnce(ctx context.Context, client *http.Client, url string, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close() //nolint:errcheck
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), b, nil
}

// warm primes every distinct key once (serially per worker slice) so
// the measured window exercises the cached-traffic regime the
// acceptance gate is about. A failure is fatal: a target that cannot
// serve the corpus once is not worth measuring.
func warm(ctx context.Context, client *http.Client, target string, bodies [][]byte, concurrency int) error {
	var werr error
	var wmu sync.Mutex
	var wg sync.WaitGroup
	per := (len(bodies) + concurrency - 1) / concurrency
	for w := 0; w < concurrency && w*per < len(bodies); w++ {
		wg.Add(1)
		go func(slice [][]byte) {
			defer wg.Done()
			for _, b := range slice {
				status, _, _, err := postOnce(ctx, client, target+"/v1/query", b)
				if err == nil && status != http.StatusOK && status != http.StatusTooManyRequests {
					err = fmt.Errorf("warmup status %d", status)
				}
				if err != nil {
					wmu.Lock()
					werr = fmt.Errorf("warmup: %w", err)
					wmu.Unlock()
					return
				}
			}
		}(bodies[w*per : min(len(bodies), (w+1)*per)])
	}
	wg.Wait()
	return werr
}

// checkDivergence replays a deterministic sample of the sorted distinct
// bodies through the gateway and directly against every replica,
// byte-comparing the responses. After warmup every path serves cached
// bytes, so any difference is a real determinism break, not a race.
func checkDivergence(ctx context.Context, client *http.Client, o loadOptions, bodies [][]byte) (checked, failed int, err error) {
	rng := rand.New(rand.NewSource(o.seed ^ 0x5ca1ab1e))
	n := min(o.divergence, len(bodies))
	for _, i := range rng.Perm(len(bodies))[:n] {
		body := bodies[i]
		checked++
		status, _, viaGateway, gerr := postOnce(ctx, client, o.target+"/v1/query", body)
		if gerr != nil || status != http.StatusOK {
			return checked, failed, fmt.Errorf("divergence check: gateway query failed (status %d): %v", status, gerr)
		}
		for _, r := range o.replicas {
			status, _, direct, derr := postOnce(ctx, client, r+"/v1/query", body)
			if derr != nil || status != http.StatusOK {
				return checked, failed, fmt.Errorf("divergence check: replica %s query failed (status %d): %v", r, status, derr)
			}
			if !bytes.Equal(viaGateway, direct) {
				failed++
				break
			}
		}
	}
	return checked, failed, nil
}

// exactQuantile is the nearest-rank quantile over sorted samples.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
