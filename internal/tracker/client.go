package tracker

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/bencode"
	"repro/internal/obs"
	"repro/internal/retry"
)

// AnnounceRequest carries the parameters of one tracker announce.
type AnnounceRequest struct {
	AnnounceURL string
	// Tiers, when non-empty, is a BEP 12-style failover list: tier 0 is
	// tried first (its URLs in order), then tier 1, and so on. When set
	// it takes precedence over AnnounceURL; include the primary URL in
	// tier 0 to keep it first.
	Tiers      [][]string
	InfoHash   [20]byte
	PeerID     [20]byte
	Port       int
	Uploaded   int64
	Downloaded int64
	Left       int64
	Event      Event
	NumWant    int
}

// AnnounceResponse is the tracker's reply.
type AnnounceResponse struct {
	Interval time.Duration
	// MinInterval, when non-zero, is the shortest gap the tracker will
	// tolerate between announces (BEP 3 "min interval").
	MinInterval time.Duration
	// Warning is BEP 3's "warning message": the announce succeeded, the
	// tracker wants a human to read this.
	Warning string
	// TrackerID is BEP 3's "tracker id"; Client echoes the last one seen
	// from an announce URL as trackerid on later announces to it.
	TrackerID string
	Seeders   int
	Leechers  int
	Peers     []PeerInfo
}

// ErrTrackerFailure wraps a tracker-reported failure reason. It is not
// retried: the tracker answered, it just said no.
var ErrTrackerFailure = errors.New("tracker: announce failed")

// ErrAllTiersFailed wraps the last error after every announce tier was
// exhausted.
var ErrAllTiersFailed = errors.New("tracker: all announce tiers failed")

// Client performs announces over HTTP (http://host/announce) and BEP 15
// UDP (udp://host:port), with per-URL retry and multi-tier failover. The
// zero value works: single attempt per URL, default transports.
type Client struct {
	// HTTP is the underlying client; http.DefaultClient when nil.
	HTTP *http.Client
	// Retry is applied per announce URL. The zero value performs a
	// single attempt.
	Retry retry.Policy
	// Jitter randomizes backoff delays; nil disables jitter. Use
	// retry.LockedRand around a seeded stats.RNG for deterministic,
	// concurrency-safe jitter.
	Jitter retry.Rand
	// Metrics, when non-nil, receives the client-side announce counters
	// under the "tracker_client." namespace: attempts, retries, giveups,
	// failovers.
	Metrics *obs.Registry

	metOnce   sync.Once
	retryMet  *retry.Metrics
	failovers *obs.Counter

	idMu       sync.Mutex
	trackerIDs map[string]string // announce URL -> last "tracker id" it sent
}

func (c *Client) metrics() *retry.Metrics {
	c.metOnce.Do(func() {
		c.retryMet = retry.NewMetrics(c.Metrics, "tracker_client.")
		c.failovers = c.Metrics.Counter("tracker_client.failovers")
	})
	return c.retryMet
}

// retryable reports whether an announce error is worth another attempt:
// transport failures are, tracker-reported failure reasons are not.
func retryable(err error) bool {
	return !errors.Is(err, ErrTrackerFailure)
}

// Announce contacts the tracker and parses the peer list, retrying each
// URL per the policy and failing over across tiers when configured.
func (c *Client) Announce(ctx context.Context, req AnnounceRequest) (*AnnounceResponse, error) {
	if len(req.Tiers) == 0 {
		return c.announceURL(ctx, req.AnnounceURL, req)
	}
	c.metrics() // creates c.failovers for the loop below
	var lastErr error
	tried := 0
	for _, tier := range req.Tiers {
		for _, u := range tier {
			if u == "" {
				continue
			}
			if tried > 0 {
				c.failovers.Inc()
			}
			tried++
			resp, err := c.announceURL(ctx, u, req)
			if err == nil {
				return resp, nil
			}
			lastErr = err
			if ctx.Err() != nil {
				return nil, fmt.Errorf("%w: %v", ErrAllTiersFailed, lastErr)
			}
		}
	}
	if lastErr == nil {
		return nil, fmt.Errorf("%w: no announce URLs", ErrAllTiersFailed)
	}
	return nil, fmt.Errorf("%w: %v", ErrAllTiersFailed, lastErr)
}

// announceURL performs the retry loop for one announce URL. The URL is
// parsed once up front: malformed URLs fail immediately instead of
// burning retry attempts.
func (c *Client) announceURL(ctx context.Context, announceURL string, req AnnounceRequest) (*AnnounceResponse, error) {
	u, err := url.Parse(announceURL)
	if err != nil {
		return nil, fmt.Errorf("tracker: parse announce url: %w", err)
	}
	p := c.Retry
	if p.Retryable == nil {
		p.Retryable = retryable
	}
	return retry.DoValue(ctx, p, c.Jitter, c.metrics(),
		func(ctx context.Context) (*AnnounceResponse, error) {
			return c.announceOnce(ctx, u, req)
		})
}

// announceOnce performs a single announce round trip.
func (c *Client) announceOnce(ctx context.Context, parsed *url.URL, req AnnounceRequest) (*AnnounceResponse, error) {
	u := *parsed // the query is mutated below; keep the original clean
	if u.Scheme == "udp" {
		return announceUDP(ctx, u.Host, req)
	}
	q := url.Values{}
	q.Set("info_hash", string(req.InfoHash[:]))
	q.Set("peer_id", string(req.PeerID[:]))
	q.Set("port", strconv.Itoa(req.Port))
	q.Set("uploaded", strconv.FormatInt(req.Uploaded, 10))
	q.Set("downloaded", strconv.FormatInt(req.Downloaded, 10))
	q.Set("left", strconv.FormatInt(req.Left, 10))
	q.Set("compact", "1")
	if req.Event != EventNone {
		q.Set("event", string(req.Event))
	}
	if req.NumWant > 0 {
		q.Set("numwant", strconv.Itoa(req.NumWant))
	}
	announceURL := parsed.String()
	c.idMu.Lock()
	trackerID := c.trackerIDs[announceURL]
	c.idMu.Unlock()
	if trackerID != "" {
		q.Set("trackerid", trackerID)
	}
	u.RawQuery = q.Encode()

	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, fmt.Errorf("tracker: build request: %w", err)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(httpReq)
	if err != nil {
		return nil, fmt.Errorf("tracker: announce: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("tracker: read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("tracker: http status %d", resp.StatusCode)
	}
	out, err := parseAnnounceResponse(body)
	if err == nil && out.TrackerID != "" {
		c.idMu.Lock()
		if c.trackerIDs == nil {
			c.trackerIDs = make(map[string]string)
		}
		c.trackerIDs[announceURL] = out.TrackerID
		c.idMu.Unlock()
	}
	return out, err
}

// maxIntervalSeconds bounds "interval" and "min interval": a year, far
// past any real tracker's and far short of overflowing a time.Duration.
const maxIntervalSeconds = 365 * 24 * 3600

func parseAnnounceResponse(body []byte) (*AnnounceResponse, error) {
	v, err := bencode.Decode(body)
	if err != nil {
		return nil, fmt.Errorf("tracker: decode response: %w", err)
	}
	d, err := bencode.AsDict(v)
	if err != nil {
		return nil, err
	}
	if reason, err := d.String("failure reason"); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrTrackerFailure, reason)
	}
	interval, err := d.Int("interval")
	if err != nil {
		return nil, err
	}
	minInterval, _ := d.Int("min interval") // optional: absent reads 0
	if interval < 0 || interval > maxIntervalSeconds || minInterval < 0 || minInterval > maxIntervalSeconds {
		return nil, fmt.Errorf("tracker: interval %d / min interval %d outside [0, %d] seconds", interval, minInterval, maxIntervalSeconds)
	}
	peers, err := parsePeers(d["peers"])
	if err != nil {
		return nil, err
	}
	out := &AnnounceResponse{
		Interval:    time.Duration(interval) * time.Second,
		MinInterval: time.Duration(minInterval) * time.Second,
		Peers:       peers,
	}
	out.Warning, _ = d.String("warning message")
	out.TrackerID, _ = d.String("tracker id")
	if n, err := d.Int("complete"); err == nil {
		out.Seeders = int(n)
	}
	if n, err := d.Int("incomplete"); err == nil {
		out.Leechers = int(n)
	}
	return out, nil
}

// parsePeers reads an announce reply's "peers" value in either form BEP 3
// trackers send: the compact string (6 bytes a peer), or a list of
// {ip, port, peer id} dictionaries (peer id absent under no_peer_id).
// Anything else — a missing key included — is an error.
func parsePeers(v any) ([]PeerInfo, error) {
	switch v := v.(type) {
	case string:
		return ParseCompactPeers([]byte(v))
	case []any:
		out := make([]PeerInfo, 0, len(v))
		for i, e := range v {
			pd, err := bencode.AsDict(e)
			if err != nil {
				return nil, fmt.Errorf("tracker: peer %d: %w", i, err)
			}
			host, err := pd.String("ip")
			if err != nil {
				return nil, fmt.Errorf("tracker: peer %d: %w", i, err)
			}
			p := PeerInfo{IP: net.ParseIP(host)}
			if p.IP == nil {
				return nil, fmt.Errorf("tracker: peer %d: ip %q is not an address", i, host)
			}
			if ip4 := p.IP.To4(); ip4 != nil {
				p.IP = ip4 // the form ParseCompactPeers yields
			}
			port, err := pd.Int("port")
			if err != nil || port < 1 || port > 65535 {
				return nil, fmt.Errorf("tracker: peer %d: bad port", i)
			}
			p.Port = int(port)
			if id, err := pd.String("peer id"); err == nil {
				if p.ID, err = exact20(id); err != nil {
					return nil, fmt.Errorf("tracker: peer %d: peer id: %w", i, err)
				}
			}
			out = append(out, p)
		}
		return out, nil
	}
	return nil, fmt.Errorf("tracker: peers is %T, want compact string or list", v)
}
