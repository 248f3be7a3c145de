package client

import (
	"context"
	cryptorand "crypto/rand"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/health"
	"repro/internal/metainfo"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracker"
	"repro/internal/wire"
)

// Fixed policy: bounds on what a peer or tracker controls, which no
// binary, example or test needs to vary (DESIGN §4 says why each value).
const (
	// dialTimeout bounds each outbound TCP dial.
	dialTimeout = 3 * time.Second
	// writeTimeout bounds each wire message write and the handshake
	// exchange, so a stalled peer cannot wedge the event loop.
	writeTimeout = 10 * time.Second
	// announceTimeout bounds one tracker announce, including its retries.
	announceTimeout = 5 * time.Second
	// stopAnnounceTimeout bounds the best-effort "stopped" announce
	// during Stop.
	stopAnnounceTimeout = 2 * time.Second
	// banThreshold is how many offenses (corrupt pieces, stalled request
	// pipelines) an address may accumulate before it is banned.
	banThreshold = 2
	// banDuration is the base ban window; bans escalate by doubling and
	// offenses decay after a clean window.
	banDuration = time.Minute
	// maxAnnounceBackoff caps the degraded-mode stretch of the
	// re-announce interval at 2^3 = 8x.
	maxAnnounceBackoff = 3
)

var (
	// announceRetry is the per-URL tracker retry policy.
	announceRetry = retry.Policy{
		MaxAttempts: 3,
		BaseDelay:   200 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Jitter:      0.25,
	}
	// dialRetry bounds dial+handshake tries per peer address.
	dialRetry = retry.Policy{
		MaxAttempts: 2,
		BaseDelay:   250 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Jitter:      0.25,
	}
)

// Config parameterizes a Client.
type Config struct {
	// Torrent identifies the swarm (announce URL + geometry + infohash).
	Torrent *metainfo.Torrent
	// Storage backs the download; pre-seeded storage makes this client a
	// seed. Use NewStorage/NewSeededStorage for in-memory stores or
	// NewFileStorage for disk-backed downloads with resume.
	Storage *Storage
	// ListenAddr is the TCP listen address (default "127.0.0.1:0").
	ListenAddr string
	// MaxPeers caps the connected peer set (the neighbor set size s).
	MaxPeers int
	// MaxUploads is k, the number of simultaneously unchoked peers.
	MaxUploads int
	// BlockSize is the request granularity (default 16 KiB).
	BlockSize int
	// Strategy selects the piece picker.
	Strategy PickStrategy
	// AvoidSeeds makes the client never request from complete peers —
	// the paper's strict-tit-for-tat measurement methodology (§4.2).
	AvoidSeeds bool
	// ShakeThreshold, when positive, drops the whole peer set at the
	// given completion fraction and refreshes it from the tracker (§7.1).
	ShakeThreshold float64
	// ChokeInterval is the choker period (default 1 s).
	ChokeInterval time.Duration
	// SampleInterval is the instrumentation period (default 250 ms).
	SampleInterval time.Duration
	// AnnounceInterval re-contacts the tracker (default 10 s). The
	// interval the tracker advertises is deliberately not read: loopback
	// swarms announce every 150-500 ms against a tracker default of 120 s,
	// so the configured cadence wins. Its "min interval" is a floor: no
	// periodic announce goes out sooner. Consecutive announce failures
	// stretch it (see reannounceDelay).
	AnnounceInterval time.Duration
	// RequestTimeout drops a connection whose outstanding block requests
	// have made no progress for this long, releasing its piece for
	// re-assignment (default 30 s).
	RequestTimeout time.Duration
	// ConnWrapper, when non-nil, wraps every peer connection (inbound and
	// outbound) before the handshake — the fault-injection hook (see
	// internal/faults.Injector.WrapConn).
	ConnWrapper func(net.Conn) net.Conn
	// DisableEndgame turns off endgame mode. By default, when every
	// missing piece is already assigned to some connection, an idle
	// unchoked connection duplicates an in-flight piece so one stalled
	// peer cannot delay completion; redundant deliveries are cancelled.
	DisableEndgame bool
	// UploadRate caps served payload bytes per second (0 = unlimited).
	// Loopback swarms need a cap for their timing dynamics (choking,
	// interest churn, potential-set evolution) to resemble bandwidth-
	// constrained real swarms.
	UploadRate int64
	// Seed1, Seed2 seed the client's deterministic RNG.
	Seed1, Seed2 uint64
	// Name labels the client in traces.
	Name string
	// Metrics, when non-nil, receives the client's wire and lifecycle
	// counters under the "client.<Name>." namespace. Nil disables
	// counting.
	Metrics *obs.Registry
	// Logger receives structured lifecycle events (connects, shakes,
	// completion). Nil discards them.
	Logger *slog.Logger
}

func (c *Config) setDefaults() error {
	if c.Torrent == nil || c.Storage == nil {
		return errors.New("client: Torrent and Storage are required")
	}
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.MaxPeers == 0 {
		c.MaxPeers = 20
	}
	if c.MaxUploads == 0 {
		c.MaxUploads = 4
	}
	if c.BlockSize == 0 {
		c.BlockSize = 16 << 10
	}
	if c.Strategy == 0 {
		c.Strategy = PickRarestFirst
	}
	if c.ChokeInterval == 0 {
		c.ChokeInterval = time.Second
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = 250 * time.Millisecond
	}
	if c.AnnounceInterval == 0 {
		c.AnnounceInterval = 10 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Name == "" {
		c.Name = "bitphase"
	}
	if c.MaxPeers < 1 || c.MaxUploads < 1 || c.BlockSize < 1 {
		return fmt.Errorf("client: bad limits %d/%d/%d", c.MaxPeers, c.MaxUploads, c.BlockSize)
	}
	if c.ShakeThreshold < 0 || c.ShakeThreshold > 1 {
		return fmt.Errorf("client: bad shake threshold %g", c.ShakeThreshold)
	}
	return nil
}

// peerID derives the client's 20-byte id: "-BP0001-" and twelve letters
// drawn from the seeds, or from crypto/rand when no seed is set, so two
// default-configured clients (e.g. btmake + btget on one machine) never
// collide at the tracker.
func peerID(seed1, seed2 uint64) ([20]byte, error) {
	var id [20]byte
	copy(id[:], "-BP0001-")
	if seed1 == 0 && seed2 == 0 {
		if _, err := cryptorand.Read(id[8:]); err != nil {
			return id, fmt.Errorf("client: derive peer id: %w", err)
		}
		for i := 8; i < 20; i++ {
			id[i] = 'a' + id[i]%26
		}
		return id, nil
	}
	r := stats.NewRNG(seed1^0x5eed, seed2+0x1d)
	for i := 8; i < 20; i++ {
		id[i] = byte('a' + r.IntN(26))
	}
	return id, nil
}

// Client is one running swarm participant.
type Client struct {
	cfg      Config
	peerID   [20]byte
	storage  *Storage
	rng      *stats.RNG
	listener net.Listener
	trClient *tracker.Client
	met      *clientMetrics
	log      *slog.Logger

	events chan connEvent
	cmds   chan func()
	stopCh chan struct{}
	doneWG sync.WaitGroup

	// dialCtx cancels outbound dial/retry loops when the client stops.
	dialCtx    context.Context
	dialCancel context.CancelFunc

	// Event-loop-confined state.
	conns    map[*peerConn]struct{}
	bans     *health.Book[string]
	picker   *picker
	limiter  *uploadLimiter
	shaken   bool
	started  time.Time
	samples  []trace.Sample
	announce struct {
		inflight bool
		// failures counts consecutive announce failures; the re-announce
		// interval stretches with it (degraded mode) and it resets on the
		// first success.
		failures int
		// minInterval is the last tracker reply's "min interval", the
		// shortest re-announce delay it allows.
		minInterval time.Duration
		// timer fires the next periodic re-announce; eventLoop owns it.
		timer *time.Timer
	}

	completeOnce sync.Once
	completeCh   chan struct{}

	stopOnce sync.Once
}

// New validates the configuration and prepares a client. Call Start to
// join the swarm.
func New(cfg Config) (*Client, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	stInfo := cfg.Storage.Info()
	if stInfo.NumPieces() != cfg.Torrent.Info.NumPieces() {
		return nil, errors.New("client: storage does not match torrent")
	}
	id, err := peerID(cfg.Seed1, cfg.Seed2)
	if err != nil {
		return nil, err
	}
	dialCtx, dialCancel := context.WithCancel(context.Background())
	return &Client{
		cfg:     cfg,
		peerID:  id,
		storage: cfg.Storage,
		rng:     stats.NewRNG(cfg.Seed1, cfg.Seed2),
		trClient: &tracker.Client{
			Retry:   announceRetry,
			Jitter:  retry.LockedRand(stats.NewRNG(cfg.Seed1^0xbacc0ff, cfg.Seed2+0x717)),
			Metrics: cfg.Metrics,
		},
		met:        newClientMetrics(cfg.Metrics, cfg.Name),
		log:        obs.Component(obs.OrNop(cfg.Logger), "client").With("name", cfg.Name),
		events:     make(chan connEvent, 256),
		cmds:       make(chan func(), 32),
		stopCh:     make(chan struct{}),
		dialCtx:    dialCtx,
		dialCancel: dialCancel,
		conns:      make(map[*peerConn]struct{}),
		bans:       health.NewBook[string](banThreshold, banDuration),
		limiter:    newUploadLimiter(cfg.UploadRate),
		completeCh: make(chan struct{}),
	}, nil
}

// Done is closed when the download completes (immediately for seeds).
func (c *Client) Done() <-chan struct{} { return c.completeCh }

// Addr returns the listen address once Start has succeeded.
func (c *Client) Addr() net.Addr { return c.listener.Addr() }

// Start binds the listener, announces to the tracker, and launches the
// event loop. It returns immediately; use Done to wait for completion and
// Stop to leave the swarm.
func (c *Client) Start(ctx context.Context) error {
	ln, err := net.Listen("tcp", c.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("client: listen: %w", err)
	}
	c.listener = ln
	c.picker = newPicker(c.cfg.Strategy, c.cfg.Torrent.Info.NumPieces(), c.rng.Split())
	c.started = time.Now()
	c.log.Info("client started",
		"addr", ln.Addr().String(),
		"pieces", c.cfg.Torrent.Info.NumPieces(),
		"seed", c.storage.Complete())
	if c.storage.Complete() {
		c.completeOnce.Do(func() { close(c.completeCh) })
	}

	c.doneWG.Add(2)
	go c.acceptLoop()
	go c.eventLoop(ctx)

	c.requestAnnounce(tracker.EventStarted)
	return nil
}

// Stop leaves the swarm: it announces "stopped", closes every connection,
// and stops the event loop. Safe to call multiple times.
func (c *Client) Stop() {
	c.stopOnce.Do(func() {
		c.dialCancel()
		if c.listener == nil { // never started
			close(c.stopCh)
			return
		}
		// Best-effort goodbye to the tracker (synchronous, short).
		ctx, cancel := context.WithTimeout(context.Background(), stopAnnounceTimeout)
		defer cancel()
		_, _ = c.trClient.Announce(ctx, c.announceRequest(tracker.EventStopped))
		close(c.stopCh)
		_ = c.listener.Close()
		c.doneWG.Wait()
	})
}

// Trace returns the instrumentation collected so far as a download trace.
func (c *Client) Trace() *trace.Download {
	d := &trace.Download{Meta: trace.Meta{
		Client:      c.cfg.Name,
		Swarm:       c.cfg.Torrent.Hash.String(),
		Pieces:      c.cfg.Torrent.Info.NumPieces(),
		PieceSize:   c.cfg.Torrent.Info.PieceLength,
		NeighborCap: c.cfg.MaxPeers,
		ConnCap:     c.cfg.MaxPeers, // Conns counts active peers, at most all of them
	}}
	done := make(chan struct{})
	select {
	case c.cmds <- func() {
		c.recordSample() // capture the current state as the final point
		d.Samples = append([]trace.Sample(nil), c.samples...)
		close(done)
	}:
		<-done
	case <-c.stopCh:
		// Wait for the event loop to finish so samples are stable.
		c.doneWG.Wait()
		d.Samples = append([]trace.Sample(nil), c.samples...)
	}
	return d
}

// acceptLoop admits inbound connections.
func (c *Client) acceptLoop() {
	defer c.doneWG.Done()
	for {
		conn, err := c.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if c.cfg.ConnWrapper != nil {
			conn = c.cfg.ConnWrapper(conn)
		}
		go func() { _ = c.admit(conn, true) }()
	}
}

// admit performs the handshake off the event loop, then hands the
// connection over. The returned error lets outbound dial loops retry.
func (c *Client) admit(conn net.Conn, inbound bool) error {
	remoteID, err := performHandshake(conn, c.cfg.Torrent.Hash, c.peerID, inbound, writeTimeout)
	if err != nil {
		_ = conn.Close()
		return err
	}
	pc := &peerConn{
		netc:        conn,
		id:          remoteID,
		inbound:     inbound,
		met:         c.met,
		remote:      bitset.New(c.cfg.Torrent.Info.NumPieces()),
		amChoking:   true,
		peerChoking: true,
		cur:         -1,
	}
	select {
	case c.cmds <- func() { c.onConnected(pc) }:
	case <-c.stopCh:
		_ = conn.Close()
	}
	return nil
}

// eventLoop serializes all state mutation.
func (c *Client) eventLoop(ctx context.Context) {
	defer c.doneWG.Done()
	choke := time.NewTicker(c.cfg.ChokeInterval)
	defer choke.Stop()
	sample := time.NewTicker(c.cfg.SampleInterval)
	defer sample.Stop()
	c.announce.timer = time.NewTimer(c.cfg.AnnounceInterval)
	defer c.announce.timer.Stop()

	c.recordSample() // t = 0 observation

	for {
		select {
		case <-ctx.Done():
			c.teardown()
			return
		case <-c.stopCh:
			c.teardown()
			return
		case fn := <-c.cmds:
			fn()
		case ev := <-c.events:
			if ev.err != nil {
				c.onDisconnected(ev.pc)
				continue
			}
			c.onMessage(ev.pc, ev.msg)
		case <-choke.C:
			c.runChoker()
		case <-sample.C:
			c.recordSample()
			c.maybeShake()
		case <-c.announce.timer.C:
			if len(c.conns) < c.cfg.MaxPeers {
				c.requestAnnounce(tracker.EventNone)
			}
			c.announce.timer.Reset(c.reannounceDelay())
		}
	}
}

func (c *Client) teardown() {
	for pc := range c.conns {
		pc.closed = true
		_ = pc.netc.Close()
	}
	c.conns = map[*peerConn]struct{}{}
}

// reannounceDelay is the current re-announce interval, never below the
// tracker's last "min interval". Consecutive announce failures stretch
// it exponentially (degraded mode, capped at 8x) so an unreachable
// tracker is not hammered; peer connections stay up the whole time, so
// the swarm keeps trading.
func (c *Client) reannounceDelay() time.Duration {
	return max(c.cfg.AnnounceInterval<<min(c.announce.failures, maxAnnounceBackoff), c.announce.minInterval)
}

// requestAnnounce fires an asynchronous tracker announce; results come
// back through the command channel.
func (c *Client) requestAnnounce(event tracker.Event) {
	if c.announce.inflight {
		return
	}
	c.announce.inflight = true
	req := c.announceRequest(event)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), announceTimeout)
		defer cancel()
		resp, err := c.trClient.Announce(ctx, req)
		select {
		case c.cmds <- func() {
			c.announce.inflight = false
			if err != nil {
				c.announce.failures++
				c.met.announceFailures.Inc()
				c.log.Warn("announce failed; entering degraded mode",
					"failures", c.announce.failures,
					"next_delay", c.reannounceDelay().String(),
					"err", err)
				return
			}
			// The timer was armed when this announce was sent, with the
			// stretched delay or before this reply's min interval was
			// known. Re-armed from the reply, the next periodic announce
			// reaches the tracker min interval after this one did.
			rearm := c.announce.failures > 0 || resp.MinInterval > 0
			c.announce.minInterval = resp.MinInterval
			if c.announce.failures > 0 {
				c.log.Info("announce recovered", "after_failures", c.announce.failures)
				c.announce.failures = 0
			}
			if rearm {
				if !c.announce.timer.Stop() {
					select {
					case <-c.announce.timer.C:
					default:
					}
				}
				c.announce.timer.Reset(c.reannounceDelay())
			}
			if resp.Warning != "" {
				c.log.Warn("tracker warning", "msg", resp.Warning)
			}
			c.onPeerList(resp.Peers)
		}:
		case <-c.stopCh:
		}
	}()
}

// listenPort is the TCP port the client accepts on (0 before Start).
func (c *Client) listenPort() int {
	if c.listener == nil {
		return 0
	}
	return c.listener.Addr().(*net.TCPAddr).Port
}

func (c *Client) announceRequest(event tracker.Event) tracker.AnnounceRequest {
	return tracker.AnnounceRequest{
		AnnounceURL: c.cfg.Torrent.Announce,
		InfoHash:    c.cfg.Torrent.Hash,
		PeerID:      c.peerID,
		Port:        max(c.listenPort(), 1), // the tracker requires a positive port
		Downloaded:  c.storage.BytesVerified(),
		Left:        c.storage.Left(),
		Event:       event,
		NumWant:     c.cfg.MaxPeers,
	}
}

// onPeerList dials new peers from a tracker response.
func (c *Client) onPeerList(peers []tracker.PeerInfo) {
	selfPort := c.listenPort()
	budget := c.cfg.MaxPeers - len(c.conns)
	now := time.Now()
	c.bans.Prune(now) // every announce: the book never outgrows one window of offenders
	for _, p := range peers {
		if budget <= 0 {
			return
		}
		if p.Port == selfPort {
			continue // ourselves
		}
		if c.connectedToPort(p.Port) {
			continue
		}
		addr := net.JoinHostPort(p.IP.String(), strconv.Itoa(p.Port))
		if c.bans.Quarantined(addr, now) {
			continue // quarantined: do not re-dial while the ban holds
		}
		budget--
		go c.dialPeer(addr)
	}
}

// dialPeer dials addr and performs the handshake, retrying transient
// failures with jittered backoff. The loop is bounded by dialRetry and
// cancelled when the client stops.
func (c *Client) dialPeer(addr string) {
	attempt := 0
	_ = retry.Do(c.dialCtx, dialRetry, c.trClient.Jitter, nil, func(ctx context.Context) error {
		attempt++
		if attempt > 1 {
			c.met.dialRetries.Inc()
		}
		d := net.Dialer{Timeout: dialTimeout}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return err
		}
		if c.cfg.ConnWrapper != nil {
			conn = c.cfg.ConnWrapper(conn)
		}
		return c.admit(conn, false)
	})
}

func (c *Client) connectedToPort(port int) bool {
	for pc := range c.conns {
		if addr, ok := pc.netc.RemoteAddr().(*net.TCPAddr); ok && addr.Port == port {
			return true
		}
	}
	return false
}

// recordOffense charges pc's address with one offense and disconnects it
// once the ban threshold is reached. Banned addresses are neither
// re-dialed nor re-admitted until the ban decays.
func (c *Client) recordOffense(pc *peerConn, reason string) {
	addr := pc.netc.RemoteAddr().String()
	c.met.offenses.Inc()
	if c.bans.Strike(addr, time.Now()) {
		c.met.bans.Inc()
		c.log.Warn("peer banned", "peer", addr, "reason", reason)
		c.onDisconnected(pc)
	}
}

// onConnected registers a handshaken connection and sends our bitfield.
func (c *Client) onConnected(pc *peerConn) {
	if len(c.conns) >= c.cfg.MaxPeers {
		_ = pc.netc.Close()
		return
	}
	if c.bans.Quarantined(pc.netc.RemoteAddr().String(), time.Now()) {
		_ = pc.netc.Close()
		return
	}
	c.conns[pc] = struct{}{}
	c.met.connects.Inc()
	c.log.Debug("peer connected",
		"peer", pc.netc.RemoteAddr().String(), "inbound", pc.inbound)
	c.picker.addBitfield(pc.remote) // empty set; harmless bookkeeping
	if err := pc.send(wire.Bitfield(c.storage.Have())); err != nil {
		c.onDisconnected(pc)
		return
	}
	c.doneWG.Add(1)
	go func() {
		defer c.doneWG.Done()
		readLoop(pc, c.events, c.stopCh)
	}()
}

// onDisconnected cleans up a dead connection. If the connection held a
// piece assignment, idle pipelines are restarted so the released piece is
// re-fetched promptly.
func (c *Client) onDisconnected(pc *peerConn) {
	if _, ok := c.conns[pc]; !ok {
		return
	}
	delete(c.conns, pc)
	pc.closed = true
	_ = pc.netc.Close()
	c.met.disconnects.Inc()
	c.log.Debug("peer disconnected",
		"peer", pc.netc.RemoteAddr().String(),
		"down_bytes", pc.totalDown, "up_bytes", pc.totalUp)
	c.picker.removeBitfield(pc.remote)
	if pc.cur >= 0 {
		c.picker.release(pc.cur)
		pc.cur = -1
		c.restartIdlePipelines()
	}
}

// restartIdlePipelines re-runs the request logic on every unchoked idle
// connection (used after a piece assignment is released).
func (c *Client) restartIdlePipelines() {
	for other := range c.conns {
		if other.cur >= 0 {
			continue
		}
		if err := c.maybeRequest(other); err != nil {
			c.onDisconnected(other)
		}
	}
}

// onMessage dispatches one wire message.
func (c *Client) onMessage(pc *peerConn, m *wire.Message) {
	if _, ok := c.conns[pc]; !ok {
		return // raced with disconnect
	}
	c.met.countIn(len(m.Payload))
	var err error
	switch m.ID {
	case wire.MsgChoke:
		pc.peerChoking = true
		if pc.cur >= 0 {
			c.picker.release(pc.cur)
			pc.cur = -1
			pc.outstanding = 0
		}
	case wire.MsgUnchoke:
		pc.peerChoking = false
		err = c.maybeRequest(pc)
	case wire.MsgInterested:
		pc.peerInterested = true
	case wire.MsgNotInterested:
		pc.peerInterested = false
	case wire.MsgHave:
		err = c.onHave(pc, m)
	case wire.MsgBitfield:
		err = c.onBitfield(pc, m)
	case wire.MsgRequest:
		err = c.onRequest(pc, m)
	case wire.MsgPiece:
		err = c.onPiece(pc, m)
	case wire.MsgCancel:
		// The serving path answers synchronously, so there is nothing
		// queued to cancel.
	default:
		err = fmt.Errorf("client: unexpected message %s", m.ID)
	}
	if err != nil {
		c.onDisconnected(pc)
	}
}

func (c *Client) onHave(pc *peerConn, m *wire.Message) error {
	idx, err := wire.ParseHave(m)
	if err != nil {
		return err
	}
	if idx < 0 || idx >= c.cfg.Torrent.Info.NumPieces() {
		return fmt.Errorf("client: HAVE index %d out of range", idx)
	}
	if !pc.remote.Has(idx) {
		if err := pc.remote.Add(idx); err != nil {
			return err
		}
		c.picker.addHave(idx)
	}
	c.updateInterest(pc)
	return c.maybeRequest(pc)
}

func (c *Client) onBitfield(pc *peerConn, m *wire.Message) error {
	set, err := wire.ParseBitfield(m, c.cfg.Torrent.Info.NumPieces())
	if err != nil {
		return err
	}
	c.picker.removeBitfield(pc.remote)
	pc.remote = set
	c.picker.addBitfield(pc.remote)
	c.updateInterest(pc)
	return c.maybeRequest(pc)
}

func (c *Client) onRequest(pc *peerConn, m *wire.Message) error {
	idx, begin, length, err := wire.ParseRequest(m)
	if err != nil {
		return err
	}
	if pc.amChoking {
		return nil // requests while choked are dropped
	}
	if length > wire.MaxPayload/2 {
		return fmt.Errorf("client: request length %d too large", length)
	}
	if c.limiter.unlimited() {
		return c.serveBlock(pc, idx, begin, length)
	}
	c.enqueueUpload(pc, idx, begin, length)
	return nil
}

func (c *Client) onPiece(pc *peerConn, m *wire.Message) error {
	idx, begin, block, err := wire.ParsePiece(m)
	if err != nil {
		return err
	}
	pc.windowDown += int64(len(block))
	pc.totalDown += int64(len(block))
	pc.lastProgress = time.Now()
	if pc.outstanding > 0 {
		pc.outstanding--
	}
	completed, err := c.storage.AddBlock(idx, begin, c.cfg.BlockSize, block)
	if errors.Is(err, ErrVerify) {
		// Corrupt piece: release and refetch from someone else, and charge
		// the sender — repeat offenders are quarantined.
		c.picker.release(idx)
		if pc.cur == idx {
			pc.cur = -1
		}
		c.recordOffense(pc, "corrupt piece")
		c.restartIdlePipelines()
		return nil
	}
	if err != nil {
		return err
	}
	if completed {
		c.met.piecesVerified.Inc()
		c.picker.release(idx)
		if pc.cur == idx {
			pc.cur = -1
		}
		c.cancelDuplicates(idx, pc)
		c.broadcastHave(idx)
		if c.storage.Complete() {
			c.log.Info("download complete",
				"t_seconds", time.Since(c.started).Seconds(),
				"bytes", c.storage.BytesVerified())
			c.completeOnce.Do(func() { close(c.completeCh) })
			c.requestAnnounce(tracker.EventCompleted)
			c.dropAllInterest()
		} else {
			// The shake threshold is checked on every piece boundary so
			// fast downloads cannot skip past it between sample ticks.
			c.maybeShake()
		}
	}
	if _, ok := c.conns[pc]; !ok {
		return nil // the shake dropped this connection
	}
	return c.maybeRequest(pc)
}

// broadcastHave tells every peer about a new piece and refreshes our
// interest states.
func (c *Client) broadcastHave(idx int) {
	for pc := range c.conns {
		if err := pc.send(wire.Have(idx)); err != nil {
			c.onDisconnected(pc)
			continue
		}
		c.updateInterest(pc)
	}
}

// dropAllInterest sends NOT_INTERESTED everywhere after completion.
func (c *Client) dropAllInterest() {
	for pc := range c.conns {
		if pc.amInterested {
			pc.amInterested = false
			if err := pc.send(&wire.Message{ID: wire.MsgNotInterested}); err != nil {
				c.onDisconnected(pc)
			}
		}
	}
}

// updateInterest recomputes and signals our interest in pc.
func (c *Client) updateInterest(pc *peerConn) {
	want := c.wantsFrom(pc)
	if want == pc.amInterested {
		return
	}
	pc.amInterested = want
	id := wire.MsgNotInterested
	if want {
		id = wire.MsgInterested
	}
	if err := pc.send(&wire.Message{ID: id}); err != nil {
		c.onDisconnected(pc)
	}
}

// wantsFrom reports whether we should request from pc.
func (c *Client) wantsFrom(pc *peerConn) bool {
	if c.storage.Complete() {
		return false
	}
	if c.cfg.AvoidSeeds && pc.seedLike() {
		return false
	}
	return pc.remote.CountNotIn(c.storage.Have()) > 0
}

// maybeRequest keeps the request pipeline full on an unchoked connection:
// one assigned piece at a time, all of its blocks requested eagerly.
func (c *Client) maybeRequest(pc *peerConn) error {
	if pc.peerChoking || !pc.amInterested || c.storage.Complete() {
		return nil
	}
	if pc.cur >= 0 {
		return nil // piece in flight
	}
	idx := c.picker.pick(pc.remote, c.storage.Have())
	if idx < 0 {
		if c.cfg.DisableEndgame {
			return nil
		}
		// Endgame: every piece this peer could supply is already assigned
		// elsewhere; duplicate one in-flight piece so a stalled source
		// cannot delay completion.
		idx = c.picker.pickDuplicate(pc.remote, c.storage.Have())
		if idx < 0 {
			return nil
		}
		c.met.endgameEntries.Inc()
	}
	pc.cur = idx
	pc.lastProgress = time.Now()
	sent, err := c.sendPerBlock(pc, idx, wire.Request)
	pc.outstanding += sent
	return err
}

// sendPerBlock sends pc one message per block of piece idx (wire.Request
// to fetch it, wire.Cancel to abort it) and reports how many went out
// before the first write error.
func (c *Client) sendPerBlock(pc *peerConn, idx int, msg func(idx, begin, length int) *wire.Message) (sent int, err error) {
	pieceSize := int(c.cfg.Torrent.Info.PieceSize(idx))
	for begin := 0; begin < pieceSize; begin += c.cfg.BlockSize {
		if err := pc.send(msg(idx, begin, min(c.cfg.BlockSize, pieceSize-begin))); err != nil {
			return sent, err
		}
		sent++
	}
	return sent, nil
}

// runChoker applies the tit-for-tat unchoke policy: the MaxUploads-1
// interested peers with the highest download rate towards us stay
// unchoked, plus one random optimistic unchoke; everyone else is choked.
// Seeds (nothing to download) rank peers round-robin via the random pick.
func (c *Client) runChoker() {
	// Reap connections whose in-flight requests have stalled.
	now := time.Now()
	for pc := range c.conns {
		if pc.cur >= 0 && pc.outstanding > 0 &&
			now.Sub(pc.lastProgress) > c.cfg.RequestTimeout {
			c.met.requestTimeouts.Inc()
			c.log.Debug("request timeout",
				"peer", pc.netc.RemoteAddr().String(), "piece", pc.cur)
			c.recordOffense(pc, "request timeout")
			c.onDisconnected(pc)
		}
	}
	interested := make([]*peerConn, 0, len(c.conns))
	for pc := range c.conns {
		if pc.peerInterested {
			interested = append(interested, pc)
		}
	}
	sort.Slice(interested, func(i, j int) bool {
		if interested[i].windowDown != interested[j].windowDown {
			return interested[i].windowDown > interested[j].windowDown
		}
		return lessID(interested[i].id, interested[j].id)
	})
	unchoke := make(map[*peerConn]bool, c.cfg.MaxUploads)
	regular := c.cfg.MaxUploads - 1
	if regular < 0 {
		regular = 0
	}
	for i := 0; i < len(interested) && i < regular; i++ {
		unchoke[interested[i]] = true
	}
	// Optimistic unchoke: a random interested peer not already chosen.
	rest := make([]*peerConn, 0, len(interested))
	for _, pc := range interested[min(regular, len(interested)):] {
		rest = append(rest, pc)
	}
	if len(rest) > 0 && len(unchoke) < c.cfg.MaxUploads {
		unchoke[rest[c.rng.IntN(len(rest))]] = true
	}
	for pc := range c.conns {
		want := unchoke[pc]
		if want == !pc.amChoking {
			pc.windowDown = 0
			continue
		}
		pc.amChoking = !want
		id := wire.MsgChoke
		if want {
			id = wire.MsgUnchoke
			c.met.unchokes.Inc()
		} else {
			c.met.chokes.Inc()
		}
		if err := pc.send(&wire.Message{ID: id}); err != nil {
			c.onDisconnected(pc)
			continue
		}
		pc.windowDown = 0
	}
}

// cancelDuplicates aborts endgame duplicates of a completed piece on
// every other connection and restarts their pipelines.
func (c *Client) cancelDuplicates(idx int, winner *peerConn) {
	for pc := range c.conns {
		if pc == winner || pc.cur != idx {
			continue
		}
		if _, err := c.sendPerBlock(pc, idx, wire.Cancel); err != nil {
			c.onDisconnected(pc)
			continue
		}
		pc.cur = -1
		pc.outstanding = 0
		if err := c.maybeRequest(pc); err != nil {
			c.onDisconnected(pc)
		}
	}
}

// maybeShake applies the Section 7.1 mitigation once the completion
// fraction crosses the threshold: drop every peer and refresh from the
// tracker.
func (c *Client) maybeShake() {
	if c.cfg.ShakeThreshold <= 0 || c.shaken || c.storage.Complete() {
		return
	}
	frac := float64(c.storage.NumHave()) / float64(c.cfg.Torrent.Info.NumPieces())
	if frac < c.cfg.ShakeThreshold {
		return
	}
	c.shaken = true
	c.met.shakes.Inc()
	c.log.Info("peer-set shake",
		"pieces", c.storage.NumHave(), "dropped", len(c.conns))
	for pc := range c.conns {
		c.onDisconnected(pc)
	}
	c.requestAnnounce(tracker.EventNone)
}

// recordSample appends one instrumentation point: cumulative bytes,
// verified pieces, potential-set size, active (unchoked either way)
// connections.
func (c *Client) recordSample() {
	have := c.storage.Have()
	potential := 0
	active := 0
	for pc := range c.conns {
		if !pc.peerChoking || !pc.amChoking {
			active++
		}
		if pc.seedLike() {
			continue // §4.2: seeds are excluded from the potential set
		}
		theyHaveForUs := pc.remote.CountNotIn(have) > 0
		weHaveForThem := have.CountNotIn(pc.remote) > 0
		if theyHaveForUs && weHaveForThem {
			potential++
		}
	}
	c.samples = append(c.samples, trace.Sample{
		T:         time.Since(c.started).Seconds(),
		Bytes:     c.storage.BytesVerified(),
		Pieces:    c.storage.NumHave(),
		Potential: potential,
		Conns:     active,
	})
}

func lessID(a, b [20]byte) bool { return string(a[:]) < string(b[:]) }
