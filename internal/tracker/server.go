// Package tracker implements a minimal HTTP BitTorrent tracker and the
// matching announce client. The tracker keeps per-swarm membership with
// expiry, hands out random peer subsets in the compact format, and serves
// aggregate statistics — enough to coordinate the loopback swarms used for
// the repository's real-client trace collection.
package tracker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/bencode"
	"repro/internal/obs"
)

// DefaultNumWant is how many peers an announce returns when the client
// does not ask for a specific number.
const DefaultNumWant = 50

// Event is the announce event type.
type Event string

// Announce events per BEP 3.
const (
	EventNone      Event = ""
	EventStarted   Event = "started"
	EventStopped   Event = "stopped"
	EventCompleted Event = "completed"
)

// PeerInfo is one swarm member as stored and returned by the tracker.
type PeerInfo struct {
	ID   [20]byte
	IP   net.IP
	Port int
}

type peerEntry struct {
	info     PeerInfo
	left     int64
	lastSeen time.Time
}

// Server is the tracker state. Register its Handler with an http.Server.
type Server struct {
	mu sync.Mutex
	// swarms maps infohash -> peer id -> entry.
	swarms map[[20]byte]map[[20]byte]*peerEntry

	// Interval is the announce interval handed to clients, in seconds.
	Interval int
	// Expiry removes peers that have not announced recently.
	Expiry time.Duration
	// now is injectable for tests.
	now func() time.Time

	// met and log are replaced by Instrument.
	met serverMetrics
	log *slog.Logger
}

// NewServer returns a tracker with a 30-minute expiry and 120 s interval.
func NewServer() *Server {
	return &Server{
		swarms:   make(map[[20]byte]map[[20]byte]*peerEntry),
		Interval: 120,
		Expiry:   30 * time.Minute,
		now:      time.Now,
		met:      newServerMetrics(nil),
		log:      obs.Nop(),
	}
}

// Handler returns the HTTP mux serving /announce and /stats.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/announce", s.handleAnnounce)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

func failure(w http.ResponseWriter, msg string) {
	body, err := bencode.Encode(map[string]any{"failure reason": msg})
	if err != nil {
		http.Error(w, msg, http.StatusBadRequest)
		return
	}
	// Trackers report failures with HTTP 200 and a bencoded body.
	_, _ = w.Write(body)
}

// fail counts and reports one rejected announce.
func (s *Server) fail(w http.ResponseWriter, msg string) {
	s.met.failures.Inc()
	s.log.Debug("announce rejected", "reason", msg)
	failure(w, msg)
}

func (s *Server) handleAnnounce(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := r.URL.Query()
	infoHash, err := exact20(q.Get("info_hash"))
	if err != nil {
		s.fail(w, "invalid info_hash")
		return
	}
	peerID, err := exact20(q.Get("peer_id"))
	if err != nil {
		s.fail(w, "invalid peer_id")
		return
	}
	port, err := strconv.Atoi(q.Get("port"))
	if err != nil || port < 1 || port > 65535 {
		s.fail(w, "invalid port")
		return
	}
	left, err := strconv.ParseInt(q.Get("left"), 10, 64)
	if err != nil || left < 0 {
		s.fail(w, "invalid left")
		return
	}
	numWant := DefaultNumWant
	if nw := q.Get("numwant"); nw != "" {
		if n, err := strconv.Atoi(nw); err == nil && n >= 0 {
			numWant = n
		}
	}
	event := Event(q.Get("event"))

	ip := clientIP(r, q.Get("ip"))
	if ip == nil {
		s.fail(w, "cannot determine client IP")
		return
	}

	peers, seeders, leechers := s.announce(infoHash, PeerInfo{ID: peerID, IP: ip, Port: port}, left, event, numWant)

	body, err := bencode.Encode(map[string]any{
		"interval":   int64(s.Interval),
		"complete":   int64(seeders),
		"incomplete": int64(leechers),
		"peers":      string(compactPeers(peers)),
	})
	if err != nil {
		s.met.failures.Inc()
		http.Error(w, "encode failure", http.StatusInternalServerError)
		return
	}
	_, _ = w.Write(body)
	s.observeAnnounce(start, len(body))
	s.log.Debug("announce",
		"event", string(event), "port", port,
		"seeders", seeders, "leechers", leechers, "returned", len(peers))
}

// announce updates membership and returns a random peer subset plus the
// seeder/leecher counts.
func (s *Server) announce(infoHash [20]byte, p PeerInfo, left int64, event Event, numWant int) ([]PeerInfo, int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()

	swarm := s.swarms[infoHash]
	if swarm == nil {
		swarm = make(map[[20]byte]*peerEntry)
		s.swarms[infoHash] = swarm
	}
	// Expire stale members.
	for id, e := range swarm {
		if now.Sub(e.lastSeen) > s.Expiry {
			delete(swarm, id)
		}
	}

	if event == EventStopped {
		delete(swarm, p.ID)
	} else {
		swarm[p.ID] = &peerEntry{info: p, left: left, lastSeen: now}
	}

	// Collect the other members in deterministic order, then cut a
	// pseudo-random window. The tracker's randomness requirements are
	// mild; rotating by a time-derived offset suffices and keeps this
	// code free of a seeded RNG dependency.
	others := make([]PeerInfo, 0, len(swarm))
	ids := make([][20]byte, 0, len(swarm))
	for id := range swarm {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		return string(ids[i][:]) < string(ids[j][:])
	})
	seeders, leechers := 0, 0
	for _, id := range ids {
		e := swarm[id]
		if e.left == 0 {
			seeders++
		} else {
			leechers++
		}
		if id != p.ID {
			others = append(others, e.info)
		}
	}
	if numWant < len(others) {
		off := int(now.UnixNano() % int64(len(others)))
		rotated := make([]PeerInfo, 0, numWant)
		for i := 0; i < numWant; i++ {
			rotated = append(rotated, others[(off+i)%len(others)])
		}
		others = rotated
	}
	return others, seeders, leechers
}

// Counts returns (seeders, leechers) for a swarm.
func (s *Server) Counts(infoHash [20]byte) (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seeders, leechers := 0, 0
	for _, e := range s.swarms[infoHash] {
		if e.left == 0 {
			seeders++
		} else {
			leechers++
		}
	}
	return seeders, leechers
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	swarms := make([]any, 0, len(s.swarms))
	for hash, members := range s.swarms {
		seeders, leechers := 0, 0
		for _, e := range members {
			if e.left == 0 {
				seeders++
			} else {
				leechers++
			}
		}
		swarms = append(swarms, map[string]any{
			"info_hash": string(hash[:]),
			"seeders":   int64(seeders),
			"leechers":  int64(leechers),
		})
	}
	body, err := bencode.Encode(map[string]any{"swarms": swarms})
	if err != nil {
		http.Error(w, "encode failure", http.StatusInternalServerError)
		return
	}
	_, _ = w.Write(body)
}

func exact20(s string) ([20]byte, error) {
	var out [20]byte
	if len(s) != 20 {
		return out, errors.New("need exactly 20 bytes")
	}
	copy(out[:], s)
	return out, nil
}

func clientIP(r *http.Request, override string) net.IP {
	if override != "" {
		if ip := net.ParseIP(override); ip != nil {
			return ip.To4()
		}
		return nil
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return nil
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return nil
	}
	return ip.To4()
}

// compactPeers encodes peers in the 6-bytes-per-peer compact format.
// Peers without an IPv4 address are skipped.
func compactPeers(peers []PeerInfo) []byte {
	out := make([]byte, 0, 6*len(peers))
	for _, p := range peers {
		ip4 := p.IP.To4()
		if ip4 == nil {
			continue
		}
		out = append(out, ip4...)
		var port [2]byte
		binary.BigEndian.PutUint16(port[:], uint16(p.Port))
		out = append(out, port[:]...)
	}
	return out
}

// ParseCompactPeers decodes the compact peer format. An entry with port
// 0 cannot be dialled and is left out rather than failing its neighbours.
func ParseCompactPeers(blob []byte) ([]PeerInfo, error) {
	if len(blob)%6 != 0 {
		return nil, fmt.Errorf("tracker: compact peers length %d not a multiple of 6", len(blob))
	}
	out := make([]PeerInfo, 0, len(blob)/6)
	for off := 0; off < len(blob); off += 6 {
		ip := net.IPv4(blob[off], blob[off+1], blob[off+2], blob[off+3]).To4()
		if port := int(binary.BigEndian.Uint16(blob[off+4 : off+6])); port != 0 {
			out = append(out, PeerInfo{IP: ip, Port: port})
		}
	}
	return out, nil
}
