package tracker

import (
	"log/slog"
	"time"

	"repro/internal/obs"
)

// serverMetrics caches the tracker.* handles. NewServer fills it from a
// nil registry (working, unregistered handles), Instrument from a real
// one, so no use site checks whether metrics are on.
type serverMetrics struct {
	announces       *obs.Counter
	failures        *obs.Counter
	responseBytes   *obs.Counter
	announceSeconds *obs.Histogram
	peers           *obs.Gauge
	swarmCount      *obs.Gauge
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		announces:       reg.Counter("tracker.announces"),
		failures:        reg.Counter("tracker.failures"),
		responseBytes:   reg.Counter("tracker.response_bytes"),
		announceSeconds: reg.Histogram("tracker.announce_seconds"),
		peers:           reg.Gauge("tracker.peers"),
		swarmCount:      reg.Gauge("tracker.swarms"),
	}
}

// Instrument attaches a metrics registry and a structured logger to the
// server: counters tracker.announces, tracker.failures,
// tracker.response_bytes; histogram tracker.announce_seconds (handler
// latency); gauges tracker.peers and tracker.swarms (refreshed on every
// announce). A nil registry leaves the metrics unregistered; a nil
// logger discards events. Call before serving.
func (s *Server) Instrument(reg *obs.Registry, log *slog.Logger) {
	s.met = newServerMetrics(reg)
	s.log = obs.Component(log, "tracker")
}

// observeAnnounce records one handled announce: its latency, the response
// size, and the post-announce population gauges.
func (s *Server) observeAnnounce(start time.Time, respBytes int) {
	s.met.announces.Inc()
	s.met.announceSeconds.Observe(time.Since(start).Seconds())
	s.met.responseBytes.Add(int64(respBytes))
	peers, swarms := s.population()
	s.met.peers.Set(float64(peers))
	s.met.swarmCount.Set(float64(swarms))
}

// population counts members across all swarms.
func (s *Server) population() (peers, swarms int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, members := range s.swarms {
		peers += len(members)
	}
	return peers, len(s.swarms)
}
