package main

import (
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/sim"
)

// Reference seed pair for the pinned sim_steady run: the fluidconv
// harness' own (N, 0xF10C).
const (
	simRefSeed1 = 20000
	simRefSeed2 = 0xF10C
)

// steadyConfig is the fluid-convergence steady-arrival shape at
// N = 20 000 — N/10 initial leechers, N/100 origin seeds, arrivals at
// N/25 — on the default trading path, with per-peer tracking and the
// piece census off.
func steadyConfig(seed1, seed2 uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Pieces = 20
	cfg.InitialPeers = 2000
	cfg.Seeds = 200
	cfg.ArrivalRate = 800
	cfg.Horizon = scale.simHorizon
	cfg.TrackPeers = 0
	cfg.Seed1, cfg.Seed2 = seed1, seed2
	return cfg
}

// roundStamps is the traced run's sim.Observer: a host timestamp and
// the round's counts at every round boundary.
type roundStamps struct {
	at        []time.Time
	peers     []int
	exchanges []int
	memBytes  int64
}

func (o *roundStamps) ObserveRound(rs sim.RoundStats) {
	o.at = append(o.at, time.Now())
	o.peers = append(o.peers, rs.Peers)
	o.exchanges = append(o.exchanges, rs.Exchanges)
	o.memBytes = rs.MemBytes
}

// simInstance runs the steady swarm. A Swarm runs once, so each window
// builds a fresh one outside the timed region and times Run alone.
type simInstance struct {
	seed   uint64
	traced bool
	calls  int
	// first is the stats of the first seeded run; every later window must
	// reproduce it exactly.
	first *simStats
	bad   int64
	// last keeps the most recent swarm and result alive for live_heap_mb.
	lastSwarm  *sim.Swarm
	lastResult *sim.Result

	// Traced windows only.
	roundMs              []float64
	fit                  roundFit
	runNs, finishNs      float64
	peerRounds, exchange float64
	rounds, mallocs      float64
	memBytes, lastPeers  float64
}

func simSetup(seed uint64, tr *tracing) (instance, error) {
	// The constructor is what a user pays before Run; build one to time it.
	sw, err := sim.New(steadyConfig(seed, simRefSeed2))
	if err != nil {
		return nil, err
	}
	return &simInstance{seed: seed, traced: tr != nil, lastSwarm: sw}, nil
}

func statsOf(res *sim.Result) simStats {
	_, final := res.PopulationSeries.Last()
	return simStats{
		Rounds: res.Rounds(), Exchanges: res.Exchanges(), Arrivals: res.Arrivals(),
		ConnsFormed: res.ConnsFormed(), MeanDownloadTime: res.MeanDownloadTime(), FinalLeechers: final,
	}
}

// measure runs the whole horizon once. The first call is the warm-up
// window and runs the reference seed pair, so the discarded window is
// also the pinned-statistics check; later calls run the -seed pair and
// must agree with each other bit for bit.
func (s *simInstance) measure(_ time.Duration, lat *[]float64) (ops, failed int64, secs float64) {
	cfg := steadyConfig(s.seed, simRefSeed2)
	reference := s.calls == 0
	if reference {
		cfg = steadyConfig(simRefSeed1, simRefSeed2)
	}
	var stamps *roundStamps
	if s.traced && !reference {
		stamps = &roundStamps{}
		cfg.Observer = stamps
	}
	s.calls++
	sw, err := sim.New(cfg)
	if err != nil {
		return 1, 1, 1
	}
	var ms0, ms1 runtime.MemStats
	if stamps != nil {
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	res, err := sw.Run()
	el := time.Since(t0)
	if err != nil {
		return 1, 1, el.Seconds()
	}
	s.lastSwarm, s.lastResult = sw, res

	// Live peers per round: the leechers the round traded plus the
	// origin seeds.
	peerRounds := float64(cfg.Seeds * res.Rounds())
	for _, v := range res.PopulationSeries.V {
		peerRounds += v
	}
	got := statsOf(res)
	switch {
	case reference:
		if !checkSim(got) {
			s.bad++
		}
	case s.first == nil:
		s.first = &got
	case got != *s.first:
		s.bad++
	}
	if stamps != nil {
		runtime.ReadMemStats(&ms1)
		s.mallocs += float64(ms1.Mallocs - ms0.Mallocs)
		prev := t0
		for i, at := range stamps.at {
			ns := float64(at.Sub(prev).Nanoseconds())
			s.roundMs = append(s.roundMs, ns/1e6)
			prev = at
			s.exchange += float64(stamps.exchanges[i])
			s.fit.add(float64(stamps.peers[i]), float64(stamps.exchanges[i]), ns)
		}
		s.finishNs += float64(t0.Add(el).Sub(prev).Nanoseconds())
		s.runNs += float64(el.Nanoseconds())
		s.peerRounds += peerRounds
		s.rounds += float64(len(stamps.at))
		s.memBytes = float64(stamps.memBytes)
		s.lastPeers = float64(stamps.peers[len(stamps.peers)-1])
	}
	*lat = append(*lat, float64(el.Nanoseconds())/1e6)
	return int64(peerRounds), 0, el.Seconds()
}

// checkSim compares the reference run with reference.json, which keys
// the pinned statistics by horizon (the test suite runs a short one).
func checkSim(got simStats) bool {
	key := strconv.FormatFloat(scale.simHorizon, 'g', -1, 64)
	if writingRefer {
		if ref.SimSteady == nil {
			ref.SimSteady = map[string]simStats{}
		}
		ref.SimSteady[key] = got
		return true
	}
	want, ok := ref.SimSteady[key]
	return ok && got == want
}

func (s *simInstance) verify() (checked, failed int64) {
	return int64(s.calls), s.bad
}

func (s *simInstance) layers(out metrics) {
	if s.rounds == 0 {
		return
	}
	sort.Float64s(s.roundMs)
	out.set("sim.round_ms_p50", percentile(s.roundMs, 0.50), "ms")
	out.set("sim.round_ms_p99", tail(s.roundMs, 0.99), "ms")
	out.set("sim.ns_per_peer_round", s.runNs/s.peerRounds, "ns")
	out.set("sim.ns_per_exchange", s.fit.perExchange(), "ns")
	out.set("sim.finish_ms", s.finishNs/1e6/float64(s.calls-1), "ms")
	out.set("sim.exchanges_per_round", s.exchange/s.rounds, "count")
	out.set("sim.peers_mean", s.peerRounds/s.rounds, "count")
	out.set("sim.bytes_per_peer", s.memBytes/max(s.lastPeers, 1), "B")
	out.set("sim.allocs_per_round", s.mallocs/s.rounds, "count")
}

// roundFit is the least-squares fit round_ns = a·peers + b·exchanges
// over the traced rounds. The population ramps up from empty initial
// leechers, so early rounds have many peers and few exchanges and late
// rounds the reverse ratio; that is what lets a fit from outside split
// a round between its per-peer passes and its trading.
type roundFit struct{ pp, pe, ee, pt, et float64 }

func (f *roundFit) add(peers, exchanges, ns float64) {
	f.pp += peers * peers
	f.pe += peers * exchanges
	f.ee += exchanges * exchanges
	f.pt += peers * ns
	f.et += exchanges * ns
}

// perExchange is b of the fit, or 0 when the rounds cannot separate the
// two terms.
func (f *roundFit) perExchange() float64 {
	det := f.pp*f.ee - f.pe*f.pe
	if det == 0 {
		return 0
	}
	return (f.pp*f.et - f.pe*f.pt) / det
}

func (s *simInstance) close() { s.lastSwarm, s.lastResult = nil, nil }
