package sim

import (
	"repro/internal/stats"
)

// This file wires a faults.Plan into the exchange round: tracker blackout
// windows (no neighbor top-ups, no shake refreshes), per-round injected
// connection failure (the Section 5 model's 1-p_r applied as an input
// instead of an emergent), and leecher crash/rejoin churn. All fault
// randomness comes from a dedicated stream seeded by the plan, so a run
// without a plan draws exactly the same swarm RNG sequence as before and
// two runs with the same plan share one fault schedule.

// crashRec holds a crashed leecher awaiting rejoin. The slot stays
// reserved in the peer store (not on the free list) so the piece
// inventory survives the outage intact.
type crashRec struct {
	sl int32
	at int // round ordinal at which the peer rejoins
}

// faultStream lazily builds the plan's RNG so fault-free swarms pay
// nothing.
func (s *Swarm) faultStream() *stats.RNG {
	if s.faultRNG == nil {
		s.faultRNG = stats.NewRNG(s.cfg.Faults.Seed^0xFA17ED, s.cfg.Faults.Seed+0x5C4EDB1E)
	}
	return s.faultRNG
}

// applyFaults runs the round's schedule-level faults — blackout state,
// rejoins due this round, fresh crashes — and returns the leecher list
// with crashed peers filtered out.
func (s *Swarm) applyFaults(now float64, leechers []int32) []int32 {
	plan := s.cfg.Faults
	s.trackerDark = false
	if !plan.Active() {
		return leechers
	}
	if plan.TrackerDark(now) {
		s.trackerDark = true
		s.res.blackoutRounds++
	}

	// Rejoins: crashed peers whose countdown expired come back with their
	// piece inventory intact and an empty neighbor set. The tracker
	// catch-up in the next round's step 1 re-links them.
	kept := s.crashList[:0]
	for _, rec := range s.crashList {
		if rec.at > s.res.rounds {
			kept = append(kept, rec)
			continue
		}
		s.aliveInsert(rec.sl)
		s.ps.sinceTracker[rec.sl] = int32(s.cfg.TrackerRefreshRounds) // top up ASAP
		s.res.rejoins++
	}
	s.crashList = kept

	if plan.CrashRate <= 0 {
		return leechers
	}
	rng := s.faultStream()
	out := leechers[:0]
	for _, p := range leechers {
		if !rng.Bernoulli(plan.CrashRate) {
			out = append(out, p)
			continue
		}
		// Unlinks neighbors and connections but keeps the slot reserved
		// for the rejoin.
		s.removePeer(p, false)
		s.res.crashes++
		if plan.RejoinAfter > 0 {
			s.crashList = append(s.crashList, crashRec{sl: p, at: s.res.rounds + plan.RejoinAfter})
		} else {
			s.ps.freeSlot(p) // never coming back
		}
	}
	s.compactAlive()
	return out
}

// injectConnFailures tears down each established connection with the
// plan's per-round probability, after natural connection maintenance and
// before new connections form — the model's downward migration flow.
func (s *Swarm) injectConnFailures(leechers []int32) {
	plan := s.cfg.Faults
	if !plan.Active() || plan.ConnFailRate <= 0 {
		return
	}
	ps := &s.ps
	rng := s.faultStream()
	for _, p := range leechers {
		s.connScratch = append(s.connScratch[:0], ps.connRow(p)...)
		for _, q := range s.connScratch {
			if ps.id[p] < ps.id[q] && rng.Bernoulli(plan.ConnFailRate) {
				s.dropConn(p, q)
				s.res.faultDrops++
				s.res.connsDropped++
			}
		}
	}
}
