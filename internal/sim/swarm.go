package sim

import (
	"context"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/stats"
)

// Swarm is one simulation instance. Construct with New, run with Run (or
// step with Advance). A Swarm is single-threaded; Result snapshots are
// safe to use afterwards.
//
// Peer state lives in a struct-of-arrays store (see peerStore) indexed by
// compact slot ids; the swarm-level bookkeeping below works in slots, not
// pointers. Determinism contract: every RNG draw site, every iteration
// order feeding the RNG, and every float accumulation order matches the
// original map-based core exactly, so fixed-seed runs are byte-identical
// across the refactor (pinned by the oracle golden suite). There is one
// trading schedule; DESIGN.md §14 records why.
type Swarm struct {
	cfg Config
	rng *stats.RNG
	ps  peerStore

	// alive holds the slots of all present peers in ascending PeerID
	// order; ids are allocated monotonically so appends preserve the
	// order (rejoins re-insert in place).
	alive []int32
	// removed counts the peers marked gone and not yet compacted away.
	removed int
	// seeds holds the slots of origin and lingering seeds, in the order
	// they became seeds.
	seeds []int32

	tracked int
	traces  [][]TraceSample // per tracked peer, indexed by traceIdx

	// degree[j] counts the slots in alive that hold piece j, kept as pieces
	// and peers move (give, New, aliveInsert, compactAlive). alive keeps a
	// removed peer until compactAlive drops it, so the table loses the
	// peer's pieces there, not in removePeer.
	degree []int

	// epoch counts piece acquisitions and seed-flag flips swarm-wide; it
	// keys the peerStore quiescence memos. Starts at 1 so a zero memo
	// field can never validate.
	epoch uint64

	// The two clocks. now is the virtual time of the last event fired, or
	// the bound the last Advance/Run stopped at. A round fires at nextRound
	// (one time unit after the previous one) and a Poisson arrival at
	// nextArrival (+Inf without arrivals). An exact tie fires in schedule
	// order: arrivalFirst records that the arrival clock was set before
	// the round clock, and the oracle goldens pin that order. events
	// counts rounds and arrival draws fired.
	now, nextRound, nextArrival float64
	arrivalFirst                bool
	events                      uint64

	// Fault-injection state (nil/empty without a Config.Faults plan).
	faultRNG    *stats.RNG
	crashList   []crashRec
	trackerDark bool

	// prevCount is the size of the previous round's connection set (the
	// persistence denominator); the per-slot prev rows live in the store.
	prevCount int

	// superPending marks pieces a super-seed has handed out and not yet
	// seen replicated on two leechers.
	superPending map[int]bool

	res *Result

	// Round-loop scratch buffers. A Swarm is single-threaded, each buffer
	// is rebuilt before use, and no two of them are live across the same
	// call — reusing them removes every steady-state allocation from the
	// round loop. leecherBuf holds the round's shuffled leecher order and
	// stays live through the whole round, so optimisticUnchokes (which
	// reshuffles mid-round) gets its own buffer.
	leecherBuf  []int32
	unchokeBuf  []int32
	candBuf     []int32
	connScratch []int32 // connection-row snapshots under mutation

	// Last-round gauge values, kept for the Observer hook. NaN means
	// "not measured this round".
	lastEntropy float64
	lastEff     float64
	lastPR      float64
	// prevSnap and prevDone hold the cumulative counters and completions
	// as of the previous round's observer delivery, so each round reports
	// deltas that include the inter-round arrival events.
	prevSnap counters
	prevDone int
	// stepNanos and lapAt are lap's state; untouched without an observer.
	stepNanos [NumSteps]int64
	lapAt     time.Time
}

// New validates cfg and builds the initial swarm.
func New(cfg Config) (*Swarm, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Swarm{
		cfg:          cfg,
		rng:          stats.NewRNG(cfg.Seed1, cfg.Seed2),
		ps:           newPeerStore(cfg),
		degree:       make([]int, cfg.Pieces),
		epoch:        1,
		superPending: make(map[int]bool),
		res:          newResult(cfg),
	}
	s.ps.grow(cfg.Seeds + cfg.InitialPeers)
	s.alive = make([]int32, 0, cfg.Seeds+cfg.InitialPeers)
	for i := 0; i < cfg.Seeds; i++ {
		sl := s.ps.alloc()
		s.ps.seed[sl] = true
		bitset.RowFill(s.ps.pieceRow(sl), cfg.Pieces)
		s.ps.pieceCnt[sl] = int32(cfg.Pieces)
		s.alive = append(s.alive, sl)
		s.seeds = append(s.seeds, sl)
		s.ps.roomy++
	}
	for j := range s.degree {
		s.degree[j] = cfg.Seeds
	}
	for i := 0; i < cfg.InitialPeers; i++ {
		sl := s.spawnLeecher(0)
		if cfg.InitialSkew > 0 {
			s.applySkew(sl)
		}
	}
	// Give every initial peer a starting neighbor set, in ascending id
	// order (the alive order).
	for _, sl := range s.alive {
		s.topUpNeighbors(sl)
	}
	// The first round, then the first arrival: this order fixes the
	// tie-break and the first arrival's place in the RNG stream, both of
	// which the oracle goldens pin.
	s.nextRound, s.nextArrival = 1, math.Inf(1)
	if cfg.ArrivalRate > 0 {
		s.scheduleNextArrival()
	}
	return s, nil
}

func (s *Swarm) spawnLeecher(now float64) int32 {
	sl := s.ps.alloc()
	s.ps.arrived[sl] = now
	if s.cfg.SlowPeerFraction > 0 {
		s.ps.slow[sl] = s.rng.Bernoulli(s.cfg.SlowPeerFraction)
	}
	if s.tracked < s.cfg.TrackPeers {
		s.ps.tracked[sl] = true
		s.ps.traceIdx[sl] = int32(len(s.traces))
		s.traces = append(s.traces, nil)
		s.tracked++
	}
	// Ids are monotone, so appending preserves the alive order.
	s.alive = append(s.alive, sl)
	s.ps.roomy++
	return sl
}

// applySkew hands an initial peer the over-replicated piece 0 with
// probability InitialSkew, and each remaining piece with a small residual
// probability, recreating the skewed start of Figure 4(b)/(c).
func (s *Swarm) applySkew(sl int32) {
	if s.rng.Bernoulli(s.cfg.InitialSkew) {
		s.give(sl, 0, 0)
	}
	residual := (1 - s.cfg.InitialSkew) / 4
	for j := 1; j < s.cfg.Pieces; j++ {
		if s.rng.Bernoulli(residual) {
			s.give(sl, j, 0)
		}
	}
}

// give records the acquisition of piece j by slot sl at the given time,
// updating the piece inventory, the acquisition log, the piece's
// replication degree, and the neighbors' rarest-first replication counts.
func (s *Swarm) give(sl int32, j int, now float64) {
	ps := &s.ps
	wbase := int(sl) * ps.words
	bit := uint64(1) << uint(j&63)
	if ps.pieceWords[wbase+j>>6]&bit != 0 {
		return
	}
	ps.pieceWords[wbase+j>>6] |= bit
	ps.acq.row(int(sl))[ps.pieceCnt[sl]] = int32(now)
	ps.pieceCnt[sl]++
	s.degree[j]++
	s.epoch++
	if s.ps.useRare {
		for _, nb := range ps.nbrRow(sl) {
			ps.rare[int(nb)*ps.pieces+j]++
		}
	}
}

// rareShift adds src's whole piece inventory to dst's rarest-first
// replication table delta times: +1 on link, -1 (as its uint16 two's
// complement, rareDec) on detach.
func (s *Swarm) rareShift(dst, src int32, delta uint16) {
	ps := &s.ps
	addInventory(ps, ps.rareRow(dst), src, delta)
}

// addInventory adds delta to row[j] for every piece j that src holds. An
// empty inventory — every fresh arrival — changes nothing, and a full one
// — every departing leecher and every seed — shifts the whole row without
// reading a single bit.
func addInventory[T int | uint16](ps *peerStore, row []T, src int32, delta T) {
	switch int(ps.pieceCnt[src]) {
	case 0:
	case ps.pieces:
		for j := range row {
			row[j] += delta
		}
	default:
		for wi, w := range ps.pieceRow(src) {
			for w != 0 {
				row[wi<<6+bits.TrailingZeros64(w)] += delta
				w &= w - 1
			}
		}
	}
}

const rareDec = ^uint16(0)

// link establishes the symmetric neighbor relation.
func (s *Swarm) link(p, q int32) {
	ps := &s.ps
	ps.insertNbr(p, q)
	ps.insertNbr(q, p)
	ps.nbrVer[p]++
	ps.nbrVer[q]++
	if s.ps.useRare {
		s.rareShift(p, q, 1)
		s.rareShift(q, p, 1)
	}
}

// detachAll removes every neighbor relation and connection of sl — a
// departure, a crash or a shake — in one pass over the partners' rows.
// The result is what unlinking the neighbors one by one would leave
// (invariants_test.go keeps that loop as the oracle): each partner loses
// sl from both of its rows and sl's inventory from its rare row, and sl's
// own rows and rare row, which that loop would shrink a neighbor at a
// time, are simply emptied.
func (s *Swarm) detachAll(sl int32) {
	ps := &s.ps
	row := ps.nbrRow(sl)
	ps.warm(row)
	for _, q := range row {
		ps.removeNbr(q, sl)
		ps.removeConn(q, sl)
		ps.nbrVer[q]++
		if s.ps.useRare {
			s.rareShift(q, sl, rareDec)
		}
	}
	ps.nbrVer[sl] += uint32(len(row))
	if len(row) == ps.nbr.k {
		ps.roomy++
	}
	ps.nbrLen[sl], ps.connLen[sl] = 0, 0
	if s.ps.useRare {
		clear(ps.rareRow(sl))
	}
}

// dropConn tears down the connection between p and q (the neighbor
// relation stays).
func (s *Swarm) dropConn(p, q int32) {
	s.ps.removeConn(p, q)
	s.ps.removeConn(q, p)
}

// Run executes the simulation to its horizon and returns the measurements.
func (s *Swarm) Run() (*Result, error) { return s.RunContext(nil) }

// RunContext is Run with cooperative cancellation: the context is polled
// before each exchange round, and a cancelled or expired context stops the
// run and returns the context's error — the hook that lets a serving
// deadline or a disconnected client abort a long simulation promptly. A
// nil ctx skips every check, making Run's fast path allocation-free.
func (s *Swarm) RunContext(ctx context.Context) (*Result, error) {
	if err := s.advance(ctx, s.cfg.Horizon); err != nil {
		return nil, err
	}
	s.res.finish(s)
	return s.res, nil
}

// Advance steps the simulation to virtual time t (capped at the horizon)
// without finalizing the Result — the warm-up hook for benchmarks and
// interactive inspection. A later Advance or Run continues from where the
// previous one stopped; the trajectory is identical to a single
// uninterrupted Run.
func (s *Swarm) Advance(t float64) error {
	return s.advance(nil, min(t, s.cfg.Horizon))
}

// advance fires rounds and arrivals in time order up to and including
// virtual time t, then moves the clock up to t. A cancelled ctx stops it
// before the next round, which a later call fires.
func (s *Swarm) advance(ctx context.Context, t float64) error {
	if s.cfg.Observer != nil {
		s.lapAt = time.Now()
	}
	for {
		round := s.nextRound < s.nextArrival ||
			s.nextRound == s.nextArrival && !s.arrivalFirst
		at := s.nextArrival
		if round {
			at = s.nextRound
		}
		if at > t {
			break
		}
		if round && ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s.now = at
		s.events++
		if round {
			s.round()
			s.nextRound, s.arrivalFirst = s.now+1, true
		} else {
			s.onArrival()
		}
	}
	s.now = max(s.now, t)
	return nil
}

// scheduleNextArrival draws the gap to the next Poisson arrival.
func (s *Swarm) scheduleNextArrival() {
	exp := stats.Exponential{Rate: s.cfg.ArrivalRate}
	s.nextArrival, s.arrivalFirst = s.now+exp.Sample(s.rng), false
}

// onArrival admits one leecher (unless the swarm is at MaxPeers) and
// draws the arrival after it.
func (s *Swarm) onArrival() {
	if s.cfg.MaxPeers == 0 || len(s.alive) < s.cfg.MaxPeers {
		sl := s.spawnLeecher(s.now)
		s.topUpNeighbors(sl)
		s.res.arrivals++
	}
	s.scheduleNextArrival()
}

// shuffledLeechersInto fills buf (resliced to zero length) with the live
// leecher slots in shuffled order and returns it. The fill order —
// ascending id — and the single Shuffle call match the map-based core, so
// the RNG stream is untouched.
func (s *Swarm) shuffledLeechersInto(buf []int32) []int32 {
	out := buf[:0]
	for _, sl := range s.alive {
		if !s.ps.seed[sl] {
			out = append(out, sl)
		}
	}
	s.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// round executes one exchange round as the numbered steps below. The
// order is the trajectory: every step that draws randomness does so in
// the leecher order fixed by the shuffle at the top. Each lap charges the
// time since the previous one to a RoundStats.StepNanos entry.
func (s *Swarm) round() {
	s.lap(stepArrivals) // the inter-round events end here
	now := s.now
	seedCount := len(s.seeds)
	s.leecherBuf = s.shuffledLeechersInto(s.leecherBuf)
	leechers := s.leecherBuf
	s.lastEntropy, s.lastEff, s.lastPR = math.NaN(), math.NaN(), math.NaN()
	s.res.rounds++
	s.lap(stepShuffle)
	leechers = s.applyFaults(now, leechers) // 0: blackout state, crash/rejoin churn
	s.lap(stepFaults)
	s.drawParticipation(leechers)
	s.lap(stepParticipation)
	s.trackerContact(leechers) // 1
	s.lap(stepTracker)
	s.maintainConns(leechers) // 2
	s.lap(stepMaintain)
	for _, p := range leechers { // 3: fill free slots from the potential set
		s.establishConns(p)
	}
	s.lap(stepEstablish)
	// 3b: injected failures land after re-pairing, so a failed connection
	// stays down until the next round's step 3 — the one-round repair lag
	// of the Section 5 migration chain.
	s.injectConnFailures(leechers)
	s.lap(stepConnFailures)
	// 4: persistence and utilization, before the exchange mutates interest.
	s.measureConnections(now, leechers)
	s.lap(stepMeasure)
	s.exchangeAll(now, leechers) // 5
	s.lap(stepExchange)
	s.seedUploads(now) // 6
	s.lap(stepSeedUploads)
	s.optimisticUnchokes(now) // 7
	s.lap(stepOptimistic)
	s.recordMetrics(now, leechers) // 8
	s.lap(stepMetrics)
	s.departures(now, leechers) // 9
	s.lap(stepDepartures)
	s.deliverRound(now, len(leechers), seedCount) // 10
}

// lap charges the host time since the previous lap to step. Without an
// observer it does nothing, so a plain Run never reads a clock.
func (s *Swarm) lap(step int) {
	if s.cfg.Observer == nil {
		return
	}
	t := time.Now()
	s.stepNanos[step] += t.Sub(s.lapAt).Nanoseconds()
	s.lapAt = t
}

// drawParticipation models heterogeneous bandwidth: slow peers sit out
// some exchange rounds. The participation stamp marks this round's
// leechers so the edge accounting in measureConnections can tell them
// apart from mid-round rejoiners. The tracker-overdue counter rides in
// the same pass; it draws no randomness, so fusing the loops leaves the
// RNG stream untouched.
func (s *Swarm) drawParticipation(leechers []int32) {
	ps := &s.ps
	for _, p := range leechers {
		ps.active[p] = !ps.slow[p] || s.rng.Bernoulli(s.cfg.SlowPeerRate)
		ps.inRound[p] = int32(s.res.rounds)
		ps.sinceTracker[p]++
	}
}

// trackerContact tops up sparse neighbor sets periodically, and applies
// the Section 7.1 shake when configured. During an injected tracker
// blackout the step is skipped wholesale — peers keep trading over their
// existing connections (graceful degradation) and their overdue counters
// keep growing, so the first round after the blackout performs the
// catch-up re-announce.
func (s *Swarm) trackerContact(leechers []int32) {
	if s.trackerDark {
		return
	}
	ps := &s.ps
	for _, p := range leechers {
		if s.cfg.ShakeThreshold > 0 && !ps.shaken[p] && s.completionFrac(p) >= s.cfg.ShakeThreshold {
			s.shake(p)
		}
		if int(ps.sinceTracker[p]) >= s.cfg.TrackerRefreshRounds ||
			int(ps.nbrLen[p]) < s.cfg.NeighborSet/2 {
			s.topUpNeighbors(p)
			ps.sinceTracker[p] = 0
		}
	}
}

// maintainConns drops pairs with no remaining mutual interest (the
// strict tit-for-tat condition).
func (s *Swarm) maintainConns(leechers []int32) {
	ps := &s.ps
	for _, p := range leechers {
		if ps.connLen[p] == 0 {
			continue
		}
		s.connScratch = append(s.connScratch[:0], ps.connRow(p)...)
		pw := ps.pieceRow(p)
		for _, q := range s.connScratch {
			if qw := ps.pieceRow(q); ps.id[p] < ps.id[q] && !(bitset.RowAnyAndNot(qw, pw) && bitset.RowAnyAndNot(pw, qw)) {
				s.dropConn(p, q)
				s.res.connsDropped++
			}
		}
	}
}

// departures lets completed leechers leave (immediately, or after a
// configured lingering period during which they serve as seeds) and
// discouraged leechers abort early; lingering seeds count down and
// eventually leave too.
func (s *Swarm) departures(now float64, leechers []int32) {
	for _, p := range leechers {
		switch {
		case s.ps.complete(p):
			if s.cfg.SeedLingerRounds > 0 {
				s.startLinger(p, now)
			} else {
				s.depart(p, now)
			}
		case s.cfg.AbortRate > 0 && s.rng.Bernoulli(s.cfg.AbortRate):
			s.abort(p)
		}
	}
	s.expireLingerers()
	s.compactAlive()
}

// deliverRound hands the round's telemetry to the configured observer.
// The deltas are taken against the previous round's snapshot so events
// fired between rounds (Poisson arrivals, with their tracker tries) are
// attributed to the round that follows them.
func (s *Swarm) deliverRound(now float64, leechers, seedCount int) {
	o := s.cfg.Observer
	if o == nil {
		return
	}
	post, done := s.res.counters, s.res.NumCompletions()
	prev, prevDone := s.prevSnap, s.prevDone
	s.prevSnap, s.prevDone = post, done
	steps := s.stepNanos
	s.stepNanos = [NumSteps]int64{}
	o.ObserveRound(RoundStats{
		Time:         now,
		Round:        s.res.rounds,
		Leechers:     leechers,
		Seeds:        seedCount,
		Peers:        len(s.alive),
		MemBytes:     s.ps.memBytes(),
		Arrivals:     post.arrivals - prev.arrivals,
		Exchanges:    post.exchanges - prev.exchanges,
		SeedUploads:  post.seedUploads - prev.seedUploads,
		Optimistic:   post.optimistic - prev.optimistic,
		Shakes:       post.shakes - prev.shakes,
		Aborts:       post.aborts - prev.aborts,
		Completions:  done - prevDone,
		ConnsFormed:  post.connsFormed - prev.connsFormed,
		ConnsDropped: post.connsDropped - prev.connsDropped,
		FaultDrops:   post.faultDrops - prev.faultDrops,
		Crashes:      post.crashes - prev.crashes,
		Rejoins:      post.rejoins - prev.rejoins,
		TrackerTries: post.trackerTries - prev.trackerTries,
		TrackerLinks: post.trackerLinks - prev.trackerLinks,
		TrackerDark:  s.trackerDark,
		Entropy:      s.lastEntropy,
		Efficiency:   s.lastEff,
		PR:           s.lastPR,
		StepNanos:    steps,
	})
}

// startLinger records the completion and converts the leecher into a
// temporary seed.
func (s *Swarm) startLinger(p int32, now float64) {
	s.recordCompletion(p, now)
	s.ps.seed[p] = true
	s.ps.tracked[p] = false // the download trace ended at completion
	s.ps.traceIdx[p] = -1
	s.ps.lingerLeft[p] = int32(s.cfg.SeedLingerRounds)
	s.seeds = append(s.seeds, p)
	s.res.lingered++
	s.epoch++ // a seed flip changes interest relations everywhere
}

// expireLingerers removes temporary seeds whose lingering period ended
// (their completion was already recorded when lingering began).
func (s *Swarm) expireLingerers() {
	kept := s.seeds[:0]
	for _, sd := range s.seeds {
		if s.ps.lingerLeft[sd] > 0 {
			s.ps.lingerLeft[sd]--
			if s.ps.lingerLeft[sd] == 0 {
				s.removePeer(sd, true)
				continue
			}
		}
		kept = append(kept, sd)
	}
	s.seeds = kept
}

// removePeer detaches a peer and marks it gone; the caller's loop ends
// with compactAlive, and nothing reads the alive list in between. With
// freeSlot the slot returns to the free list (its data stays readable
// until the next alloc); crashes keep their slot reserved for the rejoin.
func (s *Swarm) removePeer(sl int32, freeSlot bool) {
	s.detachAll(sl)
	s.ps.gone[sl] = true
	s.ps.roomy--
	s.removed++
	if freeSlot {
		s.ps.freeSlot(sl)
	}
}

// compactAlive drops the peers removed since the last call from the
// alive list, and their inventories from the degree table, in one pass —
// a departure apiece would move the tail of the list once per departure,
// O(population) each.
func (s *Swarm) compactAlive() {
	if s.removed == 0 {
		return
	}
	kept := s.alive[:0]
	for _, sl := range s.alive {
		if s.ps.gone[sl] {
			addInventory(&s.ps, s.degree, sl, -1)
		} else {
			kept = append(kept, sl)
		}
	}
	s.alive, s.removed = kept, 0
}

// aliveInsert puts a slot back into the sorted alive list (rejoins break
// the monotonic-append invariant the list otherwise relies on).
func (s *Swarm) aliveInsert(sl int32) {
	id := s.ps.id[sl]
	i := sort.Search(len(s.alive), func(i int) bool { return s.ps.id[s.alive[i]] >= id })
	s.alive = append(s.alive, 0)
	copy(s.alive[i+1:], s.alive[i:])
	s.alive[i] = sl
	addInventory(&s.ps, s.degree, sl, 1)
	s.ps.gone[sl] = false
	s.ps.roomy++
}

// abort removes a leecher that gave up before completing. Its pieces
// leave the swarm with it (the replication-degree drain that drives the
// Section 6 instability).
func (s *Swarm) abort(p int32) {
	s.removePeer(p, true)
	s.res.aborts++
}

func (s *Swarm) completionFrac(p int32) float64 {
	return float64(s.ps.pieceCnt[p]) / float64(s.cfg.Pieces)
}

// shake drops the entire neighbor set and requests a fresh random one from
// the tracker (Section 7.1).
func (s *Swarm) shake(p int32) {
	s.detachAll(p)
	s.topUpNeighbors(p)
	s.ps.shaken[p] = true
	s.res.shakes++
}

// topUpNeighbors asks the tracker for random peers until the neighbor set
// reaches its capacity (or the sampling budget runs out). The relation is
// symmetric; the partner must also have room. Random candidates are drawn
// by index into the sorted alive list, which keeps a round's tracker work
// O(s) per peer instead of O(population).
func (s *Swarm) topUpNeighbors(p int32) {
	ps := &s.ps
	want := s.cfg.NeighborSet - int(ps.nbrLen[p])
	if want <= 0 || len(s.alive) < 2 {
		return
	}
	// Cap the sampling effort: with rejection for duplicates/full peers,
	// a handful of tries per wanted slot suffices in practice.
	need, tries := want, 8*want
	// A try can only link a roomy peer that is neither p (roomy, since it
	// wants neighbors) nor one of its neighbors already. Once none is left
	// the outcome of every further try is known, and only its draw remains.
	viable, row := ps.roomy-1, ps.nbr.row(int(p))
	for _, q := range row[:ps.nbrLen[p]] {
		if int(ps.nbrLen[q]) < ps.nbr.k {
			viable--
		}
	}
	for ; tries > 0 && need > 0; tries-- {
		r := s.rng.IntN(len(s.alive))
		if viable == 0 {
			continue
		}
		// Rejections draw nothing, so the O(1) tests go first.
		if q := s.alive[r]; q != p && int(ps.nbrLen[q]) < ps.nbr.k && !slices.Contains(row[:ps.nbrLen[p]], q) {
			s.link(p, q)
			need--
			viable--
		}
	}
	s.res.trackerTries += 8*want - tries
	s.res.trackerLinks += want - need
}

// establishConns fills p's free connection slots from neighbors with
// mutual interest and free slots of their own.
func (s *Swarm) establishConns(p int32) {
	ps := &s.ps
	free := s.cfg.MaxConns - int(ps.connLen[p])
	// A peer with no piece has nothing any neighbor lacks, so its potential
	// set is empty; in a churning swarm most scans would be fresh arrivals'.
	if free <= 0 || ps.pieceCnt[p] == 0 {
		return
	}
	// Quiescence memo: the last scan found the potential set empty
	// (the connection-state filters below only shrink it) and nothing that
	// could change that has happened since. An empty candidate set
	// consumes no randomness, so skipping the scan leaves the RNG stream
	// untouched.
	if ps.potVal[p] == 0 && ps.potEpoch[p] == s.epoch && ps.potVer[p] == ps.nbrVer[p] {
		return
	}
	potential, conns := s.potentialSet(p), ps.connRow(p)
	cands := potential[:0]
	for _, q := range potential {
		if !slices.Contains(conns, q) && int(ps.connLen[q]) < s.cfg.MaxConns {
			cands = append(cands, q)
		}
	}
	s.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	for _, q := range cands {
		if free == 0 {
			return
		}
		ps.insertConn(p, q)
		ps.insertConn(q, p)
		s.res.connsFormed++
		free--
	}
}

// depart removes a completed leecher from the swarm.
func (s *Swarm) depart(p int32, now float64) {
	s.removePeer(p, true)
	s.recordCompletion(p, now)
}

// measureConnections samples connection persistence (the model's p_r) and
// slot utilization (the efficiency η) at the top of the round.
//
// The map-based core kept two edge-key maps and ping-ponged them; here
// each leecher stamps its partner ids into a fixed prev row, validated by
// an owner id plus the round ordinal, so persistence is measured with no
// map and no allocation. An undirected edge is counted once: from its
// lower-id endpoint when both ends are this round's leechers, otherwise
// from the leecher side (the partner may be a lingering seed or a
// mid-round rejoiner that sat the round out). An edge persisted when
// either endpoint's validated prev row records it — matching the old
// edge-set semantics, where any leecher endpoint's entry was enough.
func (s *Swarm) measureConnections(now float64, leechers []int32) {
	ps := &s.ps
	used, curCount, survived := 0, 0, 0
	thisRound := int32(s.res.rounds)
	lastRound := thisRound - 1
	inPrev := func(p, q int32) bool {
		if ps.prevOwner[p] != ps.id[p] || ps.prevRound[p] != lastRound {
			return false
		}
		return slices.Contains(ps.prev.row(int(p))[:ps.prevLen[p]], ps.id[q])
	}
	for _, p := range leechers {
		used += int(ps.connLen[p])
		pid := ps.id[p]
		for _, q := range ps.connRow(p) {
			if pid < ps.id[q] || ps.seed[q] || ps.inRound[q] != thisRound {
				curCount++
				if inPrev(p, q) || inPrev(q, p) {
					survived++
				}
			}
		}
	}
	if s.prevCount > 0 {
		pr := float64(survived) / float64(s.prevCount)
		_ = s.res.PRSeries.Append(now, pr)
		s.res.prAcc.Add(pr)
		s.lastPR = pr
	}
	s.prevCount = curCount
	for _, p := range leechers {
		row, prev := ps.connRow(p), ps.prev.row(int(p))
		for i, q := range row {
			prev[i] = ps.id[q]
		}
		ps.prevLen[p] = int32(len(row))
		ps.prevOwner[p] = ps.id[p]
		ps.prevRound[p] = int32(s.res.rounds)
	}
	if len(leechers) > 0 {
		eff := float64(used) / float64(s.cfg.MaxConns*len(leechers))
		_ = s.res.EfficiencySeries.Append(now, eff)
		s.res.effAcc.Add(eff)
		s.lastEff = eff
	}
}

// exchangeAll performs the strict tit-for-tat piece exchange: over each
// active connection, both endpoints transfer one piece the other lacks.
// If either side has nothing to give, no transfer happens and the
// connection is dropped.
func (s *Swarm) exchangeAll(now float64, leechers []int32) {
	ps := &s.ps
	for _, p := range leechers {
		if !ps.active[p] || ps.connLen[p] == 0 {
			continue
		}
		s.connScratch = append(s.connScratch[:0], ps.connRow(p)...)
		pid := ps.id[p]
		for _, q := range s.connScratch {
			if pid >= ps.id[q] {
				continue // handle each undirected edge once
			}
			if !ps.active[q] {
				continue // slow endpoint sits this round out
			}
			pj := s.pickPiece(q, p) // piece for p, from q's inventory
			qj := s.pickPiece(p, q) // piece for q, from p's inventory
			if pj < 0 || qj < 0 {
				s.dropConn(p, q)
				s.res.connsDropped++
				continue
			}
			s.give(p, pj, now)
			s.give(q, qj, now)
			s.res.exchanges += 2
		}
	}
}

// pickPiece chooses the piece dst should request from src, honoring the
// configured selection strategy. It returns -1 when src has nothing dst
// lacks. The candidate set is never materialized: counting, uniform
// selection, and the rarest-first scan all run on the bitset rows
// directly, with the per-neighbor replication counts read from the
// incrementally maintained rare table.
func (s *Swarm) pickPiece(src, dst int32) int {
	ps := &s.ps
	srow, drow := ps.pieceRow(src), ps.pieceRow(dst)
	n := bitset.RowAndNotCount(srow, drow)
	if n == 0 {
		return -1
	}
	if s.cfg.PieceSelection == RandomFirst || n == 1 {
		return bitset.RowSelectAndNot(srow, drow, s.rng.IntN(n))
	}
	// Rarest-first within dst's neighbor view, with a random rotation
	// origin as the tie-break — equivalent to scanning the candidate list
	// rotated by offset and keeping the first strict minimum.
	offset := s.rng.IntN(n)
	rare := ps.rareRow(dst)
	best, bestCount, bestPrio := -1, math.MaxInt, math.MaxInt
	k := 0
	for wi, w := range srow {
		diff := w &^ drow[wi]
		for diff != 0 {
			b := bits.TrailingZeros64(diff)
			diff &= diff - 1
			c := int(rare[wi<<6+b])
			prio := k - offset
			if prio < 0 {
				prio += n
			}
			if c < bestCount || (c == bestCount && prio < bestPrio) {
				best, bestCount, bestPrio = wi<<6+b, c, prio
			}
			k++
		}
	}
	return best
}

// seedUploads lets each seed push SeedUpload pieces per round to random
// interested neighbors; seeds do not enforce tit-for-tat. With SuperSeed
// enabled, a seed additionally withholds pieces it has already handed out
// until it sees them replicated on at least two leechers (Section 7.2),
// maximizing the distinct pieces injected per unit of seed bandwidth.
func (s *Swarm) seedUploads(now float64) {
	ps := &s.ps
	if s.cfg.SuperSeed {
		s.releaseConfirmedPieces()
	}
	for _, sd := range s.seeds {
		interested := s.candBuf[:0]
		for _, q := range ps.nbrRow(sd) {
			if !ps.seed[q] && !ps.complete(q) && ps.active[q] {
				interested = append(interested, q)
			}
		}
		s.candBuf = interested
		if len(interested) == 0 {
			continue
		}
		s.rng.Shuffle(len(interested), func(i, j int) {
			interested[i], interested[j] = interested[j], interested[i]
		})
		for u := 0; u < s.cfg.SeedUpload; u++ {
			s.seedUploadOne(sd, interested[u%len(interested)], now)
		}
	}
}

// seedUploadOne pushes one piece from seed sd to leecher q.
func (s *Swarm) seedUploadOne(sd, q int32, now float64) {
	var j int
	if s.cfg.SuperSeed {
		j = s.pickSuperSeedPiece(q)
	} else {
		j = s.pickPiece(sd, q)
	}
	if j < 0 {
		return
	}
	s.give(q, j, now)
	s.res.seedUploads++
	if s.cfg.SuperSeed {
		s.superPending[j] = true
	}
}

// pickSuperSeedPiece chooses the rarest piece (by leecher replication)
// that the target lacks and that is not pending confirmation.
func (s *Swarm) pickSuperSeedPiece(q int32) int {
	qrow := s.ps.pieceRow(q)
	best := -1
	bestDeg := math.MaxInt
	offset := s.rng.IntN(s.cfg.Pieces)
	for i := 0; i < s.cfg.Pieces; i++ {
		j := (i + offset) % s.cfg.Pieces
		if bitset.RowHas(qrow, j) || s.superPending[j] {
			continue
		}
		if d := s.leecherDegree(j); d < bestDeg {
			best, bestDeg = j, d
		}
	}
	return best
}

// leecherDegree is piece j's replication among leechers only (the seed's
// view of how well a handed-out piece has spread): every live seed holds
// every piece, so it is the degree table less the seed count.
func (s *Swarm) leecherDegree(j int) int { return s.degree[j] - len(s.seeds) }

// releaseConfirmedPieces clears the pending flag of pieces the swarm has
// replicated on its own (two or more leecher copies) — and of pieces that
// vanished entirely (their only holder departed), which the seed must
// re-inject or they would stay pending forever in churny swarms.
func (s *Swarm) releaseConfirmedPieces() {
	for j := range s.superPending {
		if d := s.leecherDegree(j); d >= 2 || d == 0 {
			delete(s.superPending, j)
		}
	}
}

// optimisticUnchokes models BitTorrent's optimistic unchoke: each leecher
// with a spare slot occasionally donates one piece to a random neighbor
// that wants something but has nothing to offer in return — the mechanism
// that hands empty peers their first piece. The donors are visited in a
// fresh shuffle of the live leechers (a second, independent order per
// round).
func (s *Swarm) optimisticUnchokes(now float64) {
	if s.cfg.OptimisticProb == 0 {
		return
	}
	ps := &s.ps
	s.unchokeBuf = s.shuffledLeechersInto(s.unchokeBuf)
	memoOK := s.cfg.SlowPeerFraction == 0
	for _, p := range s.unchokeBuf {
		if ps.pieceCnt[p] == 0 || int(ps.connLen[p]) >= s.cfg.MaxConns {
			continue
		}
		if !s.rng.Bernoulli(s.cfg.OptimisticProb) {
			continue
		}
		// Quiescence memo, same argument as establishConns: a proven-empty
		// recipient scan consumes no randomness, so skipping it is
		// trajectory-neutral. Disabled with slow peers, whose per-round
		// participation flips outside the memo key. The Bernoulli above comes
		// first because its draw is part of the pinned per-peer stream order.
		if memoOK && ps.optEpoch[p] == s.epoch && ps.optVer[p] == ps.nbrVer[p] {
			continue
		}
		cands := s.candBuf[:0]
		pw := ps.pieceRow(p)
		for _, q := range ps.nbrRow(p) {
			if ps.seed[q] || ps.complete(q) || !ps.active[q] {
				continue
			}
			// q wants something of p's and has nothing p lacks.
			if qw := ps.pieceRow(q); bitset.RowAnyAndNot(pw, qw) && !bitset.RowAnyAndNot(qw, pw) {
				cands = append(cands, q)
			}
		}
		s.candBuf = cands
		if len(cands) == 0 {
			if memoOK {
				ps.optEpoch[p] = s.epoch
				ps.optVer[p] = ps.nbrVer[p]
			}
			continue
		}
		q := cands[s.rng.IntN(len(cands))]
		if j := s.pickPiece(p, q); j >= 0 {
			s.give(q, j, now)
			s.res.optimistic++
		}
	}
}

// potentialSet scans for the neighbors with whom strict trade is possible
// right now (the paper's potential set), into the shared candidate buffer.
// Its size is cached per slot against the (epoch, neighbor-version) pair,
// so in quiescent stretches potentialSize and establishConns cost two
// comparisons instead of a neighbor scan.
func (s *Swarm) potentialSet(p int32) []int32 {
	ps := &s.ps
	s.candBuf = ps.tradable(s.candBuf, p)
	ps.potEpoch[p], ps.potVer[p], ps.potVal[p] = s.epoch, ps.nbrVer[p], int32(len(s.candBuf))
	return s.candBuf
}

// potentialSize is the size of p's potential set, from the cache when it
// is current.
func (s *Swarm) potentialSize(p int32) int {
	if ps := &s.ps; ps.potEpoch[p] == s.epoch && ps.potVer[p] == ps.nbrVer[p] {
		return int(ps.potVal[p])
	}
	return len(s.potentialSet(p))
}

// recordMetrics appends the per-round aggregate series and tracked-peer
// trace samples. Only a tracked peer's potential set is measured; without
// tracked peers or a census, no leecher is visited.
func (s *Swarm) recordMetrics(now float64, leechers []int32) {
	ps := &s.ps
	_ = s.res.PopulationSeries.Append(now, float64(len(leechers)))
	ent := core.Entropy(s.degree)
	_ = s.res.EntropySeries.Append(now, ent)
	s.lastEntropy = ent
	if s.cfg.TrackPeers == 0 && !s.cfg.PieceCensus {
		return
	}

	var census []int32
	if s.cfg.PieceCensus {
		census = make([]int32, s.cfg.Pieces+1)
	}
	for _, p := range leechers {
		b := int(ps.pieceCnt[p])
		if census != nil && b <= s.cfg.Pieces {
			census[b]++
		}
		if ps.tracked[p] {
			idx := ps.traceIdx[p]
			s.traces[idx] = append(s.traces[idx], TraceSample{
				Time: now, Pieces: b, Potential: s.potentialSize(p), Conns: int(ps.connLen[p]),
			})
		}
	}
	if census != nil {
		s.res.CensusT = append(s.res.CensusT, now)
		s.res.Census = append(s.res.Census, census)
	}
}

// recordCompletion logs a completed leecher's record and its
// acquisition log — B rounds, one per piece — in the Result.
func (s *Swarm) recordCompletion(sl int32, now float64) {
	ps := &s.ps
	s.res.logCompletion(CompletionRecord{ID: ps.id[sl], ArrivedAt: ps.arrived[sl], DoneAt: now},
		ps.acq.row(int(sl)))
	if ps.tracked[sl] {
		var samples []TraceSample
		if idx := ps.traceIdx[sl]; idx >= 0 {
			samples = s.traces[idx]
		}
		s.res.Traces = append(s.res.Traces, PeerTrace{
			ID: ps.id[sl], ArrivedAt: ps.arrived[sl], Completed: true, Samples: samples,
		})
	}
}
