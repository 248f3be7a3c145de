package sim

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/bitset"
)

// checkInvariants is the one structural oracle of the package: it
// re-derives from scratch everything the round loop maintains
// incrementally and fails t on the first disagreement. It is meant to be
// called after every round (see runChecked); each family below is one
// thing a bug in link/detachAll/give/removePeer/rejoin would break first.
func checkInvariants(t testing.TB, s *Swarm) {
	t.Helper()
	ps, cfg := &s.ps, s.cfg
	round := s.res.rounds

	// alive: sorted by id, no slot twice, disjoint from the free list and
	// from the slots reserved for crashed peers.
	inAlive := make(map[int32]bool, len(s.alive))
	for i, sl := range s.alive {
		if i > 0 && ps.id[s.alive[i-1]] >= ps.id[sl] {
			t.Fatalf("round %d: alive not sorted by id at %d: %d then %d",
				round, i, ps.id[s.alive[i-1]], ps.id[sl])
		}
		if ps.gone[sl] {
			t.Fatalf("round %d: peer %d is alive and marked gone", round, ps.id[sl])
		}
		inAlive[sl] = true
	}
	offline := make(map[int32]bool, len(ps.free)+len(s.crashList))
	for _, sl := range ps.free {
		if offline[sl] {
			t.Fatalf("round %d: slot %d is on the free list twice", round, sl)
		}
		offline[sl] = true
	}
	for _, rec := range s.crashList {
		if offline[rec.sl] {
			t.Fatalf("round %d: crashed slot %d is also free (or crashed twice)", round, rec.sl)
		}
		offline[rec.sl] = true
	}
	for sl := range offline {
		if inAlive[sl] {
			t.Fatalf("round %d: slot %d (peer %d) is alive and on the free/crash list",
				round, sl, ps.id[sl])
		}
	}
	// A crashed peer waits for its rejoin detached from everything: marked
	// gone, no neighbor, no connection, and an all-zero rare row — which
	// detachAll clears in bulk instead of decrementing it empty.
	for _, rec := range s.crashList {
		sl := rec.sl
		if !ps.gone[sl] || ps.nbrLen[sl] != 0 || ps.connLen[sl] != 0 {
			t.Fatalf("round %d: crashed peer %d: gone %v, %d neighbors, %d conns",
				round, ps.id[sl], ps.gone[sl], ps.nbrLen[sl], ps.connLen[sl])
		}
		if s.ps.useRare {
			for j, c := range ps.rareRow(sl) {
				if c != 0 {
					t.Fatalf("round %d: crashed peer %d keeps rare[%d] = %d", round, ps.id[sl], j, c)
				}
			}
		}
	}
	if len(s.alive)+len(offline) != len(ps.id) {
		t.Fatalf("round %d: %d alive + %d free/crashed slots != %d allocated",
			round, len(s.alive), len(offline), len(ps.id))
	}

	// The seed list is exactly the alive slots flagged as seeds.
	seeds := 0
	for _, sl := range s.alive {
		if ps.seed[sl] {
			seeds++
		}
	}
	for _, sd := range s.seeds {
		if !inAlive[sd] || !ps.seed[sd] {
			t.Fatalf("round %d: seed list holds slot %d (alive %v, seed flag %v)",
				round, sd, inAlive[sd], ps.seed[sd])
		}
	}
	if seeds != len(s.seeds) {
		t.Fatalf("round %d: %d alive seeds, seed list has %d", round, seeds, len(s.seeds))
	}

	// sortedLive checks one adjacency row: strictly ascending partner id
	// (so no duplicates), every partner alive, no self-loop.
	sortedLive := func(kind string, sl int32, row []int32) {
		t.Helper()
		for i, q := range row {
			if q == sl || !inAlive[q] {
				t.Fatalf("round %d: peer %d has %s %d (self or not alive)",
					round, ps.id[sl], kind, ps.id[q])
			}
			if i > 0 && ps.id[row[i-1]] >= ps.id[q] {
				t.Fatalf("round %d: peer %d %s row not sorted by id", round, ps.id[sl], kind)
			}
		}
	}
	leechers, roomy := 0, 0
	for _, sl := range s.alive {
		id := ps.id[sl]
		if !ps.seed[sl] {
			leechers++
		} else if int(ps.pieceCnt[sl]) != cfg.Pieces {
			// The neighbor scans rely on it: a seed lacks nothing, so it is
			// never anyone's mutual-interest partner.
			t.Fatalf("round %d: seed %d holds %d of %d pieces", round, id, ps.pieceCnt[sl], cfg.Pieces)
		}
		if int(ps.nbrLen[sl]) < cfg.NeighborSet {
			roomy++
		}

		nbrs, conns := ps.nbrRow(sl), ps.connRow(sl)
		if len(nbrs) > cfg.NeighborSet {
			t.Fatalf("round %d: peer %d has %d neighbors > s=%d", round, id, len(nbrs), cfg.NeighborSet)
		}
		if len(conns) > cfg.MaxConns {
			t.Fatalf("round %d: peer %d has %d conns > k=%d", round, id, len(conns), cfg.MaxConns)
		}
		sortedLive("neighbor", sl, nbrs)
		sortedLive("conn", sl, conns)
		for _, q := range nbrs {
			if !ps.hasNbr(q, sl) {
				t.Fatalf("round %d: neighbor relation asymmetric: %d -> %d", round, id, ps.id[q])
			}
		}
		for _, q := range conns {
			if !ps.hasNbr(sl, q) {
				t.Fatalf("round %d: connection outside neighbor set: %d -> %d", round, id, ps.id[q])
			}
			if !ps.connected(q, sl) {
				t.Fatalf("round %d: connection asymmetric: %d -> %d", round, id, ps.id[q])
			}
		}

		// Piece inventory: the incremental popcount against the bitset row.
		held := 0
		for _, w := range ps.pieceRow(sl) {
			held += bits.OnesCount64(w)
		}
		if held != int(ps.pieceCnt[sl]) || held > cfg.Pieces {
			t.Fatalf("round %d: peer %d pieceCnt %d, row popcount %d (B=%d)",
				round, id, ps.pieceCnt[sl], held, cfg.Pieces)
		}

		// Rarest-first view: the incremental table against a recount over
		// the neighbor row.
		if s.ps.useRare {
			recount := make([]int, cfg.Pieces)
			for _, q := range nbrs {
				countRowInto(recount, ps.pieceRow(q))
			}
			for j, want := range recount {
				if got := int(ps.rareRow(sl)[j]); got != want {
					t.Fatalf("round %d: peer %d rare[%d] = %d, recount over neighbors = %d",
						round, id, j, got, want)
				}
			}
		}
	}

	if ps.roomy != roomy {
		t.Fatalf("round %d: roomy = %d, %d alive peers have a free neighbor slot", round, ps.roomy, roomy)
	}
	checkDegrees(t, s)

	// A tracked leecher of this round was sampled by recordMetrics, and
	// its sample's potential is the tradable scan of that moment. Without
	// aborts, departures cannot change a survivor's potential set — a
	// completed leaver or a seed lacks nothing, so it is nobody's trading
	// partner — so the scan repeated now must agree.
	if cfg.AbortRate == 0 && round > 0 {
		for _, sl := range s.alive {
			if !ps.tracked[sl] || ps.inRound[sl] != int32(round) {
				continue
			}
			samples := s.traces[ps.traceIdx[sl]]
			last := samples[len(samples)-1]
			if want := len(ps.tradable(nil, sl)); last.Time != s.now || last.Potential != want {
				t.Fatalf("round %d: tracked peer %d's newest sample %+v, want potential %d at t=%g",
					round, ps.id[sl], last, want, s.now)
			}
		}
	}

	// Every peer that ever joined is somewhere: done (lingering seeds were
	// recorded at completion), aborted, present, or crashed (awaiting
	// rejoin or gone for good).
	crashed := s.res.crashes - s.res.rejoins
	if cfg.Faults != nil && cfg.Faults.RejoinAfter > 0 && crashed != len(s.crashList) {
		t.Fatalf("round %d: crashes %d - rejoins %d != %d awaiting rejoin",
			round, s.res.crashes, s.res.rejoins, len(s.crashList))
	}
	joined := cfg.InitialPeers + s.res.arrivals
	if accounted := s.res.NumCompletions() + s.res.aborts + leechers + crashed; joined != accounted {
		t.Fatalf("round %d: joined %d != completed %d + aborted %d + present %d + crashed %d",
			round, joined, s.res.NumCompletions(), s.res.aborts, leechers, crashed)
	}

	// The census row of the round partitions that round's population.
	if cfg.PieceCensus {
		pop := s.res.PopulationSeries
		if len(s.res.Census) != pop.Len() || len(s.res.CensusT) != pop.Len() {
			t.Fatalf("round %d: %d census rows, %d census times, %d population samples",
				round, len(s.res.Census), len(s.res.CensusT), pop.Len())
		}
		if n := pop.Len(); n > 0 {
			sum := 0
			for _, c := range s.res.Census[n-1] {
				sum += int(c)
			}
			if float64(sum) != pop.V[n-1] {
				t.Fatalf("round %d: census sums to %d, population sample is %g", round, sum, pop.V[n-1])
			}
		}
	}
}

// checkDegrees recounts every piece's replication degree over alive from
// the piece rows and requires the table the round maintains to agree.
func checkDegrees(t testing.TB, s *Swarm) {
	t.Helper()
	recount := make([]int, s.cfg.Pieces)
	for _, sl := range s.alive {
		countRowInto(recount, s.ps.pieceRow(sl))
	}
	if !slices.Equal(s.degree, recount) {
		t.Fatalf("round %d: degree table %v, recount over alive %v", s.res.rounds, s.degree, recount)
	}
}

// TestDegreeFollowsAlive: the degree table counts the slots in alive,
// which keeps a removed peer until compactAlive drops it — so removePeer
// leaves the table alone, and compactAlive takes the pieces out.
func TestDegreeFollowsAlive(t *testing.T) {
	cfg := smallConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(10); err != nil {
		t.Fatal(err)
	}
	for _, sl := range s.alive {
		if !s.ps.seed[sl] && s.ps.pieceCnt[sl] > 0 {
			s.removePeer(sl, true)
			checkDegrees(t, s)
			s.compactAlive()
			checkDegrees(t, s)
			return
		}
	}
	t.Fatal("no leecher holds a piece after 10 rounds")
}

// countRowInto increments out[j] for every bit j set in the row.
func countRowInto(out []int, row []uint64) {
	for wi, w := range row {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			out[wi<<6+b]++
		}
	}
}

// hasNbr reports whether q is in p's neighbor row.
func (ps *peerStore) hasNbr(p, q int32) bool { return slices.Contains(ps.nbrRow(p), q) }

// connected reports whether p and q share a connection.
func (ps *peerStore) connected(p, q int32) bool { return slices.Contains(ps.connRow(p), q) }

// adjacency is a deep copy of everything detachAll may write.
type adjacency struct {
	nbr, nbrLen, conn, connLen []int32
	nbrVer                     []uint32
	rare                       []uint16
	roomy                      int
}

// snapshotAdjacency copies the paged rows of every slot into flat rows of
// the same strides.
func snapshotAdjacency(ps *peerStore) adjacency {
	a := adjacency{
		nbrLen: slices.Clone(ps.nbrLen), connLen: slices.Clone(ps.connLen),
		nbrVer: slices.Clone(ps.nbrVer), roomy: ps.roomy,
	}
	for sl := int32(0); int(sl) < len(ps.id); sl++ {
		a.nbr = append(a.nbr, ps.nbr.row(int(sl))...)
		a.conn = append(a.conn, ps.conn.row(int(sl))...)
		if ps.useRare {
			a.rare = append(a.rare, ps.rareRow(sl)...)
		}
	}
	return a
}

func (a adjacency) restore(ps *peerStore) {
	for sl := int32(0); int(sl) < len(ps.id); sl++ {
		copy(ps.nbr.row(int(sl)), a.nbr[int(sl)*ps.nbr.k:])
		copy(ps.conn.row(int(sl)), a.conn[int(sl)*ps.conn.k:])
		if ps.useRare {
			copy(ps.rareRow(sl), a.rare[int(sl)*ps.pieces:])
		}
	}
	copy(ps.nbrLen, a.nbrLen)
	copy(ps.connLen, a.connLen)
	copy(ps.nbrVer, a.nbrVer)
	ps.roomy = a.roomy
}

// unlinkOracle is the per-edge removal detachAll replaced, kept as its
// reference: it takes q out of p's rows and p out of q's, and each one's
// inventory out of the other's rare row a piece at a time.
func unlinkOracle(s *Swarm, p, q int32) {
	ps := &s.ps
	ps.removeNbr(p, q)
	ps.removeNbr(q, p)
	ps.removeConn(p, q)
	ps.removeConn(q, p)
	ps.nbrVer[p]++
	ps.nbrVer[q]++
	if s.ps.useRare {
		for j := 0; j < ps.pieces; j++ {
			if bitset.RowHas(ps.pieceRow(q), j) {
				ps.rareRow(p)[j]--
			}
			if bitset.RowHas(ps.pieceRow(p), j) {
				ps.rareRow(q)[j]--
			}
		}
	}
}

// checkDetachAll detaches every alive peer in turn, once with detachAll
// and once by unlinking its neighbors one by one from a snapshot of the
// row, and requires the two to leave every allocated slot's rows, lengths,
// versions and rare counts identical. The swarm is restored after each.
// The peers a round really detaches (departures, crashes, shakes) are a
// subset of the states this visits: seeds take rareShift's whole-row
// path, fresh arrivals its empty one, everyone else the bit loop.
func checkDetachAll(t testing.TB, s *Swarm) {
	t.Helper()
	ps := &s.ps
	before := snapshotAdjacency(ps)
	for _, sl := range s.alive {
		s.detachAll(sl)
		got := snapshotAdjacency(ps)
		before.restore(ps)
		for _, q := range slices.Clone(ps.nbrRow(sl)) {
			unlinkOracle(s, sl, q)
		}
		for x := int32(0); int(x) < len(ps.id); x++ {
			// Compare the live part of each row; what lies beyond the
			// length is dead storage the two are free to leave differently.
			if !slices.Equal(got.nbr[int(x)*ps.nbr.k:][:got.nbrLen[x]], ps.nbrRow(x)) ||
				!slices.Equal(got.conn[int(x)*ps.conn.k:][:got.connLen[x]], ps.connRow(x)) {
				t.Fatalf("round %d: detaching peer %d: slot %d rows differ from the unlink loop's",
					s.res.rounds, ps.id[sl], x)
			}
		}
		if !slices.Equal(got.nbrLen, ps.nbrLen) || !slices.Equal(got.connLen, ps.connLen) ||
			!slices.Equal(got.nbrVer, ps.nbrVer) || !slices.Equal(got.rare, snapshotAdjacency(ps).rare) || got.roomy != ps.roomy {
			t.Fatalf("round %d: detaching peer %d: lengths, versions, rare counts or roomy differ from the unlink loop's",
				s.res.rounds, ps.id[sl])
		}
		before.restore(ps)
	}
}

// runChecked runs cfg to its horizon one exchange round at a time, with
// checkInvariants and any extra per-round checks after every round, and returns the swarm and its
// Result. Advance-then-Run replays a plain Run (TestAdvanceMatchesRun),
// so the Result is the one Run alone would have produced.
func runChecked(t testing.TB, cfg Config, extra ...func(testing.TB, *Swarm)) (*Swarm, *Result) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, s)
	for at := 1.0; at <= cfg.Horizon; at++ {
		before := s.res.rounds
		if err := s.Advance(at); err != nil {
			t.Fatal(err)
		}
		if s.res.rounds != before+1 {
			t.Fatalf("Advance(%g) ran %d rounds, want 1", at, s.res.rounds-before)
		}
		checkInvariants(t, s)
		for _, check := range extra {
			check(t, s)
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}
