package sim

import (
	"repro/internal/bitset"
)

// PeerID identifies a peer within one simulation run.
type PeerID int

// TraceSample is one instrumentation point of a tracked peer, mirroring
// the statistics the paper's modified BitTornado client logged.
type TraceSample struct {
	Time      float64
	Pieces    int
	Potential int
	Conns     int
}

// peerStore is the struct-of-arrays peer state: every per-peer field
// lives in a dense parallel slice indexed by a compact slot id. Slots are
// reused through a free list when peers depart, so the arrays stay dense
// under churn and the total footprint is bounded by the peak population.
// Variable-size per-peer state (piece inventory, acquisition log,
// neighbor/connection sets) is stored as fixed-stride rows inside flat
// slices: row i of a slice with stride k is [i*k, (i+1)*k). A slot's
// identity is stable for the peer's whole lifetime — no adjacency row
// ever holds a freed slot, because removal unlinks before freeing.
//
// See DESIGN.md §14 for the memory layout and the per-round complexity
// table.
type peerStore struct {
	pieces  int // B: bits per piece inventory, entries per stride row
	words   int // uint64 words per piece-inventory row
	nbrCap  int // neighbor-set row stride (Config.NeighborSet)
	connCap int // connection row stride (min(MaxConns, NeighborSet))

	id      []PeerID
	arrived []float64
	seed    []bool
	slow    []bool
	active  []bool // this round's participation draw (slow peers)
	shaken  []bool
	tracked []bool

	sinceTracker []int32 // rounds since last tracker contact
	lingerLeft   []int32 // remaining seeding rounds of a lingering peer

	// Piece inventory: a bitset row per slot (stride words), plus an
	// incrementally maintained popcount so completion checks are O(1).
	pieceWords []uint64
	pieceCnt   []int32
	// pieceTimes[sl*pieces+j] is when slot sl acquired piece j (-1 if
	// not); acqOrder[sl*pieces : +acqLen[sl]] is its acquisition log.
	pieceTimes []float64
	acqOrder   []int32
	acqLen     []int32

	// Adjacency: neighbor and connection sets as fixed-stride rows of
	// partner slots, kept sorted by partner PeerID — the same ascending-id
	// order the map-based core produced by sorting map keys, so every
	// iteration that feeds the RNG sees the identical sequence.
	nbr     []int32
	nbrLen  []int32
	conn    []int32
	connLen []int32

	// rare[sl*pieces+j] counts how many of slot sl's neighbors hold piece
	// j — the rarest-first replication view, maintained incrementally on
	// link/unlink/give instead of recomputed per candidate piece.
	// Allocated only under the RarestFirst strategy.
	rare []uint16

	// Connection-persistence measurement state: the previous round's
	// partner ids per slot, validated by an owner stamp plus the round
	// ordinal so slot reuse and crash gaps cannot alias stale rows.
	prevConn  []PeerID
	prevLen   []int32
	prevOwner []PeerID
	prevRound []int32
	// inRound stamps the round ordinal in which the slot last appeared in
	// the leecher list, distinguishing this round's participants from
	// bystanders (mid-round rejoiners, seeds) during edge counting.
	inRound []int32

	// traceIdx points into the swarm's trace table (-1 when untracked).
	traceIdx []int32

	// nbrVer counts neighbor-set changes of the slot; together with the
	// swarm-wide piece epoch it keys the quiescence memos below. A memo
	// records a proven-empty candidate scan: while no piece was acquired
	// anywhere, no seed flag flipped, and the slot's neighbor set is
	// unchanged, the scan would come out empty again — and an empty scan
	// consumes no randomness, so skipping it is trajectory-neutral.
	nbrVer   []uint32
	estEpoch []uint64 // establishConns: no tradable neighbor at this epoch
	estVer   []uint32
	optEpoch []uint64 // optimistic unchoke: no eligible recipient
	optVer   []uint32
	potEpoch []uint64 // potentialSize cache key
	potVer   []uint32
	potVal   []int32 // cached potential-set size

	free []int32 // free-slot stack (LIFO reuse)
}

func newPeerStore(cfg Config) peerStore {
	connCap := cfg.MaxConns
	if cfg.NeighborSet < connCap {
		connCap = cfg.NeighborSet
	}
	return peerStore{
		pieces:  cfg.Pieces,
		words:   bitset.RowWords(cfg.Pieces),
		nbrCap:  cfg.NeighborSet,
		connCap: connCap,
	}
}

// len returns the number of allocated slots (live + free).
func (ps *peerStore) len() int { return len(ps.id) }

// grow appends one zero slot to every parallel array.
func (ps *peerStore) grow() int32 {
	sl := int32(len(ps.id))
	ps.id = append(ps.id, -1)
	ps.arrived = append(ps.arrived, 0)
	ps.seed = append(ps.seed, false)
	ps.slow = append(ps.slow, false)
	ps.active = append(ps.active, false)
	ps.shaken = append(ps.shaken, false)
	ps.tracked = append(ps.tracked, false)
	ps.sinceTracker = append(ps.sinceTracker, 0)
	ps.lingerLeft = append(ps.lingerLeft, 0)
	for i := 0; i < ps.words; i++ {
		ps.pieceWords = append(ps.pieceWords, 0)
	}
	ps.pieceCnt = append(ps.pieceCnt, 0)
	for i := 0; i < ps.pieces; i++ {
		ps.pieceTimes = append(ps.pieceTimes, -1)
		ps.acqOrder = append(ps.acqOrder, 0)
	}
	ps.acqLen = append(ps.acqLen, 0)
	for i := 0; i < ps.nbrCap; i++ {
		ps.nbr = append(ps.nbr, 0)
	}
	ps.nbrLen = append(ps.nbrLen, 0)
	for i := 0; i < ps.connCap; i++ {
		ps.conn = append(ps.conn, 0)
		ps.prevConn = append(ps.prevConn, -1)
	}
	ps.connLen = append(ps.connLen, 0)
	// rare rows are grown in alloc, only under rarest-first.
	ps.prevLen = append(ps.prevLen, 0)
	ps.prevOwner = append(ps.prevOwner, -1)
	ps.prevRound = append(ps.prevRound, -1)
	ps.inRound = append(ps.inRound, -1)
	ps.traceIdx = append(ps.traceIdx, -1)
	ps.nbrVer = append(ps.nbrVer, 0)
	ps.estEpoch = append(ps.estEpoch, 0)
	ps.estVer = append(ps.estVer, 0)
	ps.optEpoch = append(ps.optEpoch, 0)
	ps.optVer = append(ps.optVer, 0)
	ps.potEpoch = append(ps.potEpoch, 0)
	ps.potVer = append(ps.potVer, 0)
	ps.potVal = append(ps.potVal, 0)
	return sl
}

// alloc returns a reset slot, reusing the free list when possible.
func (ps *peerStore) alloc(useRare bool) int32 {
	var sl int32
	if n := len(ps.free); n > 0 {
		sl = ps.free[n-1]
		ps.free = ps.free[:n-1]
		ps.reset(sl)
	} else {
		sl = ps.grow()
	}
	if useRare {
		need := (int(sl) + 1) * ps.pieces
		for len(ps.rare) < need {
			ps.rare = append(ps.rare, 0)
		}
		row := ps.rare[int(sl)*ps.pieces : need]
		for i := range row {
			row[i] = 0
		}
	}
	return sl
}

// reset clears a reused slot to its fresh-peer state.
func (ps *peerStore) reset(sl int32) {
	ps.id[sl] = -1
	ps.arrived[sl] = 0
	ps.seed[sl] = false
	ps.slow[sl] = false
	ps.active[sl] = false
	ps.shaken[sl] = false
	ps.tracked[sl] = false
	ps.sinceTracker[sl] = 0
	ps.lingerLeft[sl] = 0
	bitset.RowClear(ps.pieceRow(sl))
	ps.pieceCnt[sl] = 0
	times := ps.pieceTimes[int(sl)*ps.pieces : (int(sl)+1)*ps.pieces]
	for i := range times {
		times[i] = -1
	}
	ps.acqLen[sl] = 0
	ps.nbrLen[sl] = 0
	ps.connLen[sl] = 0
	ps.prevLen[sl] = 0
	ps.prevOwner[sl] = -1
	ps.prevRound[sl] = -1
	ps.inRound[sl] = -1
	ps.traceIdx[sl] = -1
	ps.nbrVer[sl] = 0
	ps.estEpoch[sl] = 0
	ps.optEpoch[sl] = 0
	ps.potEpoch[sl] = 0
}

// freeSlot returns a slot to the free list. The slot's data stays intact
// until the next alloc, so a departing peer's completion record can still
// be read after removal.
func (ps *peerStore) freeSlot(sl int32) { ps.free = append(ps.free, sl) }

// pieceRow returns the slot's piece-inventory bitset row.
func (ps *peerStore) pieceRow(sl int32) []uint64 {
	base := int(sl) * ps.words
	return ps.pieceWords[base : base+ps.words]
}

// nbrRow returns the slot's live neighbor slots, sorted by partner id.
func (ps *peerStore) nbrRow(sl int32) []int32 {
	base := int(sl) * ps.nbrCap
	return ps.nbr[base : base+int(ps.nbrLen[sl])]
}

// connRow returns the slot's live connection slots, sorted by partner id.
func (ps *peerStore) connRow(sl int32) []int32 {
	base := int(sl) * ps.connCap
	return ps.conn[base : base+int(ps.connLen[sl])]
}

// insertNbr inserts q into p's neighbor row, keeping ascending-id order.
func (ps *peerStore) insertNbr(p, q int32) {
	base := int(p) * ps.nbrCap
	i := int(ps.nbrLen[p])
	qid := ps.id[q]
	for i > 0 && ps.id[ps.nbr[base+i-1]] > qid {
		ps.nbr[base+i] = ps.nbr[base+i-1]
		i--
	}
	ps.nbr[base+i] = q
	ps.nbrLen[p]++
}

// removeNbr deletes q from p's neighbor row (no-op when absent).
func (ps *peerStore) removeNbr(p, q int32) {
	base := int(p) * ps.nbrCap
	n := int(ps.nbrLen[p])
	for i := 0; i < n; i++ {
		if ps.nbr[base+i] == q {
			copy(ps.nbr[base+i:base+n-1], ps.nbr[base+i+1:base+n])
			ps.nbrLen[p]--
			return
		}
	}
}

// hasNbr reports whether q is in p's neighbor row.
func (ps *peerStore) hasNbr(p, q int32) bool {
	for _, x := range ps.nbrRow(p) {
		if x == q {
			return true
		}
	}
	return false
}

// insertConn inserts q into p's connection row, keeping ascending-id
// order.
func (ps *peerStore) insertConn(p, q int32) {
	base := int(p) * ps.connCap
	i := int(ps.connLen[p])
	qid := ps.id[q]
	for i > 0 && ps.id[ps.conn[base+i-1]] > qid {
		ps.conn[base+i] = ps.conn[base+i-1]
		i--
	}
	ps.conn[base+i] = q
	ps.connLen[p]++
}

// removeConn deletes q from p's connection row (no-op when absent).
func (ps *peerStore) removeConn(p, q int32) {
	base := int(p) * ps.connCap
	n := int(ps.connLen[p])
	for i := 0; i < n; i++ {
		if ps.conn[base+i] == q {
			copy(ps.conn[base+i:base+n-1], ps.conn[base+i+1:base+n])
			ps.connLen[p]--
			return
		}
	}
}

// connected reports whether p and q share a connection.
func (ps *peerStore) connected(p, q int32) bool {
	for _, x := range ps.connRow(p) {
		if x == q {
			return true
		}
	}
	return false
}

// complete reports whether the slot holds the full file.
func (ps *peerStore) complete(sl int32) bool {
	return ps.seed[sl] || int(ps.pieceCnt[sl]) == ps.pieces
}

// wants reports whether p lacks at least one piece q holds.
func (ps *peerStore) wants(p, q int32) bool {
	return bitset.RowAnyAndNot(ps.pieceRow(q), ps.pieceRow(p))
}

// mutualInterest reports whether p and q each hold at least one piece the
// other lacks (the strict tit-for-tat trade condition).
func (ps *peerStore) mutualInterest(p, q int32) bool {
	pw, qw := ps.pieceRow(p), ps.pieceRow(q)
	return bitset.RowAnyAndNot(qw, pw) && bitset.RowAnyAndNot(pw, qw)
}

// memBytes estimates the store's resident footprint from the capacities
// of its backing arrays (the observer's bytes-per-peer gauge).
func (ps *peerStore) memBytes() int64 {
	b := int64(cap(ps.id))*8 + int64(cap(ps.arrived))*8
	b += int64(cap(ps.seed)) + int64(cap(ps.slow)) + int64(cap(ps.active)) +
		int64(cap(ps.shaken)) + int64(cap(ps.tracked))
	b += int64(cap(ps.sinceTracker))*4 + int64(cap(ps.lingerLeft))*4
	b += int64(cap(ps.pieceWords))*8 + int64(cap(ps.pieceCnt))*4
	b += int64(cap(ps.pieceTimes))*8 + int64(cap(ps.acqOrder))*4 + int64(cap(ps.acqLen))*4
	b += int64(cap(ps.nbr))*4 + int64(cap(ps.nbrLen))*4
	b += int64(cap(ps.conn))*4 + int64(cap(ps.connLen))*4
	b += int64(cap(ps.rare)) * 2
	b += int64(cap(ps.prevConn))*8 + int64(cap(ps.prevLen))*4 +
		int64(cap(ps.prevOwner))*8 + int64(cap(ps.prevRound))*4 +
		int64(cap(ps.inRound))*4
	b += int64(cap(ps.traceIdx)) * 4
	b += int64(cap(ps.nbrVer))*4 + int64(cap(ps.estEpoch))*8 + int64(cap(ps.estVer))*4 +
		int64(cap(ps.optEpoch))*8 + int64(cap(ps.optVer))*4 +
		int64(cap(ps.potEpoch))*8 + int64(cap(ps.potVer))*4 + int64(cap(ps.potVal))*4
	b += int64(cap(ps.free)) * 4
	return b
}
