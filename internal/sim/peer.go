package sim

import (
	"unsafe"

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
// neighbor/connection sets) is stored as fixed-stride rows: row i of a
// slice with stride k is [i*k, (i+1)*k). The piece inventory's rows are
// one flat slice; the wide rows are paged tables (paged), which the store
// grows without copying. A slot's identity is stable for the peer's whole
// lifetime — no adjacency row ever holds a freed slot, because removal
// detaches before freeing.
//
// See DESIGN.md §14 for the memory layout and the per-round complexity
// table.
type peerStore struct {
	pieces int // B: bits per piece inventory, entries per stride row
	words  int // uint64 words per piece-inventory row

	// Ids are handed out by alloc in increasing order and never reused, so
	// id[sl] == nextID-1 marks the newest peer: greater than any id in any row.
	id      []PeerID
	nextID  PeerID
	arrived []float64
	seed    []bool
	slow    []bool
	active  []bool // this round's participation draw (slow peers)
	shaken  []bool
	tracked []bool
	gone    []bool // removed from the swarm (departed, or crashed and not yet back)

	sinceTracker []int32 // rounds since last tracker contact
	lingerLeft   []int32 // remaining seeding rounds of a lingering peer

	// Piece inventory: a bitset row per slot (stride words), plus an
	// incrementally maintained popcount so completion checks are O(1).
	pieceWords []uint64
	pieceCnt   []int32

	// acq is the acquisition log, stride pieces: entry m of a slot's row
	// is the round at which it acquired its m-th piece, pieceCnt entries
	// long. Every acquisition lands on a whole round, so an int32 round is
	// exact.
	acq paged[int32]
	// nbr and conn are the neighbor and connection sets, strides
	// Config.NeighborSet and min(MaxConns, NeighborSet): partner slots kept sorted by partner PeerID — the same
	// ascending-id order the map-based core produced by sorting map keys,
	// so every iteration that feeds the RNG sees the identical sequence.
	nbr, conn paged[int32]

	// Adjacency: the lengths of the neighbor and connection rows.
	nbrLen  []int32
	connLen []int32
	// roomy counts the peers in the swarm whose neighbor row has a free
	// slot: the only ones a tracker top-up can link to.
	roomy int

	// rare[sl*pieces+j] counts how many of slot sl's neighbors hold piece
	// j — the rarest-first replication view, maintained incrementally on
	// link/detach/give instead of recomputed per candidate piece.
	// Allocated only under the RarestFirst strategy (useRare). It stays
	// flat: give bumps one count at every neighbor of every receiver, the
	// loop a page lookup per neighbor slowed most (DESIGN.md §14).
	rare    []uint16
	useRare bool

	// Connection-persistence measurement state: the previous round's
	// partner ids per slot (prev, stride conn.k), validated by an owner
	// stamp plus the round ordinal so slot reuse and crash gaps cannot
	// alias stale rows.
	prev      paged[PeerID]
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
	optEpoch []uint64 // optimistic unchoke: no eligible recipient
	optVer   []uint32
	potEpoch []uint64 // potential-set cache key; a cached 0 is establishConns' memo
	potVer   []uint32
	potVal   []int32 // cached potential-set size

	free []int32 // free-slot stack (LIFO reuse)

	warmed int32 // warm's sink: keeps its loads from being optimized away
}

// pageShift sets a page's run: pageRows consecutive rows, from a
// multiple of pageRows on, share one page. 64 keeps a page small next to
// a small swarm, which may outgrow its initial population by a few peers.
const (
	pageShift = 6
	pageRows  = 1 << pageShift
)

// paged holds rows of stride k on pages of pageRows rows that are never
// copied: row i is row i&(pageRows-1) of pages[i>>pageShift].
type paged[T any] struct {
	k     int
	pages [][]T
}

// row returns row i, capped at its end.
func (p *paged[T]) row(i int) []T {
	o := (i & (pageRows - 1)) * p.k
	return p.pages[uint(i)>>pageShift][o : o+p.k : o+p.k]
}

// grow adds rows [first, first+n). The first call (first == 0) allocates
// exactly n rows at once and enters them run by run; every later run
// gets a page of its own when its first row is added. Only the first
// call's last run, when it is partial, is ever copied: once, to a whole
// page, as the table outgrows it.
func (p *paged[T]) grow(first, n int) {
	if first == 0 {
		all := make([]T, n*p.k)
		p.pages = make([][]T, 0, (n+pageRows-1)/pageRows)
		for lo := 0; lo < n; lo += pageRows {
			hi := min(lo+pageRows, n)
			p.pages = append(p.pages, all[lo*p.k:hi*p.k:hi*p.k])
		}
		return
	}
	for c := first >> pageShift; c<<pageShift < first+n; c++ {
		if c == len(p.pages) {
			p.pages = append(p.pages, nil)
		}
		if len(p.pages[c]) < pageRows*p.k {
			p.pages[c] = append(make([]T, 0, pageRows*p.k), p.pages[c]...)[:pageRows*p.k]
		}
	}
}

// bytes returns the capacity of the page table and of every page, in
// bytes.
func (p *paged[T]) bytes() int64 {
	b := int64(cap(p.pages)) * int64(unsafe.Sizeof([]T(nil)))
	for _, pg := range p.pages {
		b += int64(cap(pg)) * int64(unsafe.Sizeof(*new(T)))
	}
	return b
}

func newPeerStore(cfg Config) peerStore {
	connCap := min(cfg.MaxConns, cfg.NeighborSet)
	return peerStore{
		pieces:  cfg.Pieces,
		words:   bitset.RowWords(cfg.Pieces),
		acq:     paged[int32]{k: cfg.Pieces},
		nbr:     paged[int32]{k: cfg.NeighborSet},
		conn:    paged[int32]{k: connCap},
		prev:    paged[PeerID]{k: connCap},
		useRare: cfg.PieceSelection == RarestFirst,
	}
}

// extend appends n copies of v to a flat per-slot array. A full array
// triples: the copies it leaves behind plus its unused room then come to
// about 2.7 times its peak, the least a growth factor gets (DESIGN.md
// §14).
func extend[T any](s []T, n int, v T) []T {
	if len(s)+n > cap(s) {
		s = append(make([]T, 0, 3*len(s)+n), s...)
	}
	for ; n > 0; n-- {
		s = append(s, v)
	}
	return s
}

// grow appends n slots to every parallel array and paged table and
// stacks them on the free list, lowest slot on top.
func (ps *peerStore) grow(n int) {
	first := len(ps.id)
	ps.id = extend(ps.id, n, -1)
	ps.arrived = extend(ps.arrived, n, 0)
	ps.seed = extend(ps.seed, n, false)
	ps.slow = extend(ps.slow, n, false)
	ps.active = extend(ps.active, n, false)
	ps.shaken = extend(ps.shaken, n, false)
	ps.tracked = extend(ps.tracked, n, false)
	ps.gone = extend(ps.gone, n, false)
	ps.sinceTracker = extend(ps.sinceTracker, n, 0)
	ps.lingerLeft = extend(ps.lingerLeft, n, 0)
	ps.pieceWords = extend(ps.pieceWords, n*ps.words, 0)
	ps.pieceCnt = extend(ps.pieceCnt, n, 0)
	ps.nbrLen = extend(ps.nbrLen, n, 0)
	ps.connLen = extend(ps.connLen, n, 0)
	if ps.useRare {
		ps.rare = extend(ps.rare, n*ps.pieces, 0)
	}
	ps.prevLen = extend(ps.prevLen, n, 0)
	ps.prevOwner = extend(ps.prevOwner, n, -1)
	ps.prevRound = extend(ps.prevRound, n, -1)
	ps.inRound = extend(ps.inRound, n, -1)
	ps.traceIdx = extend(ps.traceIdx, n, -1)
	ps.nbrVer = extend(ps.nbrVer, n, 0)
	ps.optEpoch = extend(ps.optEpoch, n, 0)
	ps.optVer = extend(ps.optVer, n, 0)
	ps.potEpoch = extend(ps.potEpoch, n, 0)
	ps.potVer = extend(ps.potVer, n, 0)
	ps.potVal = extend(ps.potVal, n, 0)
	ps.acq.grow(first, n)
	ps.nbr.grow(first, n)
	ps.conn.grow(first, n)
	ps.prev.grow(first, n)
	for sl := first + n - 1; sl >= first; sl-- {
		ps.free = append(ps.free, int32(sl))
	}
}

// alloc returns a reset slot carrying the next peer id, off the free list
// (grown by one when empty).
func (ps *peerStore) alloc() int32 {
	if len(ps.free) == 0 {
		ps.grow(1)
	}
	sl := ps.free[len(ps.free)-1]
	ps.free = ps.free[:len(ps.free)-1]
	ps.reset(sl)
	ps.id[sl] = ps.nextID
	ps.nextID++
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
	ps.gone[sl] = false
	ps.sinceTracker[sl] = 0
	ps.lingerLeft[sl] = 0
	bitset.RowClear(ps.pieceRow(sl))
	ps.pieceCnt[sl] = 0
	ps.nbrLen[sl] = 0
	ps.connLen[sl] = 0
	ps.prevLen[sl] = 0
	ps.prevOwner[sl] = -1
	ps.prevRound[sl] = -1
	ps.inRound[sl] = -1
	ps.traceIdx[sl] = -1
	ps.nbrVer[sl] = 0
	ps.optEpoch[sl] = 0
	ps.potEpoch[sl] = 0
	if ps.useRare {
		clear(ps.rareRow(sl))
	}
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

// rareRow returns the slot's rarest-first replication counts.
func (ps *peerStore) rareRow(sl int32) []uint16 {
	return ps.rare[int(sl)*ps.pieces:][:ps.pieces]
}

// nbrRow returns the slot's live neighbor slots, sorted by partner id.
func (ps *peerStore) nbrRow(sl int32) []int32 { return ps.nbr.row(int(sl))[:ps.nbrLen[sl]] }

// connRow returns the slot's live connection slots, sorted by partner id.
func (ps *peerStore) connRow(sl int32) []int32 { return ps.conn.row(int(sl))[:ps.connLen[sl]] }

// insertByID inserts q into row[:n] — row has room for one more — keeping
// ascending partner-id order, by shifting down from the top. The newest
// peer goes last without a look at the row: linking a fresh arrival then
// costs its partner one store, not a load the core must wait for.
func (ps *peerStore) insertByID(row []int32, n int, q int32) {
	qid := ps.id[q]
	i := n
	if qid != ps.nextID-1 {
		for ; i > 0 && ps.id[row[i-1]] > qid; i-- {
			row[i] = row[i-1]
		}
	}
	row[i] = q
}

// removeSlot deletes q from row, closing the gap, and reports whether it
// was there.
func removeSlot(row []int32, q int32) bool {
	for i, x := range row {
		if x == q {
			copy(row[i:], row[i+1:])
			return true
		}
	}
	return false
}

// insertNbr inserts q into p's neighbor row.
func (ps *peerStore) insertNbr(p, q int32) {
	ps.insertByID(ps.nbr.row(int(p)), int(ps.nbrLen[p]), q)
	ps.nbrLen[p]++
	if int(ps.nbrLen[p]) == ps.nbr.k {
		ps.roomy--
	}
}

// removeNbr deletes q from p's neighbor row (no-op when absent).
func (ps *peerStore) removeNbr(p, q int32) {
	if removeSlot(ps.nbrRow(p), q) {
		if int(ps.nbrLen[p]) == ps.nbr.k {
			ps.roomy++
		}
		ps.nbrLen[p]--
	}
}

// insertConn inserts q into p's connection row.
func (ps *peerStore) insertConn(p, q int32) {
	ps.insertByID(ps.conn.row(int(p)), int(ps.connLen[p]), q)
	ps.connLen[p]++
}

// removeConn deletes q from p's connection row (no-op when absent).
func (ps *peerStore) removeConn(p, q int32) {
	if removeSlot(ps.connRow(p), q) {
		ps.connLen[p]--
	}
}

// warm loads one word per cache line of the rows a membership change is
// about to touch at each partner in qs. These loads do not depend on one
// another, so their cache misses overlap; the change itself visits one
// partner at a time through scans and branches the core cannot run ahead
// of, and would otherwise take the same misses one after another.
func (ps *peerStore) warm(qs []int32) {
	var sum int32
	for _, q := range qs {
		row := ps.nbr.row(int(q))
		for i := 0; i < len(row); i += 16 {
			sum += row[i]
		}
		sum += row[len(row)-1] + ps.conn.row(int(q))[0]
		if ps.useRare {
			sum += int32(ps.rare[int(q)*ps.pieces])
		}
	}
	ps.warmed = sum
}

// complete reports whether the slot holds the full file.
func (ps *peerStore) complete(sl int32) bool {
	return ps.seed[sl] || int(ps.pieceCnt[sl]) == ps.pieces
}

// tradable returns the neighbors of p with whom strict trade is possible
// right now — each side holds a piece the other lacks — in buf, which it
// replaces when too small. Seeds are never among them (the measurement
// methodology of §4.2 excludes them from the potential set): a seed lacks
// nothing, so nobody has mutual interest with one.
func (ps *peerStore) tradable(buf []int32, p int32) []int32 {
	row := ps.nbrRow(p)
	if cap(buf) < len(row) {
		buf = make([]int32, ps.nbr.k)
	}
	dst := buf[:len(row)]
	words, pcs := ps.words, ps.pieceWords
	pb, n := int(p)*words, 0
	for _, q := range row {
		qb := int(q) * words
		var pLacks, qLacks uint64
		for i := 0; i < words; i++ {
			pw, qw := pcs[pb+i], pcs[qb+i]
			pLacks |= qw &^ pw
			qLacks |= pw &^ qw
		}
		// Keep q when both are nonzero, without a branch the core would
		// mispredict every other neighbor: x|-x has its top bit set iff x != 0.
		dst[n] = q
		n += int(((pLacks | -pLacks) & (qLacks | -qLacks)) >> 63)
	}
	return dst[:n]
}

// memBytes estimates the store's resident footprint from the capacities
// of its backing arrays (the observer's bytes-per-peer gauge).
func (ps *peerStore) memBytes() int64 {
	b := int64(cap(ps.id))*8 + int64(cap(ps.arrived))*8
	b += int64(cap(ps.seed)) + int64(cap(ps.slow)) + int64(cap(ps.active)) +
		int64(cap(ps.shaken)) + int64(cap(ps.tracked)) + int64(cap(ps.gone))
	b += int64(cap(ps.sinceTracker))*4 + int64(cap(ps.lingerLeft))*4
	b += int64(cap(ps.pieceWords))*8 + int64(cap(ps.pieceCnt))*4
	b += int64(cap(ps.nbrLen))*4 + int64(cap(ps.connLen))*4
	b += ps.acq.bytes() + ps.nbr.bytes() + ps.conn.bytes() + ps.prev.bytes()
	b += int64(cap(ps.rare)) * 2
	b += int64(cap(ps.prevLen))*4 +
		int64(cap(ps.prevOwner))*8 + int64(cap(ps.prevRound))*4 +
		int64(cap(ps.inRound))*4
	b += int64(cap(ps.traceIdx)) * 4
	b += int64(cap(ps.nbrVer))*4 +
		int64(cap(ps.optEpoch))*8 + int64(cap(ps.optVer))*4 +
		int64(cap(ps.potEpoch))*8 + int64(cap(ps.potVer))*4 + int64(cap(ps.potVal))*4
	b += int64(cap(ps.free)) * 4
	return b
}
