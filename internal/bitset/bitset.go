// Package bitset provides a fixed-size bit set used for piece inventories
// in the swarm simulator and for peer-wire BITFIELD messages in the
// mini-BitTorrent client.
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a fixed-capacity bit set. The zero value is unusable; construct
// with New or FromBytes.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set with capacity for n bits.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{n: n, words: make([]uint64, (n+63)/64)}
}

// Has reports whether bit i is set. Out-of-range indices report false.
func (s *Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/64]&(1<<uint(i%64)) != 0
}

// Add sets bit i. Out-of-range indices are an error.
func (s *Set) Add(i int) error {
	if i < 0 || i >= s.n {
		return fmt.Errorf("bitset: index %d out of range [0,%d)", i, s.n)
	}
	s.words[i/64] |= 1 << uint(i%64)
	return nil
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Full reports whether every bit is set.
func (s *Set) Full() bool { return s.Count() == s.n }

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	out := New(s.n)
	copy(out.words, s.words)
	return out
}

// Fill sets every bit.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.maskTail()
}

// maskTail zeroes the bits beyond n in the last word.
func (s *Set) maskTail() {
	if s.n%64 != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(s.n%64)) - 1
	}
}

// CountNotIn returns the number of bits set in s but not in other.
func (s *Set) CountNotIn(other *Set) int {
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w &^ other.words[i])
	}
	return c
}

// Bytes serializes the set in BitTorrent BITFIELD order: bit 0 is the
// high bit of byte 0.
func (s *Set) Bytes() []byte {
	out := make([]byte, (s.n+7)/8)
	for i := 0; i < s.n; i++ {
		if s.Has(i) {
			out[i/8] |= 0x80 >> uint(i%8)
		}
	}
	return out
}

// FromBytes parses a BitTorrent BITFIELD payload into a set of n bits.
// It rejects payloads of the wrong length or with spare bits set.
func FromBytes(payload []byte, n int) (*Set, error) {
	if len(payload) != (n+7)/8 {
		return nil, fmt.Errorf("bitset: payload length %d does not match %d bits", len(payload), n)
	}
	s := New(n)
	for i := 0; i < len(payload)*8; i++ {
		if payload[i/8]&(0x80>>uint(i%8)) != 0 {
			if i >= n {
				return nil, fmt.Errorf("bitset: spare bit %d set beyond %d bits", i, n)
			}
			s.words[i/64] |= 1 << uint(i%64)
		}
	}
	return s, nil
}

// --- word-row operations ---
//
// The struct-of-arrays swarm core stores one piece inventory per peer as a
// fixed-stride row of uint64 words inside one flat slice. The helpers
// below operate directly on such rows ([]uint64 views), mirroring the Set
// methods without requiring a Set header per peer. Rows passed to binary
// operations must have equal length; bits beyond the logical size must be
// kept zero by the caller (RowFill maintains this).

// RowWords returns the number of 64-bit words needed for n bits.
func RowWords(n int) int { return (n + 63) / 64 }

// RowHas reports whether bit i of the row is set.
func RowHas(row []uint64, i int) bool {
	return row[i>>6]&(1<<uint(i&63)) != 0
}

// RowClear zeroes the row (the clear-fast operation: one memclr, no
// per-bit work).
func RowClear(row []uint64) {
	for i := range row {
		row[i] = 0
	}
}

// RowFill sets bits [0, n) of the row and zeroes any tail bits.
func RowFill(row []uint64, n int) {
	for i := range row {
		row[i] = ^uint64(0)
	}
	if n&63 != 0 && len(row) > 0 {
		row[len(row)-1] = (1 << uint(n&63)) - 1
	}
}

// RowAnyAndNot reports whether a has at least one bit set that b lacks.
func RowAnyAndNot(a, b []uint64) bool {
	for i, w := range a {
		if w&^b[i] != 0 {
			return true
		}
	}
	return false
}

// RowAndNotCount returns the number of bits set in a but not in b.
func RowAndNotCount(a, b []uint64) int {
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w &^ b[i])
	}
	return c
}

// RowSelectAndNot returns the index of the k-th (0-based) bit set in a
// but not in b, or -1 when fewer than k+1 such bits exist. It is the
// selection primitive behind random piece picking: draw k uniformly from
// RowAndNotCount and select, with no materialized candidate list.
func RowSelectAndNot(a, b []uint64, k int) int {
	for i, w := range a {
		diff := w &^ b[i]
		n := bits.OnesCount64(diff)
		if k >= n {
			k -= n
			continue
		}
		for ; k > 0; k-- {
			diff &= diff - 1
		}
		return i<<6 + bits.TrailingZeros64(diff)
	}
	return -1
}

// RowAppendIndices appends the indices of all set bits of the row to dst
// and returns the extended slice (the row iteration primitive).
func RowAppendIndices(dst []int, row []uint64) []int {
	for wi, w := range row {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi<<6+b)
			w &= w - 1
		}
	}
	return dst
}

// String renders the set as a compact 0/1 string (for tests and logs).
func (s *Set) String() string {
	out := make([]byte, s.n)
	for i := 0; i < s.n; i++ {
		if s.Has(i) {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}
