package bitset

import (
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(100)
	if s.Count() != 0 {
		t.Fatalf("new set: count=%d", s.Count())
	}
	for _, i := range []int{0, 1, 63, 64, 99} {
		if err := s.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	if s.Count() != 5 {
		t.Errorf("count = %d, want 5", s.Count())
	}
	if !s.Has(63) || !s.Has(64) || s.Has(2) {
		t.Error("Has wrong")
	}
	if err := s.Add(100); err == nil {
		t.Error("out-of-range Add must fail")
	}
	if s.Has(-1) || s.Has(100) {
		t.Error("out-of-range Has must be false")
	}
}

func TestFillClearFull(t *testing.T) {
	s := New(70)
	s.Fill()
	if !s.Full() || s.Count() != 70 {
		t.Errorf("fill: count=%d full=%v", s.Count(), s.Full())
	}
	empty := New(0)
	if !empty.Full() {
		t.Error("zero-capacity set is vacuously full")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(10)
	_ = s.Add(3)
	c := s.Clone()
	_ = c.Add(5)
	if s.Has(5) {
		t.Error("clone is not independent")
	}
	if !c.Has(3) {
		t.Error("clone lost bits")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := New(130)
	b := New(130)
	_ = a.Add(1)
	_ = a.Add(64)
	_ = a.Add(129)
	_ = b.Add(64)

	if got := a.CountNotIn(b); got != 2 {
		t.Errorf("CountNotIn = %d, want 2", got)
	}
	if got := b.CountNotIn(a); got != 0 {
		t.Errorf("b is a subset of a, CountNotIn = %d", got)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(raw []byte, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		s := New(n)
		for _, b := range raw {
			_ = s.Add(int(b) % n)
		}
		back, err := FromBytes(s.Bytes(), n)
		if err != nil {
			return false
		}
		if back.Count() != s.Count() {
			return false
		}
		for i := 0; i < n; i++ {
			if back.Has(i) != s.Has(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitfieldWireOrder(t *testing.T) {
	// BitTorrent convention: piece 0 is the MSB of byte 0.
	s := New(9)
	_ = s.Add(0)
	_ = s.Add(8)
	b := s.Bytes()
	if len(b) != 2 || b[0] != 0x80 || b[1] != 0x80 {
		t.Errorf("bytes = %x, want 8080", b)
	}
}

func TestFromBytesValidation(t *testing.T) {
	if _, err := FromBytes([]byte{0}, 9); err == nil {
		t.Error("short payload must be rejected")
	}
	// Spare bit beyond n set.
	if _, err := FromBytes([]byte{0xFF, 0xFF}, 9); err == nil {
		t.Error("spare bits must be rejected")
	}
	s, err := FromBytes([]byte{0x80, 0x80}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Has(0) || !s.Has(8) || s.Count() != 2 {
		t.Error("parse wrong")
	}
}

func TestString(t *testing.T) {
	s := New(4)
	_ = s.Add(1)
	if got := s.String(); got != "0100" {
		t.Errorf("String = %q", got)
	}
}
