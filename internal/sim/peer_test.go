package sim

import (
	"reflect"
	"testing"
)

// TestMemBytesCountsEveryArray holds memBytes — the sim.mem_bytes and
// sim.bytes_per_peer gauges — to the sum of cap × element size over every
// slice field of peerStore, so an array added to the store or dropped
// from it cannot go uncounted or be counted twice.
func TestMemBytesCountsEveryArray(t *testing.T) {
	cfg := smallConfig() // rarest-first: the rare table is allocated too
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(10); err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(s.ps)
	var want int64
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Slice {
			continue
		}
		if f.Cap() == 0 {
			t.Fatalf("peerStore.%s is empty: the sum would not see it", v.Type().Field(i).Name)
		}
		want += int64(f.Cap()) * int64(f.Type().Elem().Size())
	}
	if got := s.ps.memBytes(); got != want {
		t.Errorf("memBytes() = %d, want Σ cap × element size = %d", got, want)
	}
}
