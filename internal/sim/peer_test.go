package sim

import (
	"reflect"
	"testing"
)

// TestMemBytesCountsEveryArray holds memBytes — the sim.mem_bytes and
// sim.bytes_per_peer gauges — to the sum of cap × element size over every
// slice field of peerStore and of every slotPage, so an array added to
// the store or its pages, or dropped from them, cannot go uncounted or be
// counted twice.
func TestMemBytesCountsEveryArray(t *testing.T) {
	cfg := smallConfig() // rarest-first: the rare table is allocated too
	cfg.ArrivalRate = 20 // outgrows the initial population's pages
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(10); err != nil {
		t.Fatal(err)
	}
	if initial := (cfg.Seeds + cfg.InitialPeers + slotRun - 1) / slotRun; len(s.ps.pages) <= initial {
		t.Fatalf("%d pages, all of the initial population's: the run did not grow the store", len(s.ps.pages))
	}
	sum := func(v reflect.Value) (b int64) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.Kind() != reflect.Slice {
				continue
			}
			if f.Cap() == 0 {
				t.Fatalf("%s.%s is empty: the sum would not see it", v.Type().Name(), v.Type().Field(i).Name)
			}
			b += int64(f.Cap()) * int64(f.Type().Elem().Size())
		}
		return b
	}
	want := sum(reflect.ValueOf(s.ps))
	for _, pg := range s.ps.pages {
		want += sum(reflect.ValueOf(pg))
	}
	if got := s.ps.memBytes(); got != want {
		t.Errorf("memBytes() = %d, want Σ cap × element size = %d", got, want)
	}
}
