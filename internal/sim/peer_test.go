package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestMemBytesCountsEveryArray holds memBytes — the sim.mem_bytes and
// sim.bytes_per_peer gauges — to the sum of cap × element size over every
// slice field of peerStore and, inside each paged table, over its page
// table and every page, so an array added to the store or dropped from
// it cannot go uncounted or be counted twice.
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
	if initial := (cfg.Seeds + cfg.InitialPeers + pageRows - 1) / pageRows; len(s.ps.nbr.pages) <= initial {
		t.Fatalf("%d pages, all of the initial population's: the run did not grow the store", len(s.ps.nbr.pages))
	}
	var sum func(name string, v reflect.Value) int64
	sum = func(name string, v reflect.Value) (b int64) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				b += sum(name+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice:
			if v.Cap() == 0 {
				t.Fatalf("%s is empty: the sum would not see it", name)
			}
			b += int64(v.Cap()) * int64(v.Type().Elem().Size())
			if v.Type().Elem().Kind() == reflect.Slice {
				for i := 0; i < v.Len(); i++ {
					b += sum(fmt.Sprintf("%s[%d]", name, i), v.Index(i))
				}
			}
		}
		return b
	}
	if got, want := s.ps.memBytes(), sum("peerStore", reflect.ValueOf(s.ps)); got != want {
		t.Errorf("memBytes() = %d, want Σ cap × element size = %d", got, want)
	}
}
