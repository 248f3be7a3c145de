package des

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []float64
	times := []float64{5, 1, 3, 2, 4}
	for _, at := range times {
		at := at
		if _, err := s.At(at, func() { order = append(order, at) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(math.Inf(1))
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events fired out of order: %v", order)
	}
	if len(order) != 5 {
		t.Errorf("fired %d events, want 5", len(order))
	}
	if s.Now() != 5 {
		t.Errorf("clock = %g, want 5", s.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := s.At(1, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(math.Inf(1))
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events must fire FIFO, got %v", order)
		}
	}
}

func TestPastEventRejected(t *testing.T) {
	s := New()
	if _, err := s.At(5, func() {}); err != nil {
		t.Fatal(err)
	}
	s.Run(math.Inf(1))
	if _, err := s.At(1, func() {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("got %v, want ErrPastEvent", err)
	}
	if _, err := s.After(-1, func() {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("negative delay: got %v, want ErrPastEvent", err)
	}
	if _, err := s.After(1, nil); err == nil {
		t.Error("nil callback must be rejected")
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	ev, err := s.At(1, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	ev.Cancel()
	s.Run(math.Inf(1))
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	s := New()
	var hits []float64
	if _, err := s.At(1, func() {
		hits = append(hits, s.Now())
		if _, err := s.After(2, func() { hits = append(hits, s.Now()) }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.Run(math.Inf(1))
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Errorf("hits = %v, want [1 3]", hits)
	}
}

func TestRunHorizon(t *testing.T) {
	s := New()
	fired := 0
	for _, at := range []float64{1, 2, 3, 10} {
		if _, err := s.At(at, func() { fired++ }); err != nil {
			t.Fatal(err)
		}
	}
	end := s.Run(5)
	if fired != 3 {
		t.Errorf("fired %d events before horizon, want 3", fired)
	}
	if end != 5 {
		t.Errorf("Run returned %g, want horizon 5", end)
	}
	// The event beyond the horizon is still pending and fires on resume.
	s.Run(math.Inf(1))
	if fired != 4 {
		t.Errorf("fired %d after resume, want 4", fired)
	}
}

func TestStop(t *testing.T) {
	s := New()
	fired := 0
	if _, err := s.At(1, func() { fired++; s.Stop() }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.At(2, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	s.Run(math.Inf(1))
	if fired != 1 {
		t.Errorf("fired %d, want 1 (stopped)", fired)
	}
	if s.Step() {
		t.Error("Step after Stop must return false")
	}
}

func TestTicker(t *testing.T) {
	s := New()
	var ticks []float64
	tk, err := NewTicker(s, 2, func() { ticks = append(ticks, s.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.At(7, func() { tk.Stop() }); err != nil {
		t.Fatal(err)
	}
	s.Run(math.Inf(1))
	want := []float64{2, 4, 6}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("tick %d at %g, want %g", i, ticks[i], want[i])
		}
	}
}

func TestTickerBadPeriod(t *testing.T) {
	if _, err := NewTicker(New(), 0, func() {}); err == nil {
		t.Error("zero period must be rejected")
	}
	if _, err := NewTicker(New(), math.NaN(), func() {}); err == nil {
		t.Error("NaN period must be rejected")
	}
}

func TestFiredAndPendingCounters(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		if _, err := s.At(float64(i), func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Pending != 5 {
		t.Errorf("pending = %d, want 5", st.Pending)
	}
	s.Run(math.Inf(1))
	if st := s.Stats(); st.Fired != 5 || st.Pending != 0 {
		t.Errorf("fired = %d, pending = %d, want 5 and 0", st.Fired, st.Pending)
	}
}

func TestHeapOrderingProperty(t *testing.T) {
	// For any multiset of event times, execution order is the sorted order.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		r := stats.NewRNG(seed, seed+1)
		s := New()
		times := make([]float64, n)
		var fired []float64
		for i := range times {
			times[i] = math.Floor(r.Float64()*100) / 10 // coarse grid forces ties
			at := times[i]
			if _, err := s.At(at, func() { fired = append(fired, at) }); err != nil {
				return false
			}
		}
		s.Run(math.Inf(1))
		sort.Float64s(times)
		if len(fired) != n {
			return false
		}
		for i := range times {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	s := New()
	var ran int
	for i := 0; i < 5; i++ {
		if _, err := s.At(float64(i), func() { ran++ }); err != nil {
			t.Fatal(err)
		}
	}
	ev, err := s.At(2.5, func() { t.Error("cancelled event fired") })
	if err != nil {
		t.Fatal(err)
	}
	ev.Cancel()
	if st := s.Stats(); st.MaxQueueDepth != 6 {
		t.Fatalf("MaxQueueDepth = %d, want 6", st.MaxQueueDepth)
	}
	s.Run(math.Inf(1))
	st := s.Stats()
	if ran != 5 || st.Fired != 5 {
		t.Fatalf("fired = %d/%d, want 5", ran, st.Fired)
	}
	if st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", st.Cancelled)
	}
	if st.Pending != 0 {
		t.Fatalf("Pending = %d, want 0", st.Pending)
	}
	if st.VirtualTime != 4 {
		t.Fatalf("VirtualTime = %g, want 4", st.VirtualTime)
	}
	if st.WallSeconds <= 0 {
		t.Fatalf("WallSeconds = %g, want > 0", st.WallSeconds)
	}
	if wpu := st.WallPerVirtualUnit(); wpu != st.WallSeconds/4 {
		t.Fatalf("WallPerVirtualUnit = %g", wpu)
	}
	if (Stats{}).WallPerVirtualUnit() != 0 {
		t.Fatal("zero Stats must report 0 wall-per-unit")
	}
}
