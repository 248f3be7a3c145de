package sim

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// TestMeanTTDByOrdinalRaggedLengths is the regression test for the sizing
// bug: the aggregate used to size its accumulators from Completions[0] and
// index-panicked whenever a later completion had acquired more pieces
// (partial initial inventories make short first completions routine).
func TestMeanTTDByOrdinalRaggedLengths(t *testing.T) {
	r := &Result{Completions: []CompletionRecord{
		{ID: 1, TTD0: 1, TTD: []float64{2}},          // 2 pieces
		{ID: 2, TTD0: 3, TTD: []float64{4, 5, 6}},    // 4 pieces — longer than [0]
		{ID: 3, TTD0: 5, TTD: nil},                   // skewed start: one piece
		{ID: 4, TTD0: 7, TTD: []float64{8, 9, 6, 4}}, // 5 pieces
	}}
	got := r.MeanTTDByOrdinal()
	if len(got) != 5 {
		t.Fatalf("length %d, want 5 (longest completion)", len(got))
	}
	want := []float64{4, (2.0 + 4 + 8) / 3, (5.0 + 9) / 2, (6.0 + 6) / 2, 4}
	for i, w := range want {
		if math.Abs(got[i]-w) > 1e-12 {
			t.Errorf("ordinal %d: got %g, want %g", i, got[i], w)
		}
	}
}

func TestMeanTTDByOrdinalZeroCompletions(t *testing.T) {
	var r Result
	if got := r.MeanTTDByOrdinal(); got != nil {
		t.Fatalf("zero completions: got %v, want nil", got)
	}
}

func TestMeanTTDByOrdinalAllEmptyTTD(t *testing.T) {
	// Completions that recorded no acquisitions at all (zero-length
	// acquireOrder) still yield a one-entry series for the first wait.
	r := &Result{Completions: []CompletionRecord{{ID: 1}, {ID: 2}}}
	got := r.MeanTTDByOrdinal()
	if len(got) != 1 {
		t.Fatalf("length %d, want 1", len(got))
	}
	if got[0] != 0 {
		t.Fatalf("first-piece wait %g, want 0", got[0])
	}
}

func TestMeanFirstPassageZeroCompletions(t *testing.T) {
	var r Result
	got := r.MeanFirstPassage(4)
	if len(got) != 5 {
		t.Fatalf("length %d, want 5", len(got))
	}
	if got[0] != 0 {
		t.Errorf("entry 0 = %g, want 0", got[0])
	}
	for b := 1; b <= 4; b++ {
		if !math.IsNaN(got[b]) {
			t.Errorf("entry %d = %g, want NaN (unobserved)", b, got[b])
		}
	}
}

func TestMeanFirstPassagePartialCompletions(t *testing.T) {
	// Completions shorter than the requested piece count leave NaN gaps at
	// the unreached ordinals rather than zeros.
	r := &Result{Completions: []CompletionRecord{
		{ID: 1, TTD0: 1, TTD: []float64{2}},    // reaches b=2 at t=3
		{ID: 2, TTD0: 2, TTD: []float64{1, 4}}, // reaches b=3 at t=7
	}}
	got := r.MeanFirstPassage(5)
	if len(got) != 6 {
		t.Fatalf("length %d, want 6", len(got))
	}
	if got[0] != 0 {
		t.Errorf("entry 0 = %g, want 0", got[0])
	}
	if want := 1.5; math.Abs(got[1]-want) != 0 {
		t.Errorf("b=1: got %g, want %g", got[1], want)
	}
	if want := 3.0; math.Abs(got[2]-want) != 0 {
		t.Errorf("b=2: got %g, want %g", got[2], want)
	}
	if want := 7.0; math.Abs(got[3]-want) != 0 {
		t.Errorf("b=3: got %g, want %g (only one completion reached it)", got[3], want)
	}
	for b := 4; b <= 5; b++ {
		if !math.IsNaN(got[b]) {
			t.Errorf("b=%d: got %g, want NaN gap", b, got[b])
		}
	}
}

func TestMeanFirstPassageMonotoneFromRun(t *testing.T) {
	cfg := smallConfig()
	res := runSwarm(t, cfg)
	if len(res.Completions) == 0 {
		t.Fatal("no completions")
	}
	fp := res.MeanFirstPassage(cfg.Pieces)
	prev := 0.0
	for b := 1; b <= cfg.Pieces; b++ {
		if math.IsNaN(fp[b]) {
			continue
		}
		if fp[b] < prev-1e-9 {
			t.Fatalf("first passage not monotone: fp[%d]=%g < %g", b, fp[b], prev)
		}
		prev = fp[b]
	}
}

// TestKernelStatsOnResult holds the swarm's two clocks to the event order
// of a discrete-event kernel: each round and each arrival draw is one
// event, rounds fire at 1, 2, … through the horizon with the arrivals
// between them in time order, and an exact tie fires in schedule order.
func TestKernelStatsOnResult(t *testing.T) {
	t.Run("events", func(t *testing.T) {
		cfg := smallConfig()
		res := runSwarm(t, cfg)
		if want := uint64(res.Rounds() + res.Arrivals()); res.EventsFired != want || want == 0 {
			t.Errorf("%d events fired, want %d rounds + %d arrivals",
				res.EventsFired, res.Rounds(), res.Arrivals())
		}
		if res.EndTime != cfg.Horizon || res.Rounds() != int(cfg.Horizon) {
			t.Errorf("run ended at %g after %d rounds, want %g and %d",
				res.EndTime, res.Rounds(), cfg.Horizon, int(cfg.Horizon))
		}
	})
	t.Run("time order", func(t *testing.T) {
		cfg := smallConfig()
		cfg.ArrivalRate = 3
		var times []float64
		cfg.Observer = observerFunc(func(rs RoundStats) { times = append(times, rs.Time) })
		s := mustRun(t, cfg)
		lastID := s.ps.id[s.alive[len(s.alive)-1]]
		for at := 1.0; at <= cfg.Horizon; at++ {
			if err := s.Advance(at); err != nil {
				t.Fatal(err)
			}
			prev := at - 1
			for _, sl := range s.alive {
				if s.ps.id[sl] <= lastID {
					continue
				}
				if arr := s.ps.arrived[sl]; arr < prev || arr <= at-1 || arr > at {
					t.Fatalf("peer %d arrived at %g, out of order in (%g, %g]", s.ps.id[sl], arr, at-1, at)
				}
				prev = s.ps.arrived[sl]
			}
			lastID = max(lastID, s.ps.id[s.alive[len(s.alive)-1]])
		}
		for i, at := range times {
			if at != float64(i+1) {
				t.Fatalf("round %d fired at %g", i+1, at)
			}
		}
		if s.res.arrivals < int(cfg.Horizon) {
			t.Fatalf("only %d arrivals", s.res.arrivals)
		}
	})
	t.Run("tie fires in schedule order", func(t *testing.T) {
		// New sets the round clock before it draws the first arrival, and
		// each round resets the round clock after the pending arrival was
		// drawn: an arrival tied with round 1 fires after it, one tied with
		// round 2 before it.
		for warm, want := range []int{0, 1} {
			cfg := smallConfig()
			seen := -1
			cfg.Observer = observerFunc(func(rs RoundStats) { seen = rs.Arrivals })
			s := mustRun(t, cfg)
			if err := s.Advance(float64(warm)); err != nil {
				t.Fatal(err)
			}
			s.nextArrival = s.nextRound
			before := s.res.arrivals
			if err := s.Advance(s.nextRound); err != nil {
				t.Fatal(err)
			}
			if seen != want || s.res.arrivals != before+1 {
				t.Errorf("round %d saw %d of the %d arrivals at its own time, want %d",
					warm+1, seen, s.res.arrivals-before, want)
			}
		}
	})
}

func TestConnectionCountersPopulated(t *testing.T) {
	cfg := smallConfig()
	res := runSwarm(t, cfg)
	if res.Rounds() == 0 {
		t.Fatal("no rounds ran")
	}
	if res.ConnsFormed() == 0 {
		t.Error("no connections formed")
	}
	if res.connsDropped == 0 {
		t.Error("no connections dropped over a full run")
	}
}

func TestPeerTraceDownload(t *testing.T) {
	pt := PeerTrace{ArrivedAt: 10, Samples: []TraceSample{
		{Time: 10, Pieces: 0, Potential: 0, Conns: 0},
		{Time: 12.5, Pieces: 3, Potential: 2, Conns: 1},
	}}
	d := pt.Download(Config{Pieces: 8, NeighborSet: 5, MaxConns: 3})
	want := trace.Meta{Client: "sim", Swarm: "sim-B8-s5", Pieces: 8, PieceSize: trace.DefaultPieceSize, NeighborCap: 5, ConnCap: 3}
	if d.Meta != want {
		t.Errorf("meta = %+v, want %+v", d.Meta, want)
	}
	if len(d.Samples) != 2 || cap(d.Samples) != 2 {
		t.Fatalf("samples len %d cap %d, want 2 and 2", len(d.Samples), cap(d.Samples))
	}
	if s := d.Samples[1]; s != (trace.Sample{T: 2.5, Bytes: 3 * trace.DefaultPieceSize, Pieces: 3, Potential: 2, Conns: 1}) {
		t.Errorf("sample = %+v", s)
	}
}
