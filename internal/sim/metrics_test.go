package sim

import (
	"math"
	"slices"
	"testing"

	"repro/internal/trace"
)

// logOf builds a Result whose completion log holds rows (stride b):
// completion i arrived at arrived[i%len(arrived)] and acquired its pieces
// at rows[i%len(rows)], for n completions.
func logOf(b, n int, arrived []float64, rows [][]int32) *Result {
	r := newResult(Config{Pieces: b})
	for i := range n {
		r.logCompletion(CompletionRecord{ID: PeerID(i), ArrivedAt: arrived[i%len(arrived)]}, rows[i%len(rows)])
	}
	return r
}

// TestMeanTTDByOrdinalRaggedLengths reads Figure 4(d)'s means off a
// stride-5 log whose 80 rows cross the first page boundary, and checks
// every row reads back as logged, capped at its stride. The ragged rows
// the test is named for (completions of differing lengths, which once
// index-panicked the aggregate) can no longer exist: every completion
// logs exactly B rounds.
func TestMeanTTDByOrdinalRaggedLengths(t *testing.T) {
	arrived := []float64{0, 1, 2, 3}
	rows := [][]int32{
		{1, 3, 4, 6, 10},     // wait 1, gaps 2 1 2 4
		{4, 8, 13, 19, 20},   // wait 3, gaps 4 5 6 1
		{7, 7, 8, 9, 9},      // wait 5, gaps 0 1 1 0
		{10, 18, 27, 33, 37}, // wait 7, gaps 8 9 6 4
	}
	r := logOf(5, 80, arrived, rows)
	if len(r.rows.pages) != 2 {
		t.Fatalf("%d pages for 80 rows, want 2", len(r.rows.pages))
	}
	for i := range r.NumCompletions() {
		row := r.Acquisitions(i)
		if len(row) != 5 || cap(row) != 5 || !slices.Equal(row, rows[i%4]) {
			t.Fatalf("row %d = %v (cap %d), want %v", i, row, cap(row), rows[i%4])
		}
	}
	got := r.MeanTTDByOrdinal()
	want := []float64{4, 3.5, 4, 3.75, 2.25}
	if !slices.Equal(got, want) {
		t.Errorf("mean TTD by ordinal %v, want %v", got, want)
	}
}

func TestMeanTTDByOrdinalZeroCompletions(t *testing.T) {
	r := logOf(4, 0, nil, nil)
	if got := r.MeanTTDByOrdinal(); got != nil {
		t.Fatalf("zero completions: got %v, want nil", got)
	}
}

// TestMeanTTDByOrdinalAllEmptyTTD: a one-piece file (B = 1) has no gaps,
// only the first-piece wait, over 80 rows across the first page boundary.
func TestMeanTTDByOrdinalAllEmptyTTD(t *testing.T) {
	r := logOf(1, 80, []float64{0, 1}, [][]int32{{0}, {3}}) // waits 0 and 2
	got := r.MeanTTDByOrdinal()
	if !slices.Equal(got, []float64{1}) {
		t.Fatalf("mean TTD %v, want [1]", got)
	}
}

func TestMeanFirstPassageZeroCompletions(t *testing.T) {
	r := logOf(4, 0, nil, nil)
	got := r.MeanFirstPassage()
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

// TestMeanFirstPassagePartialCompletions sums first passages over 80
// rows of a stride-3 log across the first page boundary. Completions
// shorter than B, whose unreached ordinals were NaN gaps, can no longer
// exist: every completion logs B rounds.
func TestMeanFirstPassagePartialCompletions(t *testing.T) {
	r := logOf(3, 80, []float64{0, 1}, [][]int32{
		{1, 3, 3}, // passages 1 3 3
		{3, 4, 8}, // passages 2 3 7
	})
	got := r.MeanFirstPassage()
	if want := []float64{0, 1.5, 3, 5}; !slices.Equal(got, want) {
		t.Errorf("mean first passage %v, want %v", got, want)
	}
}

// TestAcquisitionsMatchTraces holds the completion log to an oracle that
// does not read the store's acq rows: a tracked peer is sampled every
// round after the round's transfers, so its (m+1)-th piece arrived at the
// first sample holding at least m+1 pieces. The run has no initial skew,
// so every piece is acquired at a round, and fills three pages of the log.
func TestAcquisitionsMatchTraces(t *testing.T) {
	cfg := smallConfig()
	cfg.TrackPeers = 1000
	res := runSwarm(t, cfg)
	if len(res.rows.pages) < 3 {
		t.Fatalf("%d completions on %d pages, want three pages", res.NumCompletions(), len(res.rows.pages))
	}
	samples := map[PeerID][]TraceSample{}
	for _, tr := range res.Traces {
		if tr.Completed {
			samples[tr.ID] = tr.Samples
		}
	}
	for i := range res.NumCompletions() {
		c := res.Completion(i)
		smp, ok := samples[c.ID]
		if !ok {
			t.Fatalf("completion %d (peer %d) has no trace", i, c.ID)
		}
		for m, at := range res.Acquisitions(i) {
			j := slices.IndexFunc(smp, func(s TraceSample) bool { return s.Pieces >= m+1 })
			if j < 0 || smp[j].Time != float64(at) {
				t.Fatalf("peer %d acquired piece %d at round %d; trace %v", c.ID, m+1, at, smp)
			}
		}
	}
}

func TestMeanFirstPassageMonotoneFromRun(t *testing.T) {
	cfg := smallConfig()
	res := runSwarm(t, cfg)
	if res.NumCompletions() == 0 {
		t.Fatal("no completions")
	}
	fp := res.MeanFirstPassage()
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
