package sim

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/trace"
)

// CompletionRecord describes one finished download. Its acquisition
// rounds are the row of the same index in the Result's completion log,
// (*Result).Acquisitions.
type CompletionRecord struct {
	ID        PeerID
	ArrivedAt float64
	DoneAt    float64
}

// Duration returns the total download time.
func (c CompletionRecord) Duration() float64 { return c.DoneAt - c.ArrivedAt }

// PeerTrace is the instrumented trajectory of one tracked peer, the
// simulator's analogue of the modified-BitTornado logs in Section 4.2.
type PeerTrace struct {
	ID        PeerID
	ArrivedAt float64
	Completed bool
	Samples   []TraceSample
}

// Download converts pt into the shared trace format: time since arrival,
// and bytes = pieces × trace.DefaultPieceSize.
func (pt PeerTrace) Download(cfg Config) *trace.Download {
	d := &trace.Download{
		Meta: trace.Meta{
			Client:      "sim",
			Swarm:       fmt.Sprintf("sim-B%d-s%d", cfg.Pieces, cfg.NeighborSet),
			Pieces:      cfg.Pieces,
			PieceSize:   trace.DefaultPieceSize,
			NeighborCap: cfg.NeighborSet,
			ConnCap:     cfg.MaxConns,
		},
		Samples: make([]trace.Sample, len(pt.Samples)),
	}
	for i, s := range pt.Samples {
		d.Samples[i] = trace.Sample{
			T:         s.Time - pt.ArrivedAt,
			Bytes:     int64(s.Pieces) * trace.DefaultPieceSize,
			Pieces:    s.Pieces,
			Potential: s.Potential,
			Conns:     s.Conns,
		}
	}
	return d
}

// Result holds every measurement of a simulation run. The potential set
// is measured the way the paper's §4 measures it, on instrumented peers
// only: set Config.TrackPeers and read TraceSample.Potential in Traces.
type Result struct {
	// PopulationSeries is the number of leechers over time (Fig. 4b).
	PopulationSeries *stats.Series
	// EntropySeries is the system entropy E over time (Fig. 4c).
	EntropySeries *stats.Series
	// EfficiencySeries is the per-round fraction of connection slots in
	// use (Fig. 4a's simulated efficiency).
	EfficiencySeries *stats.Series
	// PRSeries is the per-round fraction of connections that survived
	// from the previous round (the model's p_r).
	PRSeries *stats.Series

	// recs and rows hold the completion log, in completion order: record
	// i (NumCompletions, Completion) and row i, stride B, its acquisition
	// rounds (Acquisitions); done counts the records logged.
	done int
	recs paged[CompletionRecord]
	rows paged[int32]
	// Traces holds the tracked peers' instrumented trajectories.
	Traces []PeerTrace

	// CensusT and Census hold the piece-count population vector over time
	// when Config.PieceCensus is set: Census[i][b] is the number of
	// leechers holding exactly b pieces at time CensusT[i] (b spans
	// 0..Pieces; a leecher at b = Pieces is mid-departure). Row sums equal
	// the PopulationSeries sample of the same round.
	CensusT []float64
	Census  [][]int32

	// EndTime is the virtual time the run stopped.
	EndTime float64

	// EventsFired counts the run's events: exchange rounds plus arrival
	// draws, admitted or refused at MaxPeers.
	EventsFired uint64

	// Aggregate counters.
	counters
	lingered       int
	rounds         int
	blackoutRounds int

	prAcc  stats.Accumulator
	effAcc stats.Accumulator
}

// counters are the cumulative event counts an Observer receives as
// per-round deltas; copying the struct is the snapshot.
type counters struct {
	arrivals, exchanges, seedUploads, optimistic int
	shakes, aborts                               int
	connsFormed, connsDropped                    int
	faultDrops, crashes, rejoins                 int
	// trackerTries counts the candidates topUpNeighbors drew and
	// trackerLinks the ones that became neighbors.
	trackerTries, trackerLinks int
}

func newResult(cfg Config) *Result {
	// Size the per-round series for the whole run up front (one sample per
	// exchange round), so appends in the round loop never reallocate.
	rounds := int(math.Min(cfg.Horizon+2, 65536))
	return &Result{
		recs:             paged[CompletionRecord]{k: 1},
		rows:             paged[int32]{k: cfg.Pieces},
		PopulationSeries: stats.NewSeries(rounds),
		EntropySeries:    stats.NewSeries(rounds),
		EfficiencySeries: stats.NewSeries(rounds),
		PRSeries:         stats.NewSeries(rounds),
	}
}

// Arrivals returns the number of leechers that joined after time zero.
func (r *Result) Arrivals() int { return r.arrivals }

// Exchanges returns the number of tit-for-tat piece transfers.
func (r *Result) Exchanges() int { return r.exchanges }

// SeedUploads returns the number of pieces pushed by seeds.
func (r *Result) SeedUploads() int { return r.seedUploads }

// OptimisticUploads returns the number of optimistic-unchoke donations.
func (r *Result) OptimisticUploads() int { return r.optimistic }

// Shakes returns how many peers performed the Section 7.1 peer-set shake.
func (r *Result) Shakes() int { return r.shakes }

// Aborts returns the number of leechers that gave up before completing.
func (r *Result) Aborts() int { return r.aborts }

// Lingered returns the number of completed peers that stayed to seed.
func (r *Result) Lingered() int { return r.lingered }

// Rounds returns the number of exchange rounds executed.
func (r *Result) Rounds() int { return r.rounds }

// ConnsFormed returns the number of connections established over the run.
func (r *Result) ConnsFormed() int { return r.connsFormed }

// FaultDrops returns the number of connections torn down by the injected
// failure process (a subset of the drops RoundStats.ConnsDropped counts).
func (r *Result) FaultDrops() int { return r.faultDrops }

// Crashes returns the number of injected leecher crashes.
func (r *Result) Crashes() int { return r.crashes }

// Rejoins returns how many crashed leechers rejoined the swarm.
func (r *Result) Rejoins() int { return r.rejoins }

// BlackoutRounds returns how many rounds fell inside an injected tracker
// blackout window.
func (r *Result) BlackoutRounds() int { return r.blackoutRounds }

// MeanPR returns the run-average connection persistence probability.
func (r *Result) MeanPR() float64 { return r.prAcc.Mean() }

// MeanEfficiency returns the run-average slot utilization η.
func (r *Result) MeanEfficiency() float64 { return r.effAcc.Mean() }

// MeanDownloadTime returns the average completed download duration, or
// NaN when nothing completed.
func (r *Result) MeanDownloadTime() float64 {
	if r.done == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := range r.done {
		sum += r.Completion(i).Duration()
	}
	return sum / float64(r.done)
}

// logCompletion appends c and its B acquisition rounds to the completion
// log, growing both tables by a page at each pageRows-row boundary.
func (r *Result) logCompletion(c CompletionRecord, rounds []int32) {
	if r.done&(pageRows-1) == 0 {
		r.recs.grow(r.done, pageRows)
		r.rows.grow(r.done, pageRows)
	}
	r.recs.row(r.done)[0] = c
	copy(r.rows.row(r.done), rounds)
	r.done++
}

// NumCompletions returns the number of finished downloads.
func (r *Result) NumCompletions() int { return r.done }

// check panics unless completion i is below NumCompletions.
func (r *Result) check(i int) {
	if uint(i) >= uint(r.done) {
		panic(fmt.Sprintf("sim: completion %d out of range [0:%d]", i, r.done))
	}
}

// Completion returns the i-th finished download, in completion order.
func (r *Result) Completion(i int) CompletionRecord {
	r.check(i)
	return r.recs.row(i)[0]
}

// Acquisitions returns the acquisition log of Completion(i): entry m is
// the round at which that peer acquired its (m+1)-th piece, B entries in
// acquisition order. The slice is a view into the Result, capped at its
// row.
func (r *Result) Acquisitions(i int) []int32 {
	r.check(i)
	return r.rows.row(i)
}

// MeanTTDByOrdinal returns, for each acquisition ordinal m (1-based piece
// order), the mean time between the m-1-th and m-th piece over all
// completions — the Figure 4(d) series. Index 0 is the first-piece wait.
func (r *Result) MeanTTDByOrdinal() []float64 {
	if r.done == 0 {
		return nil
	}
	out := make([]float64, r.rows.k)
	for i := range r.done {
		row := r.Acquisitions(i)
		out[0] += float64(row[0]) - r.Completion(i).ArrivedAt
		for m := 1; m < len(row); m++ {
			out[m] += float64(row[m]) - float64(row[m-1])
		}
	}
	for m := range out {
		out[m] /= float64(r.done)
	}
	return out
}

// MeanFirstPassage returns, for each piece count b (0..B), the mean time
// from arrival until the b-th piece was acquired, averaged over all
// completions — the simulation side of the Figure 1(b) evolution timeline.
// Entry 0 is always 0; with no completions every other entry is NaN.
func (r *Result) MeanFirstPassage() []float64 {
	out := make([]float64, r.rows.k+1)
	for i := range r.done {
		row := r.Acquisitions(i)
		t := float64(row[0]) - r.Completion(i).ArrivedAt
		out[1] += t
		for m := 1; m < len(row); m++ {
			t += float64(row[m]) - float64(row[m-1])
			out[m+1] += t
		}
	}
	n := float64(r.done)
	for b := 1; b < len(out); b++ {
		out[b] /= n // 0/0: NaN when nothing completed
	}
	return out
}

// finish snapshots the run-level aggregates, including traces of tracked
// peers still present at the horizon.
func (r *Result) finish(s *Swarm) {
	r.EndTime, r.EventsFired = s.now, s.events
	for _, sl := range s.alive {
		if s.ps.tracked[sl] && !s.ps.seed[sl] {
			r.Traces = append(r.Traces, PeerTrace{
				ID:        s.ps.id[sl],
				ArrivedAt: s.ps.arrived[sl],
				Completed: false,
				Samples:   s.traces[s.ps.traceIdx[sl]],
			})
		}
	}
}
