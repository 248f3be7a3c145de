package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/trace"
)

// State is one point of the download-evolution state space.
type State struct {
	N int // active connections, 0..K
	B int // downloaded pieces, 0..B
	I int // potential-set size, 0..S
}

// Trajectory is one sampled realization of the download process. Entry t
// holds the state after t transition steps; entry 0 is the joining state.
type Trajectory []State

// MaxTrajectorySteps caps a single sampled download. A run that can
// never finish already ends where it strands (Model.strands); the cap
// bounds only chains that can still finish but very slowly, those with
// a tiny positive α, γ or p_n. It also bounds every count an
// EnsembleAccum holds (see there), which is why it is exported: callers
// that cap ensemble sizes check their caps against it.
const MaxTrajectorySteps = 1_000_000

// ctxCheckSteps is how many transition steps pass between context polls
// inside a single trajectory (and how many rounds inside one efficiency
// solve, a few milliseconds at k = 100). Typical downloads complete in a
// few hundred steps, so cancellation latency stays well under a
// millisecond while the poll cost is amortized away on the hot path.
const ctxCheckSteps = 1024

// SampleTrajectory draws one download realization from joining until the
// peer holds all B pieces, one step past the state where it strands, or
// the step cap. It is the one loop that materialises a trajectory; every
// Monte-Carlo estimate of the chain walks its runs through SampleRuns
// instead.
func (m *Model) SampleTrajectory(r *stats.RNG) Trajectory {
	s, stuck := State{}, false
	traj := append(make(Trajectory, 0, m.p.B+16), s)
	for step := 0; step < MaxTrajectorySteps && s.B != m.p.B && !stuck; step++ {
		stuck = m.strands(s)
		s = m.Step(r, s)
		traj = append(traj, s)
	}
	return traj
}

// walk samples one run from r straight into a and returns its completion
// step, or -1 when it strands or reaches the step cap. A stranded run
// takes one step inside its stranded state before it stops, so the phase
// totals still count it: stuck in bootstrap, or in the last phase. It
// takes SampleTrajectory's steps, polls ctx every ctxCheckSteps of them,
// and folds each state as it lands: into PotSum/PotCnt; into FPSum/FPCnt
// as a first passage in difference form (b never decreases, so the step
// that first reaches s.B is the first passage of every count not reached
// before it: +step at that range's start, −step one past its end, summed
// by settleFirstPassages); and, after the first state, into Phases as
// trace.Phaser labels it. A context error leaves a part-way.
func (m *Model) walk(ctx context.Context, r *stats.RNG, a *EnsembleAccum) (int, error) {
	var pb PhaseBreakdown
	ph := trace.Phaser{B: m.p.B}
	s, nextB, stuck := State{}, 0, false
	for step := 0; ; step++ {
		a.PotSum[s.B] += int64(s.I)
		a.PotCnt[s.B]++
		if nextB <= s.B {
			a.FPSum[nextB] += int64(step)
			a.FPCnt[nextB]++
			if nextB = s.B + 1; nextB < len(a.FPSum) {
				a.FPSum[nextB] -= int64(step)
				a.FPCnt[nextB]--
			}
		}
		if s.B == m.p.B {
			a.Phases.add(pb)
			return step, nil
		}
		if stuck || step == MaxTrajectorySteps {
			a.Phases.add(pb)
			return -1, nil
		}
		if step%ctxCheckSteps == 0 {
			if err := ctx.Err(); err != nil {
				return -1, err
			}
		}
		stuck = m.strands(s)
		s = m.Step(r, s)
		pb.count(ph.Next(s.B, s.I))
	}
}

// EnsembleStats aggregates Monte-Carlo trajectories into the curves the
// paper plots.
type EnsembleStats struct {
	// PotentialByPieces[b] is the mean potential-set size observed while
	// holding exactly b pieces (NaN if b was never observed).
	PotentialByPieces []float64
	// FirstPassage[b] is the mean number of steps until the peer first
	// holds at least b pieces (NaN if never reached).
	FirstPassage []float64
	// CompletionSteps summarizes total download times over the ensemble.
	CompletionSteps stats.Summary
	// CompletionTimes holds the raw per-run completion step counts, for
	// distribution-level comparisons (e.g. Kolmogorov–Smirnov against a
	// simulator's download durations).
	CompletionTimes []float64
	// Truncated counts the runs that stranded or hit the trajectory step
	// cap without completing. Those runs contribute to the per-piece
	// curves but not to CompletionSteps/CompletionTimes; a nonzero count
	// means the completion summaries describe only the uncensored portion
	// of the ensemble.
	Truncated int
	// Phases summarizes time spent per phase over the ensemble.
	Phases PhaseSummary
}

// EnsembleAccum is the additive state of an ensemble over a set of runs;
// every curve in EnsembleStats is a ratio of two of its entries. It is
// the only unit of merge: each worker of the local pool samples
// straight into one (SampleRuns), a shard of a distributed task is one
// and is folded with Merge, and a shard crosses the wire as
// AppendBinary's varints.
//
// Every entry is an integer count or a sum of counts. Integer addition
// is associative, so any partition of [0, runs) into contiguous ranges,
// folded in index order, yields the same accumulator as one serial pass —
// and the curves match a float64 run-by-run fold bit for bit as long as
// every sum stays below 2^53, where float64 still holds each integer
// exactly. The largest is PotSum: at most runs × (MaxTrajectorySteps+1)
// × S.
type EnsembleAccum struct {
	// PotSum[b] sums potential-set sizes over the steps spent holding
	// exactly b pieces; PotCnt[b] counts those steps.
	PotSum []int64
	PotCnt []int64
	// FPSum[b] sums, over the runs that ever held >= b pieces, the first
	// step at which they did; FPCnt[b] counts those runs.
	FPSum []int64
	FPCnt []int64
	// Phases totals the per-run phase breakdowns.
	Phases phaseAccumulator
	// Completion holds the step count of each completed run, in run order.
	Completion []int
	// Truncated counts the runs that stranded or hit the step cap instead.
	Truncated int
}

// NewEnsembleAccum returns the empty accumulator of a B-piece model.
func NewEnsembleAccum(b int) *EnsembleAccum {
	n := b + 1
	buf := make([]int64, 4*n)
	return &EnsembleAccum{
		PotSum: buf[0*n : 1*n : 1*n],
		PotCnt: buf[1*n : 2*n : 2*n],
		FPSum:  buf[2*n : 3*n : 3*n],
		FPCnt:  buf[3*n : 4*n : 4*n],
	}
}

// AppendBinary appends a's wire form to b: the curve length n, the four
// curves, the five phase totals, the completion count and its entries,
// and Truncated, every one a uvarint (of the two's-complement bits, so
// any int64 survives). The curves must be equally long, as every
// accumulator SampleRuns or UnmarshalBinary produced is.
func (a *EnsembleAccum) AppendBinary(b []byte) ([]byte, error) {
	n := len(a.PotSum)
	if len(a.PotCnt) != n || len(a.FPSum) != n || len(a.FPCnt) != n {
		return b, errors.New("core: accumulator curves differ in length")
	}
	// One allocation for the usual shard: its entries take 1–2 bytes each.
	b = slices.Grow(b, 2*(4*n+len(a.Completion))+16)
	b = binary.AppendUvarint(b, uint64(n))
	for _, curve := range [][]int64{a.PotSum, a.PotCnt, a.FPSum, a.FPCnt} {
		for _, v := range curve {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	ph := &a.Phases
	for _, v := range [...]int64{ph.Bootstrap, ph.Efficient, ph.Last, ph.StuckBootstrap, ph.HasLast} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	b = binary.AppendUvarint(b, uint64(len(a.Completion)))
	for _, v := range a.Completion {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return binary.AppendUvarint(b, uint64(a.Truncated)), nil
}

// UnmarshalBinary is AppendBinary's inverse. It overwrites every field
// of a — reusing the curves' and Completion's capacity, so one scratch
// takes a task's payloads in turn and keeps nothing of the last — and
// refuses truncated input, trailing bytes, and a count the bytes present
// could not hold (an entry is at least one byte) before allocating for
// it. It does not know B: Merge checks the curve length.
func (a *EnsembleAccum) UnmarshalBinary(data []byte) error {
	bad := false
	next := func() uint64 {
		v, w := binary.Uvarint(data)
		if w <= 0 {
			bad = true
			return 0
		}
		data = data[w:]
		return v
	}
	count := func(per int) int {
		if v := next(); v <= uint64(len(data)/per) {
			return int(v)
		}
		bad = true
		return 0
	}
	n := count(4)
	for _, curve := range []*[]int64{&a.PotSum, &a.PotCnt, &a.FPSum, &a.FPCnt} {
		*curve = slices.Grow((*curve)[:0], n)[:n]
		for i := range *curve {
			(*curve)[i] = int64(next())
		}
	}
	ph := &a.Phases
	for _, v := range []*int64{&ph.Bootstrap, &ph.Efficient, &ph.Last, &ph.StuckBootstrap, &ph.HasLast} {
		*v = int64(next())
	}
	done := count(1)
	a.Completion = slices.Grow(a.Completion[:0], done)[:done]
	for i := range a.Completion {
		a.Completion[i] = int(next())
	}
	a.Truncated = int(next())
	if bad || len(data) != 0 {
		return errors.New("core: malformed accumulator encoding")
	}
	return nil
}

// settleFirstPassages turns the difference form walk leaves in FPSum and
// FPCnt into the sums themselves, with one prefix sum per accumulator
// instead of one add per piece per run.
func (a *EnsembleAccum) settleFirstPassages() {
	for b := 1; b < len(a.FPSum); b++ {
		a.FPSum[b] += a.FPSum[b-1]
		a.FPCnt[b] += a.FPCnt[b-1]
	}
}

// Runs is the number of trajectories folded in.
func (a *EnsembleAccum) Runs() int { return len(a.Completion) + a.Truncated }

// Merge folds o — the runs that follow a's — into a. It rejects an
// accumulator sized for a different B, so a shard of some other query
// fails the merge instead of skewing it.
func (a *EnsembleAccum) Merge(o *EnsembleAccum) error {
	n := len(a.PotSum)
	if len(o.PotSum) != n || len(o.PotCnt) != n || len(o.FPSum) != n || len(o.FPCnt) != n {
		return fmt.Errorf("core: accumulator curves hold %d/%d/%d/%d entries, want %d (B+1)",
			len(o.PotSum), len(o.PotCnt), len(o.FPSum), len(o.FPCnt), n)
	}
	a.merge(o)
	return nil
}

func (a *EnsembleAccum) merge(o *EnsembleAccum) {
	for b := range a.PotSum {
		a.PotSum[b] += o.PotSum[b]
		a.PotCnt[b] += o.PotCnt[b]
		a.FPSum[b] += o.FPSum[b]
		a.FPCnt[b] += o.FPCnt[b]
	}
	a.Phases.merge(o.Phases)
	a.Completion = append(a.Completion, o.Completion...)
	a.Truncated += o.Truncated
}

// Stats finishes the accumulator into the curves the paper plots.
func (a *EnsembleAccum) Stats() EnsembleStats {
	times := make([]float64, len(a.Completion))
	for i, steps := range a.Completion {
		times[i] = float64(steps)
	}
	out := EnsembleStats{
		PotentialByPieces: make([]float64, len(a.PotSum)),
		FirstPassage:      make([]float64, len(a.PotSum)),
		CompletionSteps:   stats.Summarize(times),
		CompletionTimes:   times,
		Truncated:         a.Truncated,
		Phases:            a.Phases.summary(a.Runs()),
	}
	for b := range a.PotSum {
		out.PotentialByPieces[b] = ratioOrNaN(a.PotSum[b], a.PotCnt[b])
		out.FirstPassage[b] = ratioOrNaN(a.FPSum[b], a.FPCnt[b])
	}
	return out
}

func ratioOrNaN(sum, n int64) float64 {
	if n == 0 {
		return math.NaN()
	}
	return float64(sum) / float64(n)
}

// Ensemble samples runs independent trajectories and aggregates them.
//
// Run i draws from the indexed substream r.At(i), which equals the
// stream the former serial Split loop gave it. The runs are cut into
// fixed chunks that a bounded worker pool (internal/par; the worker
// count follows the process default, e.g. btexp -jobs) pulls in any
// order, each worker into its own accumulator — and the fold is integer
// addition, so the result is bit-identical for any worker count, any
// chunking and any schedule.
func (m *Model) Ensemble(r *stats.RNG, runs int) (EnsembleStats, error) {
	return m.EnsembleCtx(context.Background(), r, runs)
}

// EnsembleCtx is Ensemble with cooperative cancellation: the context is
// checked before every run and periodically inside each trajectory, so a
// server deadline or client disconnect aborts the whole ensemble
// promptly. The result is bit-identical to Ensemble when the context
// never fires.
func (m *Model) EnsembleCtx(ctx context.Context, r *stats.RNG, runs int) (EnsembleStats, error) {
	if runs < 1 {
		return EnsembleStats{}, errors.New("core: ensemble needs runs >= 1")
	}
	acc, err := m.SampleRuns(ctx, r, 0, runs)
	if err != nil {
		return EnsembleStats{}, err
	}
	return acc.Stats(), nil
}

// Chunk rule of SampleRuns: 32-run chunks (a few hundred microseconds
// each, well above the cost of pulling one off the feed) until there are
// 64 of them, then 64 equal chunks, so a large ensemble still balances
// across the workers however many runs it has. The rule reads only the
// range length — never the worker count — and since the fold is exact it
// could not change the result even if it did.
const (
	minChunkRuns = 32
	maxChunks    = 64
)

func chunkRuns(n int) int {
	return max(minChunkRuns, (n+maxChunks-1)/maxChunks)
}

// SampleRuns samples runs [lo, hi) of the ensemble rooted at r — run i
// from r.At(i) — into one accumulator. EnsembleCtx calls it with the
// whole ensemble and a distributed worker with its shard; the chunks of
// the range fan over the local pool either way.
func (m *Model) SampleRuns(ctx context.Context, r *stats.RNG, lo, hi int) (*EnsembleAccum, error) {
	parts, done, err := m.sampleParts(ctx, r, lo, hi)
	if err != nil {
		return nil, err
	}
	acc := parts[0]
	for _, part := range parts[1:] {
		acc.merge(part)
	}
	completed := 0
	for _, steps := range done {
		if steps >= 0 {
			done[completed] = steps
			completed++
		}
	}
	acc.Completion, acc.Truncated = done[:completed], len(done)-completed
	return acc, nil
}

// sampleParts is SampleRuns before the fold: one settled accumulator per
// worker, min(par.DefaultJobs(), chunks) of them, each holding the
// chunks its worker pulled off one shared feed, and done[i-lo], run i's
// completion step or -1 if it never finished, in run order.
func (m *Model) sampleParts(ctx context.Context, r *stats.RNG, lo, hi int) ([]*EnsembleAccum, []int, error) {
	if lo < 0 || hi <= lo {
		return nil, nil, fmt.Errorf("core: empty run range [%d,%d)", lo, hi)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	chunk := chunkRuns(hi - lo)
	chunks := (hi - lo + chunk - 1) / chunk
	done := make([]int, hi-lo)
	var feed atomic.Int64
	parts, err := par.Map(ctx, min(par.DefaultJobs(), chunks), 0, func(int) (*EnsembleAccum, error) {
		acc := NewEnsembleAccum(m.p.B)
		for c := int(feed.Add(1)) - 1; c < chunks; c = int(feed.Add(1)) - 1 {
			for i := lo + c*chunk; i < min(lo+(c+1)*chunk, hi); i++ {
				steps, err := m.walk(ctx, r.At(i), acc)
				if err != nil {
					return nil, err
				}
				done[i-lo] = steps
			}
		}
		acc.settleFirstPassages()
		return acc, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return parts, done, nil
}

// PotentialRatioCurve returns E[i | b] / s for b = 0..B: the Figure 1(a)
// series (potential-set size normalized by the neighbor-set size, as a
// function of pieces downloaded).
func (e EnsembleStats) PotentialRatioCurve(s int) []float64 {
	out := make([]float64, len(e.PotentialByPieces))
	for b, v := range e.PotentialByPieces {
		out[b] = v / float64(s)
	}
	return out
}
