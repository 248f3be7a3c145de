package core

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/par"
	"repro/internal/stats"
)

// runByRunEnsemble is the fold EnsembleCtx used before accumulators: one
// float64 partial per trajectory, summed in run order. It stays here as
// the oracle the integer fold must match bit for bit.
func runByRunEnsemble(m *Model, r *stats.RNG, runs int) EnsembleStats {
	b := m.p.B
	potSum := make([]float64, b+1)
	potCnt := make([]int64, b+1)
	fpSum := make([]float64, b+1)
	fpCnt := make([]int64, b+1)
	times := []float64{}
	truncated := 0
	var phases phaseAccumulator
	for i := 0; i < runs; i++ {
		traj := m.SampleTrajectory(r.At(i))
		runPot := make([]float64, b+1)
		nextB := 0
		for step, s := range traj {
			runPot[s.B] += float64(s.I)
			potCnt[s.B]++
			for ; nextB <= s.B; nextB++ {
				fpSum[nextB] += float64(step)
				fpCnt[nextB]++
			}
		}
		for bb := range potSum {
			potSum[bb] += runPot[bb]
		}
		if traj[len(traj)-1].B == b {
			times = append(times, float64(len(traj)-1))
		} else {
			truncated++
		}
		phases.add(ClassifyPhases(m.p, traj))
	}
	out := EnsembleStats{
		PotentialByPieces: make([]float64, b+1),
		FirstPassage:      make([]float64, b+1),
		CompletionSteps:   stats.Summarize(times),
		CompletionTimes:   times,
		Truncated:         truncated,
		Phases:            phases.summary(runs),
	}
	for bb := range potSum {
		out.PotentialByPieces[bb] = math.NaN()
		if potCnt[bb] > 0 {
			out.PotentialByPieces[bb] = potSum[bb] / float64(potCnt[bb])
		}
		out.FirstPassage[bb] = math.NaN()
		if fpCnt[bb] > 0 {
			out.FirstPassage[bb] = fpSum[bb] / float64(fpCnt[bb])
		}
	}
	return out
}

// sameEnsemble compares bit for bit: DeepEqual treats NaN != NaN, but
// the sparse-bucket NaNs, and those of a summary over fewer than two
// completions, are part of the contract.
func sameEnsemble(a, b EnsembleStats) bool {
	sameBits := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if !sameBits(a.PotentialByPieces, b.PotentialByPieces) ||
		!sameBits(a.FirstPassage, b.FirstPassage) ||
		!sameBits(a.CompletionTimes, b.CompletionTimes) ||
		!sameBits(summaryFields(a.CompletionSteps), summaryFields(b.CompletionSteps)) {
		return false
	}
	a.CompletionSteps, b.CompletionSteps = stats.Summary{N: a.CompletionSteps.N}, stats.Summary{N: b.CompletionSteps.N}
	a.PotentialByPieces, b.PotentialByPieces = nil, nil
	a.FirstPassage, b.FirstPassage = nil, nil
	a.CompletionTimes, b.CompletionTimes = nil, nil
	return reflect.DeepEqual(a, b)
}

func summaryFields(s stats.Summary) []float64 {
	return []float64{s.Mean, s.Stddev, s.Min, s.P25, s.Median, s.P75, s.Max}
}

// TestAccumFoldMatchesEnsemble is the exactness argument as a property:
// for seeded model parameters and ensemble sizes, folding the
// accumulators of any partition of [0, runs) into contiguous ranges —
// singletons, one range, serve's default 32-run shards, random cuts, each
// also through the bytes a shard crosses the wire as — equals Ensemble,
// and Ensemble equals the former run-by-run float64 fold, on every bit
// of every curve and with CompletionTimes in run order.
func TestAccumFoldMatchesEnsemble(t *testing.T) {
	const shardRuns = 32 // serve.DefaultShardRuns
	gen := stats.NewRNG(2007, 12)
	for c := 0; c < 12; c++ {
		b := 1 + gen.IntN(60)
		p := Params{
			B: b, K: 1 + gen.IntN(8), S: 1 + gen.IntN(50),
			PInit: gen.Float64(), PR: gen.Float64(), PN: gen.Float64(),
			// Away from 0, where a stuck peer walks to the step cap.
			Alpha: 0.05 + 0.95*gen.Float64(), Gamma: 0.05 + 0.95*gen.Float64(),
			Phi: UniformPhi(b),
		}
		runs := 1 + gen.IntN(150)
		m, err := NewModel(p)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		r := stats.NewRNG(uint64(c), 99)
		want, err := m.Ensemble(r, runs)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if got := runByRunEnsemble(m, r, runs); !sameEnsemble(got, want) {
			t.Fatalf("case %d (%+v, runs %d): Ensemble diverges from the run-by-run float fold:\n got: %+v\nwant: %+v", c, p, runs, want, got)
		}

		every := func(size int) []int { // cut points of fixed-size ranges
			var cuts []int
			for lo := size; lo < runs; lo += size {
				cuts = append(cuts, lo)
			}
			return cuts
		}
		partitions := map[string][]int{
			"singletons": every(1),
			"one range":  nil,
			"shards":     every(shardRuns),
		}
		for i := 0; i < 3; i++ {
			var cuts []int
			for lo := 1; lo < runs; lo++ {
				if gen.IntN(8) == 0 {
					cuts = append(cuts, lo)
				}
			}
			partitions["random"+string(rune('0'+i))] = cuts
		}
		for name, cuts := range partitions {
			for _, wire := range []bool{false, true} {
				acc := NewEnsembleAccum(b)
				lo := 0
				for _, hi := range append(cuts, runs) {
					part, err := m.SampleRuns(context.Background(), r, lo, hi)
					if err != nil {
						t.Fatalf("case %d %s [%d,%d): %v", c, name, lo, hi, err)
					}
					if part.Runs() != hi-lo {
						t.Fatalf("case %d %s [%d,%d): accumulator holds %d runs", c, name, lo, hi, part.Runs())
					}
					if wire {
						enc, err := part.AppendBinary(nil)
						if err != nil {
							t.Fatal(err)
						}
						part = &EnsembleAccum{}
						if err := part.UnmarshalBinary(enc); err != nil {
							t.Fatal(err)
						}
					}
					if err := acc.Merge(part); err != nil {
						t.Fatalf("case %d %s [%d,%d): %v", c, name, lo, hi, err)
					}
					lo = hi
				}
				if got := acc.Stats(); !sameEnsemble(got, want) {
					t.Fatalf("case %d (%+v, runs %d) partition %q wire=%v diverges from Ensemble:\n got: %+v\nwant: %+v",
						c, p, runs, name, wire, got, want)
				}
			}
		}
	}
}

// TestAccumChunkRule: the local fan-out never cuts more chunks than
// runs, keeps small ensembles in one chunk, and cuts a bounded number of
// chunks however large the ensemble — and, whatever the worker count,
// holds at most min(jobs, chunks) accumulators, which fold (with the
// run-indexed completions) to the one-worker result.
func TestAccumChunkRule(t *testing.T) {
	for _, runs := range []int{1, 20, 32, 33, 512, 2048, 2049, 20000, 1 << 20} {
		chunk := chunkRuns(runs)
		chunks := (runs + chunk - 1) / chunk
		if chunk < minChunkRuns || chunks > maxChunks {
			t.Errorf("runs %d: %d chunks of %d", runs, chunks, chunk)
		}
		if runs <= minChunkRuns && chunks != 1 {
			t.Errorf("runs %d: %d chunks, want 1", runs, chunks)
		}
	}

	m, err := NewModel(DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	defer par.SetDefaultJobs(0) //nolint:errcheck // 0 is always accepted
	r := stats.NewRNG(4, 9)
	for _, runs := range []int{1, 33, 512, 3000} {
		for _, lo := range []int{0, 7} {
			var want *EnsembleAccum
			for _, jobs := range []int{1, 2, 3, 8} {
				if err := par.SetDefaultJobs(jobs); err != nil {
					t.Fatal(err)
				}
				parts, _, err := m.sampleParts(context.Background(), r, lo, lo+runs)
				if err != nil {
					t.Fatal(err)
				}
				chunk := chunkRuns(runs)
				if limit := min(jobs, (runs+chunk-1)/chunk); len(parts) > limit {
					t.Errorf("runs %d jobs %d: %d accumulators, want <= %d", runs, jobs, len(parts), limit)
				}
				got, err := m.SampleRuns(context.Background(), r, lo, lo+runs)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("runs %d lo %d jobs %d: accumulator %+v, one worker's %+v", runs, lo, jobs, got, want)
				}
			}
		}
	}
}

// TestEnsembleAllocsIndependentOfRuns: an ensemble allocates the same
// number of times at every size — each worker one accumulator, one
// run-indexed completion slice, no per-run trajectory or substream —
// under one and two workers. Runs that never complete allocate no more
// than completing ones: a stranded model (PN = 0: after the free first
// piece no connection ever opens) stops each run within two steps, and
// a near-stranded one (pInit = 0, α = 1e-12) walks each to the step cap,
// which takes about 0.4 s (two 100 ms ensembles per worker count).
func TestEnsembleAllocsIndependentOfRuns(t *testing.T) {
	m, err := NewModel(DefaultParams(40))
	if err != nil {
		t.Fatal(err)
	}
	stranded, capped := DefaultParams(40), DefaultParams(40)
	stranded.PN = 0
	capped.PInit, capped.Alpha = 0, 1e-12
	var never []*Model
	for _, p := range []Params{stranded, capped} {
		ms, err := NewModel(p)
		if err != nil {
			t.Fatal(err)
		}
		never = append(never, ms)
	}
	allocs := func(m *Model, runs, times int) float64 {
		return testing.AllocsPerRun(times, func() {
			if _, err := m.Ensemble(stats.NewRNG(1, 2), runs); err != nil {
				t.Fatal(err)
			}
		})
	}
	defer par.SetDefaultJobs(0) //nolint:errcheck // 0 is always accepted
	for _, jobs := range []int{1, 2} {
		if err := par.SetDefaultJobs(jobs); err != nil {
			t.Fatal(err)
		}
		base := allocs(m, 64, 20)
		if base > 40 {
			t.Errorf("jobs %d: a 64-run ensemble allocates %v times, want <= 40", jobs, base)
		}
		t.Logf("jobs %d: %v allocations per ensemble", jobs, base)
		for _, runs := range []int{512, 4096} {
			if got := allocs(m, runs, 5); got != base {
				t.Errorf("jobs %d: %d runs allocate %v times, 64 runs %v", jobs, runs, got, base)
			}
		}
		for i, ms := range never {
			if got, want := allocs(ms, 2, 1), allocs(m, 2, 20); got > want {
				t.Errorf("jobs %d: 2 runs that never complete (%d) allocate %v times, 2 completing runs %v", jobs, i, got, want)
			}
		}
	}
}

// TestAccumMergeValidation: an accumulator sized for the wrong B is
// rejected, whichever curve gives it away, rather than silently
// mis-merged.
func TestAccumMergeValidation(t *testing.T) {
	m, err := NewModel(DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	good, err := m.SampleRuns(context.Background(), stats.NewRNG(1, 2), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]func(a *EnsembleAccum){
		"short potSum": func(a *EnsembleAccum) { a.PotSum = a.PotSum[:len(a.PotSum)-1] },
		"short potCnt": func(a *EnsembleAccum) { a.PotCnt = a.PotCnt[:len(a.PotCnt)-1] },
		"no fpSum":     func(a *EnsembleAccum) { a.FPSum = nil },
		"long fpCnt":   func(a *EnsembleAccum) { a.FPCnt = append(a.FPCnt, 0) },
	}
	for name, corrupt := range bad {
		part := *good
		corrupt(&part)
		acc := NewEnsembleAccum(m.p.B)
		if err := acc.Merge(&part); err == nil {
			t.Errorf("%s: merged without error", name)
		}
		if acc.Runs() != 0 {
			t.Errorf("%s: rejected merge still changed the accumulator", name)
		}
	}
	acc := NewEnsembleAccum(m.p.B)
	if err := acc.Merge(good); err != nil || acc.Runs() != 3 {
		t.Fatalf("valid merge: runs %d, err %v", acc.Runs(), err)
	}
}

// TestAccumDecodeOverwritesScratch: one scratch accumulator decodes a
// sequence of payloads to exactly what a fresh one would each time —
// nothing of the previous payload shows through a shorter or emptier
// next one — and a payload of the scratch's own B reuses its curves.
func TestAccumDecodeOverwritesScratch(t *testing.T) {
	m, err := NewModel(DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.SampleRuns(context.Background(), stats.NewRNG(1, 2), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(a *EnsembleAccum) []byte {
		t.Helper()
		enc, err := a.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	payload := encode(full)
	scratch := NewEnsembleAccum(m.p.B)
	curve := &scratch.PotSum[0]
	for name, next := range map[string][]byte{
		"same again":  payload,
		"empty B=10":  encode(NewEnsembleAccum(m.p.B)),
		"smaller B=2": encode(NewEnsembleAccum(2)),
		"no curves":   encode(&EnsembleAccum{}),
	} {
		if err := scratch.UnmarshalBinary(payload); err != nil {
			t.Fatal(err)
		}
		fresh := &EnsembleAccum{}
		if err := fresh.UnmarshalBinary(next); err != nil {
			t.Fatal(err)
		}
		if err := scratch.UnmarshalBinary(next); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(scratch), encode(fresh)) || scratch.Runs() != fresh.Runs() {
			t.Errorf("%s: scratch decoded to %+v, a fresh accumulator to %+v", name, scratch, fresh)
		}
	}
	if err := scratch.UnmarshalBinary(payload); err != nil || &scratch.PotSum[0] != curve {
		t.Fatalf("decoding a B=%d payload reallocated the scratch's curves (err %v)", m.p.B, err)
	}
}

// FuzzEnsembleAccumBinary: UnmarshalBinary never panics, never allocates
// for a count the input could not hold, and whatever it accepts survives
// AppendBinary → UnmarshalBinary unchanged; Merge into a B = 1
// accumulator then either folds it or refuses its curve length.
func FuzzEnsembleAccumBinary(f *testing.F) {
	// Two runs of a B = 1 model; testdata/fuzz holds the hostile shapes.
	enc, err := (&EnsembleAccum{
		PotSum: []int64{0, 1}, PotCnt: []int64{3, 2}, FPSum: []int64{0, 5}, FPCnt: []int64{2, 2},
		Phases: phaseAccumulator{Bootstrap: 2, Efficient: 3}, Completion: []int{2, 3},
	}).AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Fuzz(func(t *testing.T, data []byte) {
		a := &EnsembleAccum{}
		err := a.UnmarshalBinary(data)
		// Every entry costs at least a byte, so what was sized for — kept
		// or refused — is bounded by the input, whatever its counts said.
		if held := 4*len(a.PotSum) + len(a.Completion); held > len(data) {
			t.Fatalf("sized for %d entries on the strength of %d bytes (err %v)", held, len(data), err)
		}
		if err != nil {
			return
		}
		enc, err := a.AppendBinary(nil)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		b := &EnsembleAccum{}
		if err := b.UnmarshalBinary(enc); err != nil {
			t.Fatalf("decode of re-encoding: %v", err)
		}
		if again, _ := b.AppendBinary(nil); !bytes.Equal(again, enc) {
			t.Fatalf("round trip moved the encoding:\n %x\n %x", enc, again)
		}
		acc := NewEnsembleAccum(1)
		if err := acc.Merge(a); (err == nil) != (len(a.PotSum) == 2) {
			t.Fatalf("Merge of %d-entry curves into B = 1: err = %v", len(a.PotSum), err)
		}
	})
}
