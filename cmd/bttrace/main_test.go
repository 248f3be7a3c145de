package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestRunGenerateAndAnalyze writes each regime's -gen trajectory to a
// file and analyzes it: every preset is classified as its own regime,
// and the chain's trace completes.
func TestRunGenerateAndAnalyze(t *testing.T) {
	for _, regime := range []string{"smooth", "last-phase", "bootstrap"} {
		var gen strings.Builder
		if err := run(&gen, regime, false, "", nil); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), regime+".jsonl")
		if err := os.WriteFile(path, []byte(gen.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := run(&sb, "", false, "", []string{path}); err != nil {
			t.Fatal(err)
		}
		if out := sb.String(); !strings.Contains(out, "regime="+regime) || !strings.Contains(out, "completed=true") {
			t.Errorf("-gen %s analyzed as %q", regime, out)
		}
	}
}

// TestRunFit estimates from a -gen trace read twice: one pair is one
// chain step, and the α wait the bootstrap preset is made of informs α.
func TestRunFit(t *testing.T) {
	var gen strings.Builder
	if err := run(&gen, "bootstrap", false, "", nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "b.jsonl")
	if err := os.WriteFile(path, []byte(gen.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(&sb, "", true, "", []string{path, path}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"estimate over 2 traces", "off-step pairs 0.0%", "p_(x)    "} {
		if !strings.Contains(out, want) {
			t.Errorf("fit output lacks %q: %q", want, out)
		}
	}
	if regexp.MustCompile(`alpha +no information`).MatchString(out) {
		t.Errorf("the bootstrap preset's wait must inform alpha: %q", out)
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "", false, "", nil); err == nil {
		t.Error("no files and no -gen must error")
	}
	if err := run(&sb, "marmalade", false, "", nil); err == nil {
		t.Error("unknown regime must error")
	}
	if err := run(&sb, "", false, "", []string{"/no/such/file.jsonl"}); err == nil {
		t.Error("missing file must error")
	}
}

func TestParseRegimeAliases(t *testing.T) {
	if r, err := parseRegime("last"); err != nil || r.String() != "last-phase" {
		t.Errorf("alias last: %v %v", r, err)
	}
	if r, err := parseRegime("smooth"); err != nil || r.String() != "smooth" {
		t.Errorf("smooth: %v %v", r, err)
	}
}

func TestRunEventMix(t *testing.T) {
	dir := t.TempDir()

	// A hand-built trace with known phase boundaries: bootstrap until
	// t=10, efficient until t=20, then a last-phase stall to completion.
	d := &trace.Download{
		Meta: trace.Meta{Client: "mix", Pieces: 10, PieceSize: 16384, NeighborCap: 4},
		Samples: []trace.Sample{
			{T: 0, Bytes: 0, Pieces: 0, Potential: 0, Conns: 1},
			{T: 10, Bytes: 1 * 16384, Pieces: 1, Potential: 2, Conns: 2},
			{T: 20, Bytes: 5 * 16384, Pieces: 5, Potential: 0, Conns: 2},
			{T: 30, Bytes: 10 * 16384, Pieces: 10, Potential: 0, Conns: 2},
		},
	}
	tracePath := filepath.Join(dir, "mix.jsonl")
	tf, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(tf, d); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}

	// Metrics snapshots whose intervals land in each phase: the delta up
	// to t=5 and t=15 start in bootstrap and bootstrap respectively
	// (left endpoints 0 and 5), t=25 starts in efficient (left endpoint
	// 15), t=35 starts in the last phase (left endpoint 25).
	metricsPath := filepath.Join(dir, "metrics.jsonl")
	mf, err := os.Create(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		t float64
		v int64
	}{{5, 10}, {15, 30}, {25, 60}, {35, 100}} {
		err := obs.WriteSnapshot(mf, p.t, obs.Snapshot{
			Counters: map[string]int64{"client.mix.msgs_in": p.v},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := run(&sb, "", false, metricsPath, []string{tracePath}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "event mix by phase") {
		t.Fatalf("missing event-mix header in %q", out)
	}
	re := regexp.MustCompile(`client\.mix\.msgs_in\s+30\s+30\s+40`)
	if !re.MatchString(out) {
		t.Errorf("per-phase deltas wrong in %q", out)
	}
}

func TestRunEventMixErrors(t *testing.T) {
	var gen strings.Builder
	if err := run(&gen, "smooth", false, "", nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.jsonl")
	if err := os.WriteFile(path, []byte(gen.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(&sb, "", false, "/no/such/metrics.jsonl", []string{path}); err == nil {
		t.Error("missing metrics file must error")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&sb, "", false, empty, []string{path}); err == nil {
		t.Error("empty metrics file must error")
	}
}

// phaseAtRef is the per-snapshot classifier eventMix used before its
// forward merge: it rescans the whole trace for every time asked. It
// stays as the reference the merge must match.
func phaseAtRef(d *trace.Download, t float64) string {
	bootEnd := -1
	for i, s := range d.Samples {
		if s.Pieces >= 1 && s.Potential >= 1 {
			bootEnd = i
			break
		}
	}
	at := -1
	for i, s := range d.Samples {
		if s.T > t {
			break
		}
		at = i
	}
	if bootEnd < 0 || at < bootEnd {
		return "bootstrap"
	}
	s := d.Samples[at]
	if s.Potential == 0 && s.Pieces > 1 && s.Pieces < d.Meta.Pieces {
		return "last"
	}
	return "efficient"
}

// TestEventMixMatchesPhaseAtRef runs eventMix on random traces and random
// snapshot times — before the first sample, after the last, exactly on
// sample times, and, in some cases, out of order — with one counter per
// snapshot, so each output row names the phase one interval was given,
// and compares every row with phaseAtRef at the interval's left endpoint.
func TestEventMixMatchesPhaseAtRef(t *testing.T) {
	r := rand.New(rand.NewPCG(30, 2))
	dir := t.TempDir()
	row := regexp.MustCompile(`(?m)^  (c\d+)\s+(\d+)\s+(\d+)\s+(\d+)$`)
	columns := map[string]string{"bootstrap": "1 0 0", "efficient": "0 1 0", "last": "0 0 1"}
	for c := 0; c < 300; c++ {
		b := 1 + r.IntN(8)
		d := &trace.Download{Meta: trace.Meta{Client: "ref", Pieces: b, PieceSize: 1}}
		tm, pieces := float64(r.IntN(3)), 0
		for n := 2 + r.IntN(20); len(d.Samples) < n; {
			if r.IntN(4) > 0 { // else a zero-length interval
				tm += float64(1 + r.IntN(3))
			}
			pieces = min(b, pieces+r.IntN(3))
			d.Samples = append(d.Samples, trace.Sample{
				T: tm, Bytes: int64(pieces), Pieces: pieces, Potential: r.IntN(3) * r.IntN(2),
			})
		}
		var times []float64
		for n := 1 + r.IntN(25); len(times) < n; {
			switch r.IntN(3) {
			case 0: // exactly on a sample time
				times = append(times, d.Samples[r.IntN(len(d.Samples))].T)
			default: // anywhere from before the first sample to after the last
				times = append(times, r.Float64()*(tm+4)-2)
			}
		}
		if r.IntN(4) > 0 {
			slices.Sort(times)
		}

		tracePath := filepath.Join(dir, fmt.Sprintf("t%d.jsonl", c))
		var tb strings.Builder
		if err := trace.Write(&tb, d); err != nil {
			t.Fatal(err)
		}
		metricsPath := filepath.Join(dir, fmt.Sprintf("m%d.jsonl", c))
		var mb strings.Builder
		for k, at := range times {
			snap := obs.Snapshot{Counters: map[string]int64{fmt.Sprintf("c%03d", k): 1}}
			if err := obs.WriteSnapshot(&mb, at, snap); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(tracePath, []byte(tb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsPath, []byte(mb.String()), 0o644); err != nil {
			t.Fatal(err)
		}

		var out strings.Builder
		if err := run(&out, "", false, metricsPath, []string{tracePath}); err != nil {
			t.Fatal(err)
		}
		got := row.FindAllStringSubmatch(out.String(), -1)
		if len(got) != len(times) {
			t.Fatalf("case %d: %d rows for %d snapshots in %q", c, len(got), len(times), out.String())
		}
		for _, m := range got {
			k, _ := strconv.Atoi(m[1][1:])
			left := 0.0
			if k > 0 {
				left = times[k-1]
			}
			if want := phaseAtRef(d, left); strings.Join(m[2:], " ") != columns[want] {
				t.Fatalf("case %d snapshot %d (interval from t=%g): row %q, want phase %s\ntrace %+v\ntimes %v",
					c, k, left, m[0], want, d.Samples, times)
			}
		}
	}
}
