package experiments_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/dist"
	"repro/internal/experiments"
)

// TestFigShardMatchesLocalRender pushes a figure through a real
// coordinator/worker pair and asserts the payload is the exact bytes a
// local render produces — the btexp -dist determinism claim.
func TestFigShardMatchesLocalRender(t *testing.T) {
	figs, err := experiments.SelectFigures("4a", experiments.Quick, 8)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := figs[0].Render(&want); err != nil {
		t.Fatal(err)
	}

	coord := dist.New(dist.Config{})
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wk := dist.NewWorker(dist.WorkerConfig{Name: "fig", Slots: 1, Addr: addr})
	wk.Register(experiments.KindFigure, experiments.EvalFigShard)
	done := make(chan struct{})
	go func() { defer close(done); _ = wk.Run(ctx) }()
	defer func() { cancel(); coord.Close(); <-done }()

	spec, err := json.Marshal(experiments.FigSpec{Fig: "4a", Scale: "quick", Rows: 8})
	if err != nil {
		t.Fatal(err)
	}
	payloads, err := coord.Run(ctx, dist.Task{Kind: experiments.KindFigure, Spec: spec, N: 1})
	if err != nil {
		t.Fatalf("dist run: %v", err)
	}
	if got := payloads[0]; !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("distributed render diverges from local:\n--- dist:\n%s\n--- local:\n%s", got, want.Bytes())
	}
}

// TestEvalFigShardRejections: bad specs fail loudly.
func TestEvalFigShardRejections(t *testing.T) {
	good, _ := json.Marshal(experiments.FigSpec{Fig: "4a", Scale: "quick", Rows: 8})
	cases := []struct {
		name   string
		spec   []byte
		lo, hi int
	}{
		{"junk spec", []byte("junk"), 0, 1},
		{"multi-unit shard", good, 0, 2},
		{"unknown figure", mustSpec(t, "nope"), 0, 1},
		{"multi-figure selector", mustSpec(t, "all"), 0, 1},
		{"bad scale", []byte(`{"fig":"4a","scale":"warp","rows":8}`), 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := experiments.EvalFigShard(context.Background(), tc.spec, tc.lo, tc.hi); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}

func mustSpec(t *testing.T, fig string) []byte {
	t.Helper()
	b, err := json.Marshal(experiments.FigSpec{Fig: fig, Scale: "quick", Rows: 8})
	if err != nil {
		t.Fatal(err)
	}
	return b
}
