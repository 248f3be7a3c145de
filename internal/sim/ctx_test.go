package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// TestRunContextNilMatchesRun asserts RunContext(nil) is bit-identical to
// Run on a fixed seed.
func TestRunContextNilMatchesRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Horizon = 60
	a, err := mustRun(t, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mustRun(t, cfg).RunContext(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Exchanges() != b.Exchanges() || a.Rounds() != b.Rounds() ||
		a.NumCompletions() != b.NumCompletions() {
		t.Fatalf("RunContext(nil) diverged: %d/%d/%d vs %d/%d/%d",
			a.Exchanges(), a.Rounds(), a.NumCompletions(),
			b.Exchanges(), b.Rounds(), b.NumCompletions())
	}
}

// TestRunContextCancelledStopsEarly asserts a context cancelled mid-run
// stops the round loop before the next round and surfaces the
// cancellation, that a call with the cancelled context fires no further
// round, and that a later Run fires that round and finishes the
// trajectory of an uninterrupted run.
func TestRunContextCancelledStopsEarly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Horizon = 500
	straight, err := mustRun(t, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Observer = observerFunc(func(RoundStats) {
		rounds++
		if rounds == 5 {
			cancel()
		}
	})
	s := mustRun(t, cfg)
	stopped := t.Run("stops_before_next_round", func(t *testing.T) {
		res, err := s.RunContext(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res != nil {
			t.Fatal("cancelled run must not return a result")
		}
		if rounds != 5 {
			t.Fatalf("round loop ran %d rounds, want 5: it kept going after cancel", rounds)
		}
		res, err = s.RunContext(ctx)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("second cancelled call: res=%v err=%v, want nil and context.Canceled", res, err)
		}
		if rounds != 5 {
			t.Fatalf("second cancelled call fired %d more rounds, want 0", rounds-5)
		}
	})
	if !stopped {
		return
	}
	t.Run("resume_matches_uninterrupted", func(t *testing.T) {
		resumed, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(oracleJSON(t, resumed), oracleJSON(t, straight)) {
			t.Fatal("Run after a cancelled RunContext diverged from an uninterrupted Run")
		}
	})
}

// observerFunc adapts a function to the Observer interface.
type observerFunc func(RoundStats)

func (f observerFunc) ObserveRound(rs RoundStats) { f(rs) }

func mustRun(t *testing.T, cfg Config) *Swarm {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
