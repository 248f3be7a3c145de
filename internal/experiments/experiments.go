// Package experiments regenerates every figure of the paper's evaluation:
// one harness per figure, each wiring together the analytical model
// (internal/core), the swarm simulator (internal/sim), and the trace
// analyzer (internal/trace), and rendering the same series the paper
// plots. DESIGN.md carries the experiment index; EXPERIMENTS.md records
// paper-versus-measured shapes.
package experiments

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
)

// logger receives progress events from the harnesses. Experiments are
// long-running (minutes at Full scale), so callers wire their -v logger
// here to see per-figure progress; the default discards everything.
var logger = obs.Nop()

// SetLogger routes harness progress logs to l (nil restores the no-op).
func SetLogger(l *slog.Logger) { logger = obs.Component(obs.OrNop(l), "experiments") }

// metrics holds the optional registry receiving per-experiment wall-time
// histograms (experiments.<name>.seconds). Harnesses may run concurrently
// under cmd/btexp, hence the atomic pointer.
var metrics atomic.Pointer[obs.Registry]

// SetMetrics routes harness wall-time histograms to reg (nil disables).
func SetMetrics(reg *obs.Registry) { metrics.Store(reg) }

// observeWalltime records one harness run's wall time. Use as
// defer observeWalltime("fig1a", time.Now()) at the top of a harness.
func observeWalltime(name string, start time.Time) {
	if reg := metrics.Load(); reg != nil {
		reg.Histogram("experiments." + name + ".seconds").Observe(time.Since(start).Seconds())
	}
}

// sweep is the one way a harness runs swarms (DESIGN.md §8): one job on
// par's pool per config, each run reduced inside its own job, so a
// *sim.Result is dropped as soon as it is reduced — Fig4bcXL and
// full-scale FluidConvergence run 100k+ peers. The reductions come back
// in config order whatever the worker count, and every config carries
// its own seeds, so a sweep is bit-identical at any -jobs. Errors name
// the harness and the point.
func sweep[T any](name string, cfgs []sim.Config, reduce func(i int, res *sim.Result) (T, error)) ([]T, error) {
	return par.Map(context.Background(), len(cfgs), 0, func(i int) (T, error) {
		var out T
		sw, err := sim.New(cfgs[i])
		if err == nil {
			var res *sim.Result
			if res, err = sw.Run(); err == nil {
				out, err = reduce(i, res)
			}
		}
		if err != nil {
			return out, fmt.Errorf("%s point %d: %w", name, i, err)
		}
		return out, nil
	})
}

// configs maps a harness's swept points to their swarm configs, in order.
func configs[P any](points []P, config func(P) sim.Config) []sim.Config {
	out := make([]sim.Config, len(points))
	for i, p := range points {
		out[i] = config(p)
	}
	return out
}

// Scale shrinks or grows an experiment's workload. Quick is used by unit
// tests and smoke benches; Full reproduces the paper-scale runs.
type Scale int

// Available scales.
const (
	Quick Scale = iota + 1
	Full
)

// String returns the scale name.
func (s Scale) String() string {
	if s == Quick {
		return "quick"
	}
	return "full"
}

// Table is a rendered experiment result: named columns over float rows,
// NaN meaning "no observation".
type Table struct {
	Title   string
	Columns []string
	Rows    [][]float64
}

// AddRow appends one row; its length must match Columns.
func (t *Table) AddRow(vals ...float64) {
	t.Rows = append(t.Rows, vals)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for i, col := range t.Columns {
		widths[i] = len(col)
	}
	for ri, row := range t.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := formatCell(v)
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	head := make([]string, len(t.Columns))
	for i, col := range t.Columns {
		head[i] = pad(col, widths[i])
	}
	if _, err := fmt.Fprintln(w, strings.Join(head, "  ")); err != nil {
		return err
	}
	for _, row := range cells {
		padded := make([]string, len(row))
		for i, s := range row {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			padded[i] = pad(s, w)
		}
		if _, err := fmt.Fprintln(w, strings.Join(padded, "  ")); err != nil {
			return err
		}
	}
	return nil
}

func formatCell(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return strings.Repeat(" ", w-len(s)) + s
}

// downsampleIdx returns at most n indices covering [0, length), always
// including the first and last.
func downsampleIdx(length, n int) []int {
	if length <= 0 {
		return nil
	}
	if n < 2 || length <= n {
		out := make([]int, length)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, n)
	step := float64(length-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out[i] = int(math.Round(float64(i) * step))
	}
	return out
}
