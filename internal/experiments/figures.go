package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Figure is one renderable entry of the figure registry: the id shown
// to the user, the selector that reproduces exactly this rendering
// (e.g. "4b" selects only the population half of the 4bc harness), and
// the renderer itself. Renderers are pure functions of (selector,
// scale, rows) — the property that makes a figure's output the same
// bytes at any -jobs value.
type Figure struct {
	// Name is the figure id, for error messages and progress logs.
	Name string
	// Sel is the canonical selector string: SelectFigures(Sel, ...)
	// returns exactly this figure with this rendering.
	Sel string
	// Render writes the figure's aligned text tables.
	Render func(w io.Writer) error
}

// figIDs is the user-facing selector vocabulary, in output order; 4b
// and 4c select one half of 4bc. 4bcxl (the 100×-population stability
// rerun) must be named explicitly: it is deliberately excluded from
// "all" because it runs minutes, not seconds.
var figIDs = []string{"1a", "1b", "2", "4a", "4b", "4c", "4bc", "4bcxl", "4d",
	"ablations", "validate", "flashcrowd", "fluidconv", "all"}

// SelectFigures resolves a comma-separated figure selection ("4a",
// "1a,2", "all") into the ordered renderer list. The returned order is
// the fixed figure order regardless of selector order, so output
// layout is stable. An empty or unknown id anywhere in the selection is
// an error.
func SelectFigures(sel string, scale Scale, rows int) ([]Figure, error) {
	wanted := map[string]bool{}
	for _, f := range strings.Split(sel, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(figIDs, f) {
			return nil, fmt.Errorf("unknown figure %q in %q (want a comma-separated list of %s)",
				f, sel, strings.Join(figIDs, ", "))
		}
		wanted[f] = true
	}
	all := wanted["all"]

	var figs []Figure
	add := func(on bool, name, selector string, render func(io.Writer) error) {
		if all || on {
			figs = append(figs, Figure{Name: name, Sel: selector, Render: render})
		}
	}

	add(wanted["1a"], "1a", "1a", func(w io.Writer) error {
		r, err := Fig1a(scale)
		if err != nil {
			return err
		}
		var phases []string
		for i, s := range r.SetSizes {
			ph := r.Phases[i]
			phases = append(phases, fmt.Sprintf("  PSS=%d: mean bootstrap %.1f steps, stuck-bootstrap %.1f%%, last-phase %.1f%% of runs",
				s, ph.MeanBootstrap, 100*ph.FracStuckBootstrap, 100*ph.FracLastPhase))
		}
		return writeTables(w, []*Table{r.Table(rows)}, phases...)
	})
	add(wanted["1b"], "1b", "1b", func(w io.Writer) error {
		r, err := Fig1b(scale)
		if err != nil {
			return err
		}
		return writeTables(w, []*Table{r.Table(rows)})
	})
	add(wanted["2"], "2", "2", func(w io.Writer) error {
		r, err := Fig2(scale)
		if err != nil {
			return err
		}
		tables, err := r.Tables(rows)
		if err != nil {
			return err
		}
		return writeTables(w, tables)
	})
	add(wanted["4a"], "4a", "4a", func(w io.Writer) error {
		r, err := Fig4a(scale)
		if err != nil {
			return err
		}
		return writeTables(w, []*Table{r.Table()})
	})
	// The 4bc harness renders differently depending on which halves were
	// selected; the canonical selector records that choice, so the
	// figure's trace ID names exactly this rendering.
	wantPop := all || wanted["4bc"] || wanted["4b"]
	wantEnt := all || wanted["4bc"] || wanted["4c"]
	sel4bc := "4bc"
	switch {
	case wantPop && !wantEnt:
		sel4bc = "4b"
	case wantEnt && !wantPop:
		sel4bc = "4c"
	}
	// Fig4bc and its XL rerun share one result type and one rendering;
	// the stability lines stand after the tables' blank lines, in a
	// paragraph of their own.
	render4bc := func(harness func(Scale) (*Fig4bcResult, error), pop, ent bool) func(io.Writer) error {
		return func(w io.Writer) error {
			r, err := harness(scale)
			if err != nil {
				return err
			}
			var tables []*Table
			if pop {
				tables = append(tables, r.PopulationTable(rows))
			}
			if ent {
				tables = append(tables, r.EntropyTable(rows))
			}
			lines := []string{""}
			for _, run := range r.Runs {
				lines = append(lines, fmt.Sprintf("  B=%d: entropy %.3f -> %.3f, trend %.2g, stable=%v",
					run.Pieces, run.Assessment.Initial, run.Assessment.Final,
					run.Assessment.Trend, run.Assessment.Stable))
			}
			return writeTables(w, tables, lines...)
		}
	}
	add(wanted["4bc"] || wanted["4b"] || wanted["4c"], "4bc", sel4bc, render4bc(Fig4bc, wantPop, wantEnt))
	// The XL stability rerun opts out of "all" (appended directly instead
	// of through add): at 100× population it is a minutes-long run
	// reserved for explicit requests and the EXPERIMENTS.md entry.
	if wanted["4bcxl"] {
		figs = append(figs, Figure{Name: "4bcxl", Sel: "4bcxl", Render: render4bc(Fig4bcXL, true, true)})
	}
	add(wanted["4d"], "4d", "4d", func(w io.Writer) error {
		r, err := Fig4d(scale)
		if err != nil {
			return err
		}
		normal, shake := r.TailMeans()
		return writeTables(w, []*Table{r.Table()},
			fmt.Sprintf("  tail-block mean TTD: normal %.2f vs shake %.2f (x%.1f faster)", normal, shake, normal/shake))
	})
	add(wanted["ablations"], "ablations", "ablations", func(w io.Writer) error {
		ps, err := AblationPieceSelection(scale)
		if err != nil {
			return err
		}
		st, err := AblationShakeThreshold(scale)
		if err != nil {
			return err
		}
		tr, err := AblationTrackerRefresh(scale)
		if err != nil {
			return err
		}
		ss, err := AblationSuperSeed(scale)
		if err != nil {
			return err
		}
		return writeTables(w, []*Table{ps.Table(), st.Table(), tr.Table(), ss.Table()})
	})
	add(wanted["validate"], "validate", "validate", func(w io.Writer) error {
		r, err := ValidateDistributions(scale)
		if err != nil {
			return err
		}
		return writeTables(w, []*Table{r.Table()})
	})
	add(wanted["flashcrowd"], "flashcrowd", "flashcrowd", func(w io.Writer) error {
		r, err := FlashCrowd(scale)
		if err != nil {
			return err
		}
		return writeTables(w, []*Table{r.BurstTable(), r.SteadyTable()})
	})
	add(wanted["fluidconv"], "fluidconv", "fluidconv", func(w io.Writer) error {
		r, err := FluidConvergence(scale)
		if err != nil {
			return err
		}
		return writeTables(w, []*Table{r.Table()},
			fmt.Sprintf("  scaled sim-vs-fluid RMSE shrinking in N, monotone: %v", r.Monotone))
	})

	return figs, nil
}

// writeTables is the one way a figure is written: each table followed by
// a blank line, with the footer lines, if any, between the last table and
// its blank line (an empty footer line is a blank line of its own).
func writeTables(w io.Writer, tables []*Table, footer ...string) error {
	for i, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
		if i == len(tables)-1 {
			for _, line := range footer {
				if _, err := fmt.Fprintln(w, line); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// ParseScale resolves the CLI scale flag vocabulary.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want quick or full)", s)
	}
}
