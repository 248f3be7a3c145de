// Command tracecheck validates /debug/trace exports: each file must be
// well-formed Chrome trace-event JSON (per trace.ValidateChrome — the
// same checker the unit and fuzz tests enforce), and the merged event
// set optionally must contain a minimum number of complete spans, named
// spans, and named processes. CI's live-stack job runs it across a
// btgate export AND the replica exports to prove one trace ID covers
// both tiers, down to the owning replica's evaluation span.
//
// Usage:
//
//	tracecheck [-min-spans N] [-require-names a,b] [-require-procs p,q] trace.json...
//	curl -s localhost:6060/debug/trace | tracecheck -min-spans 5 -
//	tracecheck -trace 0123abcd-0000 -require-procs btgate,btserve gate.json replica.json
//
// With more than one file the events are merged before the checks —
// each process exports only its own ring buffer, so a cross-process
// trace only appears whole in the union. -trace restricts the span
// checks to a single trace ID.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs/trace"
)

func main() {
	minSpans := flag.Int("min-spans", 1, "minimum number of complete (ph=X) span events across all files")
	requireNames := flag.String("require-names", "", "comma-separated span names that must all appear")
	requireProcs := flag.String("require-procs", "", "comma-separated process names that must all appear")
	oneTrace := flag.Bool("one-trace", false, "require every counted span to carry the same trace ID")
	traceID := flag.String("trace", "", "count only spans belonging to this trace ID (processes still counted from all files)")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [flags] <trace.json | -> ...")
		os.Exit(2)
	}
	if err := check(flag.Args(), *minSpans, splitList(*requireNames), splitList(*requireProcs), *oneTrace, *traceID); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
	fmt.Println("tracecheck ok")
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

type event struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Args map[string]string `json:"args"`
}

// load validates one export and returns its events, tagging each span
// with the file's process names so cross-file proc attribution works.
func load(path string) ([]event, error) {
	var b []byte
	var err error
	if path == "-" {
		b, err = io.ReadAll(os.Stdin)
	} else {
		b, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	if err := trace.ValidateChrome(b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var f struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.TraceEvents, nil
}

func check(paths []string, minSpans int, names, procs []string, oneTrace bool, traceID string) error {
	spanNames := map[string]int{}
	procNames := map[string]bool{}
	spanProcs := map[string]bool{} // processes that contributed a counted span
	traces := map[string]bool{}
	spans := 0
	for _, path := range paths {
		events, err := load(path)
		if err != nil {
			return err
		}
		// First pass: this file's pid → process name map (metadata events
		// may follow the spans they describe).
		pidName := map[int]string{}
		for _, ev := range events {
			if ev.Ph == "M" && ev.Name == "process_name" {
				pidName[ev.Pid] = ev.Args["name"]
				procNames[ev.Args["name"]] = true
			}
		}
		for _, ev := range events {
			if ev.Ph != "X" {
				continue
			}
			if traceID != "" && ev.Args["trace"] != traceID {
				continue
			}
			spans++
			spanNames[ev.Name]++
			traces[ev.Args["trace"]] = true
			if name := pidName[ev.Pid]; name != "" {
				spanProcs[name] = true
			}
		}
	}
	if spans < minSpans {
		return fmt.Errorf("%d complete spans, want >= %d", spans, minSpans)
	}
	for _, n := range names {
		if spanNames[n] == 0 {
			return fmt.Errorf("no span named %q (have %v)", n, keys(spanNames))
		}
	}
	for _, p := range procs {
		// Under -trace, requiring a process means requiring it to have
		// contributed a span to THAT trace — the cross-tier stitching
		// proof. Otherwise its mere presence in an export suffices.
		if traceID != "" {
			if !spanProcs[p] {
				return fmt.Errorf("process %q contributed no span to trace %s (have %v)", p, traceID, keys(spanProcs))
			}
		} else if !procNames[p] {
			return fmt.Errorf("no process named %q (have %v)", p, keys(procNames))
		}
	}
	if oneTrace && len(traces) != 1 {
		return fmt.Errorf("spans span %d trace IDs, want exactly 1", len(traces))
	}
	return nil
}

func keys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
