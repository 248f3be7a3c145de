package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
)

// spanRecord is the JSONL line form: SpanData under the repository's
// {"type": ...} envelope convention, so span lines can interleave with
// metrics and download-trace records in one stream.
type spanRecord struct {
	Type string `json:"type"` // always "span"
	SpanData
}

// WriteJSONL writes spans as one type-tagged JSON line each.
func WriteJSONL(w io.Writer, spans []SpanData) error {
	enc := json.NewEncoder(w)
	for _, sd := range spans {
		if err := enc.Encode(spanRecord{Type: "span", SpanData: sd}); err != nil {
			return fmt.Errorf("trace: encode span: %w", err)
		}
	}
	return nil
}

// chromeEvent is one Chrome trace-event object. Complete spans use
// ph="X" (ts+dur); metadata events use ph="M" to name processes and
// threads.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  *int64            `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeFile is the JSON-object form of the Chrome trace-event format
// (the array form is also legal; the object form carries the time
// unit). Perfetto and chrome://tracing both load it.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTrace renders spans in Chrome trace-event JSON. Processes map
// to pids (with process_name metadata) and each trace ID gets its own
// tid (with thread_name metadata = the trace ID), so one request reads
// as one named row per process and its spans nest by time containment.
func ChromeTrace(spans []SpanData) ([]byte, error) {
	// Stable pid assignment: sorted process names.
	procs := map[string]int{}
	var procNames []string
	for _, sd := range spans {
		if _, ok := procs[sd.Proc]; !ok {
			procs[sd.Proc] = 0
			procNames = append(procNames, sd.Proc)
		}
	}
	sort.Strings(procNames)
	for i, p := range procNames {
		procs[p] = i + 1
	}
	// tid per trace ID, in first-appearance order.
	tids := map[string]int{}
	var events []chromeEvent
	for _, p := range procNames {
		pid := procs[p]
		name := p
		if name == "" {
			name = "unknown"
		}
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]string{"name": name},
		})
	}
	for _, sd := range spans {
		tid, ok := tids[sd.Trace]
		if !ok {
			tid = len(tids) + 1
			tids[sd.Trace] = tid
			for _, p := range procNames {
				events = append(events, chromeEvent{
					Name: "thread_name", Ph: "M", PID: procs[p], TID: tid,
					Args: map[string]string{"name": sd.Trace},
				})
			}
		}
		dur := sd.DurUS
		if dur < 0 {
			dur = 0
		}
		args := map[string]string{
			"trace": sd.Trace, "span": sd.ID,
		}
		if sd.Parent != "" {
			args["parent"] = sd.Parent
		}
		for _, a := range sd.Attrs {
			k := a.K
			// Attrs may repeat keys (one "requeue" per lease loss); JSON
			// object keys cannot, so later duplicates get an index suffix.
			for i := 2; ; i++ {
				if _, taken := args[k]; !taken {
					break
				}
				k = fmt.Sprintf("%s#%d", a.K, i)
			}
			args[k] = a.V
		}
		events = append(events, chromeEvent{
			Name: sd.Name, Ph: "X", TS: sd.StartUS, Dur: &dur,
			PID: procs[sd.Proc], TID: tid, Args: args,
		})
	}
	if events == nil {
		events = []chromeEvent{}
	}
	return json.MarshalIndent(chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"}, "", " ")
}

// ValidateChrome checks that b is well-formed Chrome trace-event JSON:
// a traceEvents array whose events all carry name/ph/pid, with X events
// additionally carrying numeric ts and non-negative dur. It is the
// checker behind scripts/tracecheck and the CI trace-smoke job.
func ValidateChrome(b []byte) error {
	if !json.Valid(b) {
		return fmt.Errorf("trace: not valid JSON")
	}
	var f struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return fmt.Errorf("trace: not a trace-event object: %w", err)
	}
	if f.TraceEvents == nil {
		return fmt.Errorf("trace: missing traceEvents array")
	}
	for i, ev := range f.TraceEvents {
		var name, ph string
		if raw, ok := ev["name"]; !ok || json.Unmarshal(raw, &name) != nil {
			return fmt.Errorf("trace: event %d: missing or non-string name", i)
		}
		if raw, ok := ev["ph"]; !ok || json.Unmarshal(raw, &ph) != nil {
			return fmt.Errorf("trace: event %d: missing or non-string ph", i)
		}
		var pid float64
		if raw, ok := ev["pid"]; !ok || json.Unmarshal(raw, &pid) != nil {
			return fmt.Errorf("trace: event %d: missing or non-numeric pid", i)
		}
		if ph != "X" {
			continue
		}
		var ts, dur float64
		if raw, ok := ev["ts"]; !ok || json.Unmarshal(raw, &ts) != nil {
			return fmt.Errorf("trace: event %d: X event missing numeric ts", i)
		}
		if raw, ok := ev["dur"]; !ok || json.Unmarshal(raw, &dur) != nil {
			return fmt.Errorf("trace: event %d: X event missing numeric dur", i)
		}
		if dur < 0 {
			return fmt.Errorf("trace: event %d: negative dur %g", i, dur)
		}
	}
	return nil
}

// Handler serves the tracer's buffered spans: Chrome trace-event JSON
// by default (open the download in Perfetto), JSONL with ?format=jsonl.
// ?trace=<id> filters to one trace. Mounted at /debug/trace on the obs
// debug mux by the CLIs.
func Handler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		spans := t.Spans()
		if want := r.URL.Query().Get("trace"); want != "" {
			kept := spans[:0]
			for _, sd := range spans {
				if sd.Trace == want {
					kept = append(kept, sd)
				}
			}
			spans = kept
		}
		switch f := r.URL.Query().Get("format"); f {
		case "", "chrome":
			b, err := ChromeTrace(spans)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
			_, _ = w.Write(b)
		case "jsonl":
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = WriteJSONL(w, spans)
		default:
			http.Error(w, fmt.Sprintf("unknown format %q (want chrome or jsonl)", f), http.StatusBadRequest)
		}
	})
}
