package trace

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// SchemaV1 identifies the trace export encoding. Consumers should
// check it before decoding; additive changes keep the v1 name,
// incompatible ones bump it.
const SchemaV1 = "regionwiz/trace/v1"

// chromeDoc is the Chrome trace_event "JSON object format": the event
// array plus metadata keys. chrome://tracing and Perfetto both load
// it; the schema key versions the regionwiz-specific attribute
// conventions.
type chromeDoc struct {
	Schema      string        `json:"schema"`
	TraceEvents []chromeEvent `json:"traceEvents"`
}

type chromeEvent struct {
	Name string `json:"name"`
	// Ph is the event phase: "X" complete (span), "i" instant, "M"
	// metadata.
	Ph string `json:"ph"`
	// Ts and Dur are microseconds from the trace epoch (trace_event's
	// unit; fractional values carry the nanoseconds).
	Ts  float64 `json:"ts"`
	Dur float64 `json:"dur,omitempty"`
	Pid int     `json:"pid"`
	Tid uint64  `json:"tid"`
	// S scopes instant events ("t" = thread).
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// snapshot copies the finished records, ordered by start time then
// insertion, so exports are stable for a quiesced tracer.
func (t *Tracer) snapshot() []record {
	t.mu.Lock()
	recs := make([]record, len(t.records))
	copy(recs, t.records)
	t.mu.Unlock()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].start < recs[j].start })
	return recs
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func argsOf(rec record) map[string]any {
	if len(rec.attrs) == 0 && rec.parent == 0 {
		return nil
	}
	args := make(map[string]any, len(rec.attrs)+1)
	for _, a := range rec.attrs {
		args[a.Key] = a.value()
	}
	if rec.parent != 0 {
		args["parent_span"] = rec.parent
	}
	return args
}

// WriteChromeTrace renders the collected spans and events as a Chrome
// trace_event JSON document. Call it after the traced work has
// finished; live (un-ended) spans are not included.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	doc := chromeDoc{
		Schema: SchemaV1,
		TraceEvents: []chromeEvent{{
			Name: "process_name", Ph: "M", Pid: 1,
			Args: map[string]any{"name": "regionwiz"},
		}},
	}
	for _, rec := range t.snapshot() {
		ev := chromeEvent{
			Name: rec.name,
			Ts:   micros(rec.start),
			Pid:  1,
			Tid:  rec.lane,
			Args: argsOf(rec),
		}
		if rec.instant {
			ev.Ph, ev.S = "i", "t"
		} else {
			ev.Ph, ev.Dur = "X", micros(rec.dur)
			if ev.Args == nil {
				ev.Args = map[string]any{}
			}
			ev.Args["span_id"] = rec.id
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// SpanTotal aggregates the spans sharing one name.
type SpanTotal struct {
	Count uint64
	Wall  time.Duration
}

// Summary aggregates finished spans by name — a compact per-rule /
// per-phase rollup. Instant events are counted with zero wall time.
func (t *Tracer) Summary() map[string]SpanTotal {
	out := make(map[string]SpanTotal)
	t.mu.Lock()
	for _, rec := range t.records {
		s := out[rec.name]
		s.Count++
		if !rec.instant {
			s.Wall += rec.dur
		}
		out[rec.name] = s
	}
	t.mu.Unlock()
	return out
}

// Len reports how many spans and events have been recorded.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.records)
}
