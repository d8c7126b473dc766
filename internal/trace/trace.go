// Package trace is a zero-dependency hierarchical tracing layer for
// the RegionWiz pipeline: spans with start/end times, parent links,
// and typed attributes, carried through context.Context, plus instant
// events for point-in-time facts (a BDD table grow, a fixpoint
// cutoff). Finished spans accumulate in a Tracer and export as Chrome
// trace_event JSON, loadable in chrome://tracing or Perfetto
// (export.go).
//
// Tracing off is the fast path: when no Tracer is installed in the
// context, StartSpan returns the context unchanged and a nil *Span,
// and every Span method is a nil-safe no-op. Hot loops should fetch
// the span once and guard attribute computation with a nil check:
//
//	sp := trace.SpanFromContext(ctx)
//	for ... {
//		if sp != nil { // counting tuples is only worth it when traced
//			sp.Event("round", trace.Int("delta", count()))
//		}
//	}
//
// A Tracer is safe for concurrent use: corpus drivers run many
// analyses at once and their spans interleave into one trace, each
// root span on its own lane (Chrome "thread").
package trace

import (
	"context"
	"sync"
	"time"
)

// AttrKind discriminates Attr payloads.
type AttrKind uint8

// Attribute kinds.
const (
	KindInt AttrKind = iota
	KindStr
	KindBool
)

// Attr is one typed span or event attribute. Construct with Int,
// Int64, Uint64, Str, or Bool.
type Attr struct {
	Key  string
	Kind AttrKind
	num  int64
	str  string
}

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Kind: KindInt, num: int64(v)} }

// Int64 builds an integer attribute.
func Int64(key string, v int64) Attr { return Attr{Key: key, Kind: KindInt, num: v} }

// Uint64 builds an integer attribute (values above MaxInt64 saturate).
func Uint64(key string, v uint64) Attr {
	n := int64(v)
	if n < 0 {
		n = 1<<63 - 1
	}
	return Attr{Key: key, Kind: KindInt, num: n}
}

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Kind: KindStr, str: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	var n int64
	if v {
		n = 1
	}
	return Attr{Key: key, Kind: KindBool, num: n}
}

// value returns the attribute payload as a JSON-encodable value.
func (a Attr) value() any {
	switch a.Kind {
	case KindStr:
		return a.str
	case KindBool:
		return a.num != 0
	default:
		return a.num
	}
}

// record is one finished span or instant event.
type record struct {
	id, parent uint64
	lane       uint64
	name       string
	start      time.Duration // offset from the tracer epoch
	dur        time.Duration
	attrs      []Attr
	instant    bool
}

// Tracer collects spans and events for one traced run.
type Tracer struct {
	epoch time.Time
	// now returns the offset from epoch; tests override it for
	// deterministic output.
	now func() time.Duration

	mu       sync.Mutex
	records  []record
	nextID   uint64
	nextLane uint64
}

// New returns an empty Tracer whose clock starts now.
func New() *Tracer { return NewAt(time.Now()) }

// NewAt returns an empty Tracer whose clock started at epoch — for
// work that began before the decision to trace it was made, such as
// reading the request that asks for a trace.
func NewAt(epoch time.Time) *Tracer {
	t := &Tracer{epoch: epoch}
	t.now = func() time.Duration { return time.Since(t.epoch) }
	return t
}

// Span is one live span. The zero of usefulness is nil: every method
// on a nil Span is a no-op, which is how the tracing-off path stays
// free.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	lane   uint64
	name   string
	start  time.Duration
	attrs  []Attr
}

// newSpan allocates a live span under the tracer lock, starting now.
func (t *Tracer) newSpan(name string, parent *Span) *Span {
	return t.newSpanAt(name, parent, t.now())
}

func (t *Tracer) newSpanAt(name string, parent *Span, start time.Duration) *Span {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	var parentID, lane uint64
	if parent != nil {
		parentID = parent.id
		lane = parent.lane
	} else {
		t.nextLane++
		lane = t.nextLane
	}
	t.mu.Unlock()
	return &Span{t: t, id: id, parent: parentID, lane: lane, name: name, start: start}
}

// Root starts a parentless span on a fresh lane — the entry point for
// code holding a Tracer but no context (HTTP middleware, drivers).
func (t *Tracer) Root(name string) *Span { return t.newSpan(name, nil) }

// Child starts a sub-span without threading a new context — the cheap
// form for loops that already hold the parent. Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.newSpan(name, s)
}

// Attrs appends attributes to the span (exported when it ends).
// Nil-safe.
func (s *Span) Attrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End finishes the span, recording its duration and any final
// attributes. Nil-safe; calling End twice records the span twice, so
// don't.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	end := s.t.now()
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	s.t.mu.Lock()
	s.t.records = append(s.t.records, record{
		id: s.id, parent: s.parent, lane: s.lane, name: s.name,
		start: s.start, dur: end - s.start, attrs: s.attrs,
	})
	s.t.mu.Unlock()
}

// Event records an instant event on the span's lane (a point-in-time
// fact: a table grow, a cache clear, a fixpoint cutoff). Nil-safe.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	// Copy rather than alias the variadic slice: storing it would make
	// the parameter escape, heap-allocating the args at every call
	// site even when s is nil (tracing off).
	var kept []Attr
	if len(attrs) > 0 {
		kept = append(kept, attrs...)
	}
	s.t.mu.Lock()
	s.t.records = append(s.t.records, record{
		id: 0, parent: s.id, lane: s.lane, name: name,
		start: s.t.now(), attrs: kept, instant: true,
	})
	s.t.mu.Unlock()
}

// --- context plumbing ---

type tracerKey struct{}
type spanKey struct{}

// WithTracer installs a Tracer in the context; spans started under it
// record there.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// FromContext returns the installed Tracer, or nil.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// SpanFromContext returns the current span, or nil — including when a
// Tracer is installed but no span has been started yet.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan starts a span as a child of the context's current span
// (a root span on a fresh lane when there is none) and returns a
// derived context carrying it. Without a Tracer it returns ctx
// unchanged and a nil span, costing nothing.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	sp := t.newSpan(name, SpanFromContext(ctx))
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartSpanAt is StartSpan for a span that began at start, which lies
// between the tracer's epoch and now.
func StartSpanAt(ctx context.Context, name string, start time.Time) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	sp := t.newSpanAt(name, SpanFromContext(ctx), start.Sub(t.epoch))
	return context.WithValue(ctx, spanKey{}, sp), sp
}
