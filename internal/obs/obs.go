// Package obs is the engine's lightweight, dependency-free observability
// layer: context-propagated spans (wall time + heap allocations), typed
// counters and gauges, progress events, and pluggable sinks (no-op, text,
// JSON-lines, aggregating collector).
//
// Design constraints, in order:
//
//  1. Disabled is free. With no sink installed — the default — Start
//     returns a nil *Span whose methods are nil-receiver no-ops; the whole
//     path performs no allocation and costs one atomic load plus a context
//     lookup. internal/ctmc pins this with testing.AllocsPerRun.
//  2. No dependencies. Everything is stdlib; sinks serialise with
//     encoding/json only when events actually flow.
//  3. Trees without plumbing everywhere. Spans propagate through
//     context.Context (Start returns a derived context); code paths that
//     have no context fall back to the process-wide default tracer set by
//     SetDefault, so legacy entry points still emit (root) spans.
//
// A span is owned by the goroutine that started it: attribute setters and
// End must not be called concurrently. Sinks, in contrast, must tolerate
// concurrent Emit calls (parallel sweeps emit from worker goroutines).
package obs

import (
	"context"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// AttrKind discriminates the typed attribute payload.
type AttrKind uint8

// Attribute kinds.
const (
	KindInt AttrKind = iota
	KindFloat
	KindString
)

// Attr is one typed key/value attached to a span or metric event.
type Attr struct {
	Key  string
	Kind AttrKind
	Int  int64
	Flt  float64
	Str  string
}

// Value returns the payload as an any (for serialisation).
func (a Attr) Value() any {
	switch a.Kind {
	case KindInt:
		return a.Int
	case KindFloat:
		return a.Flt
	default:
		return a.Str
	}
}

// Float returns the numeric payload as a float64 (NaN-free; strings map
// to 0). Used by the aggregating collector.
func (a Attr) Float() (float64, bool) {
	switch a.Kind {
	case KindInt:
		return float64(a.Int), true
	case KindFloat:
		return a.Flt, true
	default:
		return 0, false
	}
}

// EventKind classifies sink events.
type EventKind uint8

// Event kinds.
const (
	// EventSpan is emitted once per span, at End.
	EventSpan EventKind = iota
	// EventCounter is a monotonic increment.
	EventCounter
	// EventGauge is a point-in-time level.
	EventGauge
	// EventProgress reports done/total for a long-running stage.
	EventProgress
	// EventLog is a free-form annotation.
	EventLog
	// EventHistogram is one observation of a latency-style distribution;
	// collectors aggregate it into log-bucketed histograms. Span events feed
	// the same histograms implicitly (duration), so EventHistogram exists for
	// stages that are not spans — queue waits, cache lookups.
	EventHistogram
	// EventAttempt is one try of a fault-tolerant stage (a solver in the
	// fallback chain, a job execution); the event carries it in Attempt.
	EventAttempt
)

func (k EventKind) String() string {
	switch k {
	case EventSpan:
		return "span"
	case EventCounter:
		return "counter"
	case EventGauge:
		return "gauge"
	case EventProgress:
		return "progress"
	case EventHistogram:
		return "hist"
	case EventAttempt:
		return "attempt"
	default:
		return "log"
	}
}

// Event is the unit handed to sinks. Span events carry ID/Parent/Start/
// Duration/Allocs; counter and gauge events carry Value; progress events
// carry Done/Total; attempt events carry Attempt.
type Event struct {
	Kind   EventKind
	Time   time.Time
	Name   string
	ID     uint64 // span events only
	Parent uint64 // span events only; 0 = root
	// Trace is the span's effective distributed-trace ID (span events only):
	// the trace it inherited from a remote or local parent, else its tracer's
	// own ID. Sinks assembling cross-process traces key on it.
	Trace    string
	Depth    int // span nesting depth (0 = root); spans end child-first, so sinks cannot derive it
	Start    time.Time
	Duration time.Duration
	Allocs   uint64 // heap objects allocated during the span
	Value    float64
	Done     int64
	Total    int64
	Attrs    []Attr
	Attempt  *Attempt // attempt events only
}

// Sink consumes events. Emit must be safe for concurrent use.
type Sink interface {
	Emit(e *Event)
}

// Tracer binds a sink to span-ID allocation. A nil *Tracer is a valid,
// disabled tracer. Every tracer carries a process-unique trace ID that
// Inject stamps onto outgoing requests, so work fanned out to a remote
// service stitches back into this tracer's span tree.
type Tracer struct {
	sink    Sink
	nextID  atomic.Uint64
	traceID string
	// captureAllocs enables per-span heap-allocation deltas via
	// runtime/metrics (cheap, no stop-the-world).
	captureAllocs bool
}

// NewTracer returns a tracer that emits to sink. captureAllocs enables
// per-span allocation accounting.
func NewTracer(sink Sink, captureAllocs bool) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink, traceID: newTraceID(), captureAllocs: captureAllocs}
}

// TraceID returns the tracer's 32-hex-digit trace ID ("" when disabled).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// defaultTracer is the process-wide fallback used when a context carries no
// span. It serves code paths (legacy entry points, background goroutines)
// that cannot thread a context.
var defaultTracer atomic.Pointer[Tracer]

// SetDefault installs (or, with nil, removes) the process-wide default
// tracer. CLIs call this once at startup when -trace/-progress is given.
func SetDefault(t *Tracer) { defaultTracer.Store(t) }

type spanKey struct{}

// Span is one timed operation. The zero of the API is the nil span: every
// method is a nil-receiver no-op, so call sites never branch.
type Span struct {
	tracer *Tracer
	id     uint64
	parent uint64
	depth  int
	name   string
	// trace is the inherited distributed-trace ID: set when the span (or an
	// ancestor) parented to a remote trace context, empty when the span
	// belongs to its tracer's own trace. TraceID() folds the two cases.
	trace       string
	start       time.Time
	startAllocs uint64
	// mu guards attrs: goroutines sharing a parent span (a batch's items)
	// may attach attributes to it at the same time.
	mu    sync.Mutex
	attrs []Attr
}

// readAllocs returns the cumulative heap allocation count (objects) via
// runtime/metrics, which does not stop the world. A fresh sample slice per
// call keeps concurrent spans race-free; it only runs when a sink is live.
func readAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}

// Start begins a span named name. The parent is taken from ctx; if ctx
// carries none, the process default tracer is consulted and the span is a
// root. When observability is disabled the original ctx and a nil span are
// returned with zero allocation.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	var tr *Tracer
	if p, ok := ctx.Value(spanKey{}).(*Span); ok && p != nil {
		tr = p.tracer
	} else {
		tr = defaultTracer.Load()
	}
	return tr.StartSpan(ctx, name)
}

// StartSpan begins a span on this specific tracer, nesting under any span
// already carried by ctx (regardless of that span's tracer). It serves
// components that own their tracer instead of the process default — an HTTP
// server with a per-process collector, a per-job run manifest. A context
// carrying a remote trace context (WithRemote) but no local span makes the
// new span a child of the remote span and tags it with the remote trace ID,
// stitching cross-process traces together. A nil tracer returns ctx
// unchanged and a nil span.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var parent uint64
	var remoteTrace, inherited string
	depth := 0
	if p, ok := ctx.Value(spanKey{}).(*Span); ok && p != nil {
		parent = p.id
		depth = p.depth + 1
		// Children stay in the parent's effective trace, so a trace ID
		// adopted from a client survives every hop of nested local work —
		// and Inject re-propagates it onward instead of re-stamping each
		// intermediate node's own tracer ID.
		inherited = p.trace
	} else if rc, ok := RemoteFrom(ctx); ok {
		parent = rc.SpanID
		remoteTrace = rc.TraceID
		inherited = rc.TraceID
	}
	sp := &Span{
		tracer: t,
		id:     t.nextID.Add(1),
		parent: parent,
		depth:  depth,
		name:   name,
		trace:  inherited,
		start:  time.Now(),
	}
	if remoteTrace != "" {
		sp.attrs = append(sp.attrs, Attr{Key: "trace", Kind: KindString, Str: remoteTrace})
	}
	if t.captureAllocs {
		sp.startAllocs = readAllocs()
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// ID returns the span's ID (0 for a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// TraceID returns the span's effective distributed-trace ID ("" for a nil
// span): the trace adopted from a remote parent (directly or through local
// ancestors), else the tracer's own ID.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	if s.trace != "" {
		return s.trace
	}
	return s.tracer.TraceID()
}

// End emits the span event. Safe on a nil span; End may be called at most
// once.
func (s *Span) End() {
	if s == nil {
		return
	}
	e := Event{
		Kind:     EventSpan,
		Time:     time.Now(),
		Name:     s.name,
		ID:       s.id,
		Parent:   s.parent,
		Trace:    s.TraceID(),
		Depth:    s.depth,
		Start:    s.start,
		Duration: time.Since(s.start),
	}
	s.mu.Lock()
	e.Attrs = s.attrs
	s.mu.Unlock()
	if s.tracer.captureAllocs {
		if end := readAllocs(); end > s.startAllocs {
			e.Allocs = end - s.startAllocs
		}
	}
	s.tracer.sink.Emit(&e)
}

func (s *Span) add(a Attr) {
	s.mu.Lock()
	s.attrs = append(s.attrs, a)
	s.mu.Unlock()
}

// Int attaches an integer attribute.
func (s *Span) Int(key string, v int64) {
	if s == nil {
		return
	}
	s.add(Attr{Key: key, Kind: KindInt, Int: v})
}

// Float attaches a float attribute.
func (s *Span) Float(key string, v float64) {
	if s == nil {
		return
	}
	s.add(Attr{Key: key, Kind: KindFloat, Flt: v})
}

// Str attaches a string attribute.
func (s *Span) Str(key, v string) {
	if s == nil {
		return
	}
	s.add(Attr{Key: key, Kind: KindString, Str: v})
}

// Progress emits a progress event tied to the span's name: done units out
// of total (total ≤ 0 means unknown).
func (s *Span) Progress(done, total int64) {
	if s == nil {
		return
	}
	s.tracer.sink.Emit(&Event{
		Kind:  EventProgress,
		Time:  time.Now(),
		Name:  s.name,
		ID:    s.id,
		Done:  done,
		Total: total,
	})
}

// Count emits a monotonic counter increment against the tracer resolved
// from ctx (or the default).
func Count(ctx context.Context, name string, delta int64) {
	resolve(ctx).Count(name, delta)
}

// Count emits a monotonic counter increment on this tracer's sinks, whatever
// span a context carries: a component that owns a tracer counts into its
// own sinks from any call path. Nil-safe.
func (t *Tracer) Count(name string, delta int64) {
	if t != nil {
		t.sink.Emit(&Event{Kind: EventCounter, Time: time.Now(), Name: name, Value: float64(delta)})
	}
}

// Gauge emits a point-in-time level.
func Gauge(ctx context.Context, name string, v float64) {
	if tr := resolve(ctx); tr != nil {
		tr.sink.Emit(&Event{Kind: EventGauge, Time: time.Now(), Name: name, Value: v})
	}
}

// Observe emits one histogram observation (collectors aggregate these into
// log-bucketed latency distributions, alongside the implicit per-span-name
// duration histograms). Free when observability is disabled.
func Observe(ctx context.Context, name string, v float64) {
	if tr := resolve(ctx); tr != nil {
		tr.sink.Emit(&Event{Kind: EventHistogram, Time: time.Now(), Name: name, Value: v})
	}
}

// ObserveDuration emits a duration observation in seconds.
func ObserveDuration(ctx context.Context, name string, d time.Duration) {
	Observe(ctx, name, d.Seconds())
}

// LogAttrs emits a structured annotation: a stable event name plus typed
// attributes. It is the shape for machine-readable one-off events (solver
// stagnation detected, fallback fired) that are not metrics — the name stays
// grep-able while the attributes carry the specifics. Free when
// observability is disabled.
func LogAttrs(ctx context.Context, name string, attrs ...Attr) {
	if tr := resolve(ctx); tr != nil {
		tr.sink.Emit(&Event{Kind: EventLog, Time: time.Now(), Name: name, Attrs: attrs})
	}
}

func resolve(ctx context.Context) *Tracer {
	if p, ok := ctx.Value(spanKey{}).(*Span); ok && p != nil {
		return p.tracer
	}
	return defaultTracer.Load()
}
