package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// Flight is a fixed-size black-box ring of the most recent observability
// events. Unlike a trace sink it is always cheap enough to leave on: Append
// is lock-free, allocation-free and never blocks, so a production service
// can keep the last few hundred events in memory and dump them only when
// something goes wrong — a panic, an injected fault, a deadline breach, a
// degraded-health transition.
//
// Concurrency: writers claim a slot with an atomic sequence increment and
// then take a per-slot CAS guard for the plain-field copy. A writer that
// finds the guard held (another writer or a snapshot is in the slot) drops
// its event and bumps the dropped counter instead of spinning — losing one
// ring entry under extreme contention is preferable to blocking the solver
// hot path. The guard's atomic operations give the race detector (and the
// memory model) the happens-before edges a seqlock would lack.
//
// A nil *Flight is a valid, disabled recorder: every method is a no-op, in
// the same style as the nil *Span.
type Flight struct {
	slots   []flightSlot
	seq     atomic.Uint64
	dropped atomic.Uint64
}

type flightSlot struct {
	guard atomic.Uint32 // 0 = free, 1 = held by a writer or snapshot
	ev    FlightEvent
}

// DefaultFlightSize is the ring capacity used when NewFlight is given a
// non-positive size.
const DefaultFlightSize = 256

// FlightEvent is one recorded entry. It is a flattened, fixed-size view of
// an Event (no attribute slice) so slot writes cannot allocate.
type FlightEvent struct {
	// Seq is the global 1-based append order; snapshots sort by it.
	Seq uint64 `json:"seq"`
	// TimeUnixNano is the event time (span end time for spans).
	TimeUnixNano int64 `json:"time_unix_nano"`
	// Kind is the event kind ("span", "counter", "gauge", "hist", "log",
	// "progress", "attempt").
	Kind string `json:"kind"`
	// Name is the span/metric name, log message, or attempt stage.
	Name string `json:"name"`
	// Span is the span ID, for span events.
	Span uint64 `json:"span,omitempty"`
	// DurationUS is the span or attempt wall time in microseconds.
	DurationUS float64 `json:"duration_us,omitempty"`
	// Value carries the counter delta, gauge level, histogram observation,
	// progress done-count, or attempt try number.
	Value float64 `json:"value,omitempty"`
	// Detail is a short free-form discriminator: an attempt's method or
	// error, or a log event's first string attribute.
	Detail string `json:"detail,omitempty"`
}

// NewFlight returns a recorder keeping the last size events (size <= 0 uses
// DefaultFlightSize).
func NewFlight(size int) *Flight {
	if size <= 0 {
		size = DefaultFlightSize
	}
	return &Flight{slots: make([]flightSlot, size)}
}

// Size returns the ring capacity (0 for a nil recorder).
func (f *Flight) Size() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Dropped returns how many events were discarded because their slot was
// contended at append time.
func (f *Flight) Dropped() uint64 {
	if f == nil {
		return 0
	}
	return f.dropped.Load()
}

// Append records one event, overwriting the oldest entry once the ring is
// full. Nil-safe, lock-free, allocation-free; on slot contention the event
// is dropped rather than waiting.
func (f *Flight) Append(ev FlightEvent) {
	if f == nil {
		return
	}
	seq := f.seq.Add(1)
	slot := &f.slots[(seq-1)%uint64(len(f.slots))]
	if !slot.guard.CompareAndSwap(0, 1) {
		f.dropped.Add(1)
		return
	}
	ev.Seq = seq
	slot.ev = ev
	slot.guard.Store(0)
}

// Emit implements Sink, flattening the event into the ring. The flight
// recorder is meant to sit inside a MultiSink next to the collector so every
// span end, counter, histogram observation and attempt leaves a trace in the
// ring.
func (f *Flight) Emit(e *Event) {
	if f == nil {
		return
	}
	ev := FlightEvent{
		TimeUnixNano: e.Time.UnixNano(),
		Kind:         e.Kind.String(),
		Name:         e.Name,
	}
	switch e.Kind {
	case EventSpan:
		ev.Span = e.ID
		ev.DurationUS = float64(e.Duration) / float64(time.Microsecond)
	case EventAttempt:
		a := e.Attempt
		ev.DurationUS = a.Seconds * 1e6
		ev.Value = float64(a.Try)
		ev.Detail = a.Error
		if ev.Detail == "" {
			ev.Detail = a.Method
		}
	case EventProgress:
		ev.Span = e.ID
		ev.Value = float64(e.Done)
	default:
		ev.Value = e.Value
	}
	// Surface one telling string attribute without concatenating (which
	// would allocate): prefer an explicit error, then a method name.
	for _, a := range e.Attrs {
		if a.Kind != KindString {
			continue
		}
		if a.Key == "error" {
			ev.Detail = a.Str
			break
		}
		if ev.Detail == "" && (a.Key == "method" || a.Key == "detail") {
			ev.Detail = a.Str
		}
	}
	f.Append(ev)
}

// Snapshot copies the ring's current contents in append order (oldest
// first). Slots mid-write are skipped, so a snapshot taken under heavy
// concurrent traffic may miss entries; it never blocks writers for longer
// than one field copy.
func (f *Flight) Snapshot() []FlightEvent {
	if f == nil {
		return nil
	}
	out := make([]FlightEvent, 0, len(f.slots))
	for i := range f.slots {
		slot := &f.slots[i]
		if !slot.guard.CompareAndSwap(0, 1) {
			continue
		}
		ev := slot.ev
		slot.guard.Store(0)
		if ev.Seq != 0 {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// flightDump is the JSON shape served by Handler.
type flightDump struct {
	Size    int           `json:"size"`
	Dropped uint64        `json:"dropped"`
	Events  []FlightEvent `json:"events"`
}

// Handler serves the live ring as JSON — the body behind the service's
// GET /debug/flight endpoint. Nil-safe: a nil recorder serves 404.
func (f *Flight) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(flightDump{
			Size:    f.Size(),
			Dropped: f.Dropped(),
			Events:  f.Snapshot(),
		})
	})
}
