package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// jsonEvent is the wire form of an Event: flat, stable field names, one
// object per line. Attrs serialise as a key→value object so downstream
// tooling (jq, pandas) reads them without schema knowledge.
type jsonEvent struct {
	Kind    string         `json:"kind"`
	Time    string         `json:"time"`
	Name    string         `json:"name"`
	ID      uint64         `json:"id,omitempty"`
	Parent  uint64         `json:"parent,omitempty"`
	Trace   string         `json:"trace,omitempty"`
	Depth   int            `json:"depth,omitempty"`
	DurUS   float64        `json:"dur_us,omitempty"`
	Allocs  uint64         `json:"allocs,omitempty"`
	Value   *float64       `json:"value,omitempty"`
	Done    *int64         `json:"done,omitempty"`
	Total   *int64         `json:"total,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Attempt *Attempt       `json:"attempt,omitempty"`
}

// JSONLSink writes one JSON object per event. Safe for concurrent Emit.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink returns a JSON-lines sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e *Event) {
	je := jsonEvent{
		Kind: e.Kind.String(),
		Time: e.Time.UTC().Format(time.RFC3339Nano),
		Name: e.Name,
	}
	switch e.Kind {
	case EventSpan:
		je.ID = e.ID
		je.Parent = e.Parent
		je.Trace = e.Trace
		je.Depth = e.Depth
		je.DurUS = float64(e.Duration) / float64(time.Microsecond)
		je.Allocs = e.Allocs
	case EventCounter, EventGauge, EventHistogram:
		v := e.Value
		je.Value = &v
	case EventProgress:
		d, t := e.Done, e.Total
		je.Done = &d
		if t > 0 {
			je.Total = &t
		}
		je.ID = e.ID
	case EventAttempt:
		je.Attempt = e.Attempt
	}
	if len(e.Attrs) > 0 {
		je.Attrs = make(map[string]any, len(e.Attrs))
		for _, a := range e.Attrs {
			je.Attrs[a.Key] = a.Value()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.enc.Encode(&je) // best effort: tracing must never fail the run
}

// MultiSink fans events out to several sinks.
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(e *Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// ProgressPrinter renders progress (and top-level span-end) events as
// throttled status lines — the CLIs' -progress view for long runs. Safe
// for concurrent Emit.
type ProgressPrinter struct {
	mu       sync.Mutex
	w        io.Writer
	interval time.Duration
	last     time.Time
	start    time.Time
}

// NewProgressPrinter returns a printer that writes at most one status line
// per interval (0 selects 500ms).
func NewProgressPrinter(w io.Writer, interval time.Duration) *ProgressPrinter {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	return &ProgressPrinter{w: w, interval: interval, start: time.Now()}
}

// Emit implements Sink.
func (p *ProgressPrinter) Emit(e *Event) {
	if e.Kind != EventProgress {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	// Always print completions of known totals; throttle the rest.
	final := e.Total > 0 && e.Done >= e.Total
	if !final && now.Sub(p.last) < p.interval {
		return
	}
	p.last = now
	elapsed := now.Sub(p.start).Round(100 * time.Millisecond)
	if e.Total > 0 {
		fmt.Fprintf(p.w, "[%8s] %s %d/%d (%.0f%%)\n",
			elapsed, e.Name, e.Done, e.Total, 100*float64(e.Done)/float64(e.Total))
	} else {
		fmt.Fprintf(p.w, "[%8s] %s %d\n", elapsed, e.Name, e.Done)
	}
}
