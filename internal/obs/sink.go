package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
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

// DecodeJSONL parses one line previously written by JSONLSink back into an
// Event (attribute order is not preserved). It is the round-trip half used
// by tests and by trace-consuming tools.
func DecodeJSONL(line []byte) (*Event, error) {
	var je jsonEvent
	if err := json.Unmarshal(line, &je); err != nil {
		return nil, err
	}
	e := &Event{Name: je.Name, ID: je.ID, Parent: je.Parent, Trace: je.Trace, Depth: je.Depth}
	switch je.Kind {
	case "span":
		e.Kind = EventSpan
		e.Duration = time.Duration(je.DurUS * float64(time.Microsecond))
		e.Allocs = je.Allocs
	case "counter":
		e.Kind = EventCounter
	case "gauge":
		e.Kind = EventGauge
	case "hist":
		e.Kind = EventHistogram
	case "progress":
		e.Kind = EventProgress
	case "log":
		e.Kind = EventLog
	case "attempt":
		e.Kind = EventAttempt
		e.Attempt = je.Attempt
	default:
		return nil, fmt.Errorf("obs: unknown event kind %q", je.Kind)
	}
	if je.Value != nil {
		e.Value = *je.Value
	}
	if je.Done != nil {
		e.Done = *je.Done
	}
	if je.Total != nil {
		e.Total = *je.Total
	}
	t, err := time.Parse(time.RFC3339Nano, je.Time)
	if err != nil {
		return nil, fmt.Errorf("obs: bad event time: %w", err)
	}
	e.Time = t
	for k, v := range je.Attrs {
		switch x := v.(type) {
		case float64:
			if x == math.Trunc(x) && math.Abs(x) < 1e15 {
				e.Attrs = append(e.Attrs, Attr{Key: k, Kind: KindInt, Int: int64(x)})
			} else {
				e.Attrs = append(e.Attrs, Attr{Key: k, Kind: KindFloat, Flt: x})
			}
		case string:
			e.Attrs = append(e.Attrs, Attr{Key: k, Kind: KindString, Str: x})
		default:
			e.Attrs = append(e.Attrs, Attr{Key: k, Kind: KindString, Str: fmt.Sprint(x)})
		}
	}
	sort.Slice(e.Attrs, func(i, j int) bool { return e.Attrs[i].Key < e.Attrs[j].Key })
	return e, nil
}

// TextSink writes human-readable single-line events, indented by span
// nesting depth. Safe for concurrent Emit.
type TextSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewTextSink returns a plain-text sink writing to w.
func NewTextSink(w io.Writer) *TextSink {
	return &TextSink{w: w}
}

// Emit implements Sink.
func (s *TextSink) Emit(e *Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case EventSpan:
		var attrs strings.Builder
		for _, a := range e.Attrs {
			fmt.Fprintf(&attrs, " %s=%v", a.Key, a.Value())
		}
		fmt.Fprintf(s.w, "%s%-28s %12v  allocs=%d%s\n",
			strings.Repeat("  ", e.Depth), e.Name, e.Duration.Round(time.Microsecond), e.Allocs, attrs.String())
	case EventCounter:
		fmt.Fprintf(s.w, "counter %s += %g\n", e.Name, e.Value)
	case EventGauge:
		fmt.Fprintf(s.w, "gauge %s = %g\n", e.Name, e.Value)
	case EventHistogram:
		fmt.Fprintf(s.w, "hist %s <- %g\n", e.Name, e.Value)
	case EventProgress:
		if e.Total > 0 {
			fmt.Fprintf(s.w, "progress %s %d/%d\n", e.Name, e.Done, e.Total)
		} else {
			fmt.Fprintf(s.w, "progress %s %d\n", e.Name, e.Done)
		}
	case EventLog:
		fmt.Fprintf(s.w, "log %s\n", e.Name)
	}
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
