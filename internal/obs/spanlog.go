package obs

import (
	"io"
	"sync"
	"time"
)

// SpanRecord is the cross-node wire form of one finished span: everything a
// remote assembler needs to stitch the span into a distributed trace tree.
// Node names the process that emitted the span; Remote marks spans whose
// parent lives in another process (the parent ID then refers to a span on a
// different node).
type SpanRecord struct {
	Trace           string         `json:"trace"`
	Node            string         `json:"node,omitempty"`
	ID              uint64         `json:"id"`
	Parent          uint64         `json:"parent,omitempty"`
	Remote          bool           `json:"remote,omitempty"`
	Name            string         `json:"name"`
	Start           time.Time      `json:"start"`
	DurationSeconds float64        `json:"duration_seconds"`
	Attrs           map[string]any `json:"attrs,omitempty"`
}

// End returns the span's finish instant.
func (r SpanRecord) End() time.Time {
	return r.Start.Add(time.Duration(r.DurationSeconds * float64(time.Second)))
}

// SpanLog is a sink that retains the most recent span events as SpanRecords
// in a fixed-size ring, for export over the cluster-status endpoints. It
// ignores non-span events (counters and histograms travel as merged
// snapshots, not event streams) and can tee records to a JSONL writer for
// offline assembly. Safe for concurrent Emit.
type SpanLog struct {
	node string
	size int

	mu   sync.Mutex
	ring []SpanRecord
	next int
	full bool
	tee  *JSONLSink
}

// NewSpanLog returns a span log retaining the last size spans (0 selects
// 512), stamping each record with the given node name.
func NewSpanLog(node string, size int) *SpanLog {
	if size <= 0 {
		size = 512
	}
	return &SpanLog{node: node, size: size, ring: make([]SpanRecord, size)}
}

// Tee additionally writes every span event to w as JSON lines (the
// JSONLSink encoding). Call before the log is installed as a sink.
func (l *SpanLog) Tee(w io.Writer) *SpanLog {
	l.tee = NewJSONLSink(w)
	return l
}

// Emit implements Sink.
func (l *SpanLog) Emit(e *Event) {
	if e.Kind != EventSpan {
		return
	}
	rec := SpanRecord{
		Trace:           e.Trace,
		Node:            l.node,
		ID:              e.ID,
		Parent:          e.Parent,
		Name:            e.Name,
		Start:           e.Start,
		DurationSeconds: e.Duration.Seconds(),
	}
	for _, a := range e.Attrs {
		// StartSpan tags spans adopted from a remote parent with a "trace"
		// attribute; that is the cross-process-parent marker.
		if a.Key == "trace" {
			rec.Remote = true
		}
		if rec.Attrs == nil {
			rec.Attrs = make(map[string]any, len(e.Attrs))
		}
		rec.Attrs[a.Key] = a.Value()
	}
	l.mu.Lock()
	l.ring[l.next] = rec
	l.next++
	if l.next == l.size {
		l.next = 0
		l.full = true
	}
	l.mu.Unlock()
	if l.tee != nil {
		l.tee.Emit(e)
	}
}

// Records returns the retained spans, oldest first.
func (l *SpanLog) Records() []SpanRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		out := make([]SpanRecord, l.next)
		copy(out, l.ring[:l.next])
		return out
	}
	out := make([]SpanRecord, 0, l.size)
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}
