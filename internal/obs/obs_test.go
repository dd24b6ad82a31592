package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// memorySink records events for assertions.
type memorySink struct {
	mu     sync.Mutex
	events []Event
}

func (m *memorySink) Emit(e *Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events = append(m.events, *e)
}

func (m *memorySink) byKind(k EventKind) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Event
	for _, e := range m.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

func withSink(t *testing.T, sink Sink, captureAllocs bool) {
	t.Helper()
	SetDefault(NewTracer(sink, captureAllocs))
	t.Cleanup(func() { SetDefault(nil) })
}

func TestDisabledPathIsZeroAlloc(t *testing.T) {
	SetDefault(nil)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		cctx, sp := Start(ctx, "noop")
		sp.Int("k", 1)
		sp.Float("f", 2.5)
		sp.Str("s", "x")
		sp.Progress(1, 10)
		sp.End()
		Count(cctx, "c", 1)
		Gauge(cctx, "g", 1)
		RecordAttempt(cctx, Attempt{Stage: "solver", Try: 1, Method: "dense"})
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocates %v times per op, want 0", allocs)
	}
}

func TestSpanTreeParenting(t *testing.T) {
	sink := &memorySink{}
	withSink(t, sink, false)
	ctx, root := Start(context.Background(), "root")
	cctx, child := Start(ctx, "child")
	_, grand := Start(cctx, "grandchild")
	grand.End()
	child.End()
	root.End()

	spans := sink.byKind(EventSpan)
	if len(spans) != 3 {
		t.Fatalf("got %d span events, want 3", len(spans))
	}
	byName := map[string]Event{}
	for _, e := range spans {
		byName[e.Name] = e
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root has parent %d, want 0", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Errorf("child parent = %d, want root id %d", byName["child"].Parent, byName["root"].ID)
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Errorf("grandchild parent = %d, want child id %d", byName["grandchild"].Parent, byName["child"].ID)
	}
}

func TestGlobalFallbackWithoutContext(t *testing.T) {
	sink := &memorySink{}
	withSink(t, sink, false)
	// No span in the context: the default tracer must pick it up as a root.
	_, sp := Start(context.Background(), "orphan")
	sp.Int("answer", 42)
	sp.End()
	spans := sink.byKind(EventSpan)
	if len(spans) != 1 || spans[0].Parent != 0 {
		t.Fatalf("want one root span, got %+v", spans)
	}
	if len(spans[0].Attrs) != 1 || spans[0].Attrs[0].Int != 42 {
		t.Fatalf("attr lost: %+v", spans[0].Attrs)
	}
}

func TestCountersAndGauges(t *testing.T) {
	sink := &memorySink{}
	withSink(t, sink, false)
	ctx := context.Background()
	Count(ctx, "paths", 100)
	Count(ctx, "paths", 50)
	Gauge(ctx, "ci", 0.25)
	if n := len(sink.byKind(EventCounter)); n != 2 {
		t.Fatalf("want 2 counter events, got %d", n)
	}
	if g := sink.byKind(EventGauge); len(g) != 1 || g[0].Value != 0.25 {
		t.Fatalf("gauge lost: %+v", g)
	}
}

// TestJSONLAttemptRoundTrip: an attempt event written by JSONLSink decodes
// back with its stage, try, method, outcome, error, residual and trace.
func TestJSONLAttemptRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Attempt{
		Stage: "solver", Try: 2, Method: "dense", Outcome: AttemptError,
		Error: "no convergence", Iterations: 400, Seconds: 0.5, Residual: 3.25e-9,
		Trace: []ResidualPoint{{Iteration: 1, Residual: 0.5}, {Iteration: 400, Residual: 3.25e-9}},
	}
	NewJSONLSink(&buf).Emit(&Event{Kind: EventAttempt, Time: time.Now(), Name: in.Stage, Attempt: &in})
	e, err := decodeJSONL(bytes.TrimSpace(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode %q: %v", buf.String(), err)
	}
	if e.Kind != EventAttempt || e.Name != "solver" || e.Attempt == nil {
		t.Fatalf("attempt event lost: %+v", e)
	}
	got := *e.Attempt
	if got.Stage != in.Stage || got.Try != in.Try || got.Method != in.Method ||
		got.Outcome != in.Outcome || got.Error != in.Error || got.Residual != in.Residual {
		t.Fatalf("attempt = %+v, want %+v", got, in)
	}
	if len(got.Trace) != len(in.Trace) || got.Trace[1] != in.Trace[1] {
		t.Fatalf("trace = %+v, want %+v", got.Trace, in.Trace)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	now := time.Now()
	in := []*Event{
		{
			Kind: EventSpan, Time: now, Name: "ctmc.transient", ID: 7, Parent: 3,
			Start: now.Add(-time.Millisecond), Duration: 1500 * time.Microsecond, Allocs: 12,
			Attrs: []Attr{
				{Key: "matvecs", Kind: KindInt, Int: 321},
				{Key: "q", Kind: KindFloat, Flt: 104.5},
				{Key: "phase", Kind: KindString, Str: "check"},
			},
		},
		{Kind: EventCounter, Time: now, Name: "sim.paths", Value: 4000},
		{Kind: EventGauge, Time: now, Name: "sim.ci", Value: 0.015},
		{Kind: EventProgress, Time: now, Name: "sweep", ID: 2, Done: 3, Total: 17},
		{Kind: EventLog, Time: now, Name: "hello"},
	}
	for _, e := range in {
		sink.Emit(e)
	}
	sc := bufio.NewScanner(&buf)
	var got []*Event
	for sc.Scan() {
		e, err := decodeJSONL(sc.Bytes())
		if err != nil {
			t.Fatalf("decode %q: %v", sc.Text(), err)
		}
		got = append(got, e)
	}
	if len(got) != len(in) {
		t.Fatalf("round-tripped %d events, want %d", len(got), len(in))
	}
	sp := got[0]
	if sp.Kind != EventSpan || sp.Name != "ctmc.transient" || sp.ID != 7 || sp.Parent != 3 {
		t.Fatalf("span identity lost: %+v", sp)
	}
	if sp.Duration != 1500*time.Microsecond || sp.Allocs != 12 {
		t.Fatalf("span measurements lost: %+v", sp)
	}
	wantAttrs := map[string]any{"matvecs": int64(321), "phase": "check", "q": 104.5}
	if len(sp.Attrs) != len(wantAttrs) {
		t.Fatalf("attrs lost: %+v", sp.Attrs)
	}
	for _, a := range sp.Attrs {
		if a.Value() != wantAttrs[a.Key] {
			t.Errorf("attr %s = %v (%T), want %v", a.Key, a.Value(), a.Value(), wantAttrs[a.Key])
		}
	}
	if got[1].Value != 4000 || got[2].Value != 0.015 {
		t.Fatalf("metric values lost: %+v %+v", got[1], got[2])
	}
	if got[3].Done != 3 || got[3].Total != 17 {
		t.Fatalf("progress lost: %+v", got[3])
	}
	if got[4].Kind != EventLog || got[4].Name != "hello" {
		t.Fatalf("log lost: %+v", got[4])
	}
}

func TestCollectorManifest(t *testing.T) {
	col := NewCollector()
	withSink(t, col, false)
	ctx, sp := Start(context.Background(), "modular.explore")
	sp.Int("states", 729)
	sp.Int("transitions", 6128)
	sp.End()
	for i := 0; i < 3; i++ {
		_, s := Start(ctx, "ctmc.transient")
		s.Int("matvecs", 100+int64(i))
		s.End()
	}
	Count(ctx, "sim.paths", 2000)
	Gauge(ctx, "sim.ci", 0.01)

	m := col.Manifest("secanalyze", []string{"-trace", "out.jsonl"})
	if m.Model.States != 729 || m.Model.Transitions != 6128 {
		t.Fatalf("model stats not lifted from explore span: %+v", m.Model)
	}
	var tr *PhaseStat
	for i := range m.Phases {
		if m.Phases[i].Name == "ctmc.transient" {
			tr = &m.Phases[i]
		}
	}
	if tr == nil || tr.Count != 3 {
		t.Fatalf("transient phase missing or miscounted: %+v", m.Phases)
	}
	if got := tr.Attrs["matvecs"]; got.Sum != 303 || got.Max != 102 {
		t.Fatalf("matvec aggregation wrong: %+v", got)
	}
	if m.Counters["sim.paths"] != 2000 || m.Gauges["sim.ci"] != 0.01 {
		t.Fatalf("metrics lost: %+v %+v", m.Counters, m.Gauges)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"states": 729`) {
		t.Fatalf("manifest JSON missing model size:\n%s", buf.String())
	}
}

func TestProgressPrinterThrottlesAndFinishes(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressPrinter(&buf, time.Hour) // throttle everything mid-run
	mk := func(done, total int64) *Event {
		return &Event{Kind: EventProgress, Time: time.Now(), Name: "sweep", Done: done, Total: total}
	}
	p.Emit(mk(1, 10))  // first: printed (printer starts with zero 'last')
	p.Emit(mk(2, 10))  // throttled
	p.Emit(mk(3, 10))  // throttled
	p.Emit(mk(10, 10)) // completion: always printed
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want first+final lines only, got %q", buf.String())
	}
	if !strings.Contains(lines[1], "10/10 (100%)") {
		t.Errorf("final line wrong: %q", lines[1])
	}
}

func TestAttrFloat(t *testing.T) {
	if v, ok := (Attr{Kind: KindInt, Int: 3}).Float(); !ok || v != 3 {
		t.Fatal("int attr not numeric")
	}
	if v, ok := (Attr{Kind: KindFloat, Flt: math.Pi}).Float(); !ok || v != math.Pi {
		t.Fatal("float attr not numeric")
	}
	if _, ok := (Attr{Kind: KindString, Str: "x"}).Float(); ok {
		t.Fatal("string attr claims numeric")
	}
}

// decodeJSONL parses one line previously written by JSONLSink back into an
// Event (attribute order is not preserved): the round-trip half of the sink
// tests.
func decodeJSONL(line []byte) (*Event, error) {
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
