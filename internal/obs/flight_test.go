package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestFlightNilIsNoOp: the disabled recorder follows the nil-receiver
// convention of the rest of the package.
func TestFlightNilIsNoOp(t *testing.T) {
	var f *Flight
	f.Append(FlightEvent{Name: "x"})
	f.Emit(&Event{Kind: EventCounter, Name: "c", Value: 1})
	f.Emit(&Event{Kind: EventAttempt, Name: "solver", Attempt: &Attempt{Stage: "solver"}})
	if f.Snapshot() != nil || f.Size() != 0 || f.Dropped() != 0 {
		t.Fatal("nil flight recorder is not inert")
	}
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 404 {
		t.Fatalf("nil flight handler status = %d, want 404", rec.Code)
	}
}

// TestFlightRingOverwrites: the ring keeps exactly the last size events, in
// append order.
func TestFlightRingOverwrites(t *testing.T) {
	f := NewFlight(4)
	for i := 1; i <= 10; i++ {
		f.Append(FlightEvent{Name: "e", Value: float64(i)})
	}
	got := f.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot has %d events, want 4", len(got))
	}
	for i, ev := range got {
		if want := float64(7 + i); ev.Value != want {
			t.Errorf("event %d value = %v, want %v (oldest-first order)", i, ev.Value, want)
		}
		if ev.Seq != uint64(7+i) {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, 7+i)
		}
	}
}

// TestFlightEmitFlattens: sink events map onto the fixed-size record —
// spans keep their ID and duration, counters their value, and a string
// attribute surfaces as the detail.
func TestFlightEmitFlattens(t *testing.T) {
	f := NewFlight(8)
	f.Emit(&Event{Kind: EventSpan, Time: time.Unix(0, 42), Name: "ctmc.solve",
		ID: 7, Duration: 1500 * time.Microsecond})
	f.Emit(&Event{Kind: EventCounter, Name: "solver.stagnation", Value: 1,
		Attrs: []Attr{{Key: "method", Kind: KindString, Str: "dense"}}})
	for _, a := range []Attempt{
		{Stage: "solver", Try: 2, Method: "dense", Seconds: 0.25},
		{Stage: "solver", Try: 1, Method: "gauss-seidel", Error: "no convergence"},
	} {
		f.Emit(&Event{Kind: EventAttempt, Name: a.Stage, Attempt: &a})
	}

	got := f.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot has %d events, want 4", len(got))
	}
	sp := got[0]
	if sp.Kind != "span" || sp.Span != 7 || sp.DurationUS != 1500 || sp.TimeUnixNano != 42 {
		t.Errorf("span event = %+v", sp)
	}
	if c := got[1]; c.Kind != "counter" || c.Value != 1 || c.Detail != "dense" {
		t.Errorf("counter event = %+v", c)
	}
	if at := got[2]; at.Kind != "attempt" || at.Name != "solver" || at.Value != 2 ||
		at.Detail != "dense" || at.DurationUS != 250000 {
		t.Errorf("attempt event = %+v", at)
	}
	if at := got[3]; at.Detail != "no convergence" {
		t.Errorf("failed attempt detail = %q, want the error", at.Detail)
	}
}

// TestFlightAppendZeroAlloc enforces the acceptance criterion: recording
// into the ring must not allocate, so it can stay always-on in the solver
// hot path.
func TestFlightAppendZeroAlloc(t *testing.T) {
	f := NewFlight(64)
	ev := FlightEvent{Name: "hot", Value: 1}
	if n := testing.AllocsPerRun(1000, func() { f.Append(ev) }); n != 0 {
		t.Fatalf("Append allocates %v objects per call, want 0", n)
	}
	e := &Event{Kind: EventCounter, Name: "hot", Value: 1,
		Attrs: []Attr{{Key: "method", Kind: KindString, Str: "dense"}}}
	if n := testing.AllocsPerRun(1000, func() { f.Emit(e) }); n != 0 {
		t.Fatalf("Emit allocates %v objects per call, want 0", n)
	}
}

// BenchmarkFlightAppend documents the per-event cost (run with -benchmem:
// 0 allocs/op is the contract).
func BenchmarkFlightAppend(b *testing.B) {
	f := NewFlight(DefaultFlightSize)
	ev := FlightEvent{Name: "bench", Value: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Append(ev)
	}
}

// TestFlightConcurrent hammers the ring from many writers while snapshots
// run — the race detector must stay quiet, and nothing may be lost except
// explicitly counted drops.
func TestFlightConcurrent(t *testing.T) {
	f := NewFlight(32)
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f.Append(FlightEvent{Name: "w", Value: float64(w)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			f.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	got := f.Snapshot()
	if len(got) == 0 || len(got) > 32 {
		t.Fatalf("snapshot has %d events, want 1..32", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: %d after %d", i, got[i].Seq, got[i-1].Seq)
		}
	}
	appended := uint64(writers*perWriter) - f.Dropped()
	if appended == 0 {
		t.Fatal("every append was dropped")
	}
}

// TestFlightHandler: the live endpoint serves the ring as JSON.
func TestFlightHandler(t *testing.T) {
	f := NewFlight(8)
	f.Append(FlightEvent{Name: "one", Value: 1})
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var dump struct {
		Size    int           `json:"size"`
		Dropped uint64        `json:"dropped"`
		Events  []FlightEvent `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Size != 8 || len(dump.Events) != 1 || dump.Events[0].Name != "one" {
		t.Fatalf("dump = %+v", dump)
	}
}

// TestRunFlightManifest: a StartRun session with FlightSize dumps the ring
// into the manifest, and the ring stops receiving events on Close.
func TestRunFlightManifest(t *testing.T) {
	r, err := StartRun(RunOptions{FlightSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !r.active || r.Flight == nil {
		t.Fatal("flight run not active or ring not installed")
	}
	_, sp := Start(context.Background(), "phase.one")
	sp.End()
	Count(context.Background(), "widgets", 3)
	m := r.Manifest("test", nil)
	if len(m.Flight) != 2 {
		t.Fatalf("manifest flight has %d events, want 2: %+v", len(m.Flight), m.Flight)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	RecordAttempt(context.Background(), Attempt{Stage: "job", Try: 1})
	if n := len(r.Flight.Snapshot()); n != 2 {
		t.Fatalf("ring has %d events after Close, want 2", n)
	}
}
