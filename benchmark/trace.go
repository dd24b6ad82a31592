package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Times are offsets from the recorder's
// start; Parent is the index of the enclosing span (-1 for an op root).
type span struct {
	Name   string           `json:"name"`
	Op     int              `json:"op"`
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Start  time.Duration    `json:"start_ns"`
	End    time.Duration    `json:"end_ns"`
	Allocs uint64           `json:"allocs,omitempty"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
	allocs uint64           // allocation count at begin
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It also serves as the
// obs sink of traced ops, so the counts the program already emits on its own
// spans (matvecs, solver iterations) land on the benchmark span open around
// the call. One goroutine records; the mutex orders Emit, which the program
// may call from any goroutine, against the recording calls.
type recorder struct {
	t0    time.Time
	rt    *rtReader
	mu    sync.Mutex
	spans []span
	open  int // innermost open span, -1 for none
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), rt: newRTReader(), open: -1, spans: make([]span, 0, 1<<14)}
}

// begin opens a span under the innermost open one and returns its ID.
func (r *recorder) begin(name string, op int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: op, ID: id, Parent: r.open})
	r.open = id
	s := &r.spans[id]
	s.allocs = r.rt.allocs()
	s.Start = time.Since(r.t0)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	end := time.Since(r.t0)
	allocs := r.rt.allocs()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End = end
	s.Allocs = allocs - s.allocs
	r.open = s.Parent
}

// attr sets a count on span id.
func (r *recorder) attr(id int, key string, v int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	if s.Attrs == nil {
		s.Attrs = map[string]int64{}
	}
	s.Attrs[key] = v
}

// programCounts names the counts read from the program's own spans: the
// uniformisation's matrix-vector products and Fox–Glynn window, and the
// stationary solver's iterations (linalg.robust_solve repeats these, so it
// is not read).
var programCounts = map[string][]string{
	"ctmc.cumulative_reward": {"matvecs", "fg_left", "fg_right", "fg_terms"},
	"ctmc.steadystate.solve": {"iterations"},
}

// Emit implements obs.Sink: the counts of the program's own spans are added
// to the benchmark span open at the time.
func (r *recorder) Emit(e *obs.Event) {
	keys := programCounts[e.Name]
	if e.Kind != obs.EventSpan || keys == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.open < 0 {
		return
	}
	s := &r.spans[r.open]
	for _, a := range e.Attrs {
		if a.Kind == obs.KindInt && slices.Contains(keys, a.Key) {
			if s.Attrs == nil {
				s.Attrs = map[string]int64{}
			}
			s.Attrs[a.Key] += a.Int
		}
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// that its children cover.
func (r *recorder) selfTimes() []time.Duration {
	children := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(r.spans))
	for i := range r.spans {
		self[i] = r.spans[i].dur() - covered(r.spans, children[i])
	}
	return self
}

// covered is the length of the union of the given spans' intervals.
func covered(spans []span, ids []int) time.Duration {
	iv := make([][2]time.Duration, 0, len(ids))
	for _, id := range ids {
		iv = append(iv, [2]time.Duration{spans[id].Start, spans[id].End})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curEnd time.Duration
	curStart := time.Duration(-1)
	for _, x := range iv {
		if curStart < 0 || x[0] > curEnd {
			total += curEnd - max(curStart, 0)
			curStart, curEnd = x[0], x[1]
			continue
		}
		curEnd = max(curEnd, x[1])
	}
	if curStart >= 0 {
		total += curEnd - curStart
	}
	return total
}

// writeJSONL writes every span, one JSON object a line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
