package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Collector aggregates the event stream into per-phase statistics, from
// which a run Manifest is derived: span name → {count, total wall time,
// allocations, per-attribute sum/max}. Every span name additionally feeds a
// log-bucketed duration histogram (as do explicit EventHistogram events), so
// the manifest and the Prometheus exposition report latency quantiles per
// stage. Safe for concurrent Emit.
type Collector struct {
	mu       sync.Mutex
	start    time.Time
	spans    map[string]*phaseAgg
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]*Histogram
}

type phaseAgg struct {
	count  int64
	dur    time.Duration
	allocs uint64
	attrs  map[string]*attrAgg
}

type attrAgg struct {
	sum, max float64
	n        int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		start:    time.Now(),
		spans:    make(map[string]*phaseAgg),
		counters: make(map[string]float64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Histogram),
	}
}

// histFor returns (creating on demand) the histogram for name. Callers must
// hold c.mu for the map lookup; Observe on the result is lock-free.
func (c *Collector) histFor(name string) *Histogram {
	h := c.hists[name]
	if h == nil {
		h = NewHistogram()
		c.hists[name] = h
	}
	return h
}

// Histogram snapshots one named histogram (span-duration or observed),
// reporting ok=false when nothing has been recorded under the name.
func (c *Collector) Histogram(name string) (HistogramSnapshot, bool) {
	c.mu.Lock()
	h := c.hists[name]
	c.mu.Unlock()
	if h == nil {
		return HistogramSnapshot{}, false
	}
	return h.Snapshot(), true
}

// Counter returns the running total of one named counter (0 when nothing
// was counted under the name).
func (c *Collector) Counter(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters[name]
}

// Histograms snapshots every histogram, keyed by name.
func (c *Collector) Histograms() map[string]HistogramSnapshot {
	c.mu.Lock()
	hs := make(map[string]*Histogram, len(c.hists))
	for k, h := range c.hists {
		hs[k] = h
	}
	c.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(hs))
	for k, h := range hs {
		out[k] = h.Snapshot()
	}
	return out
}

// Emit implements Sink.
func (c *Collector) Emit(e *Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e.Kind {
	case EventSpan:
		agg := c.spans[e.Name]
		if agg == nil {
			agg = &phaseAgg{attrs: make(map[string]*attrAgg)}
			c.spans[e.Name] = agg
		}
		agg.count++
		agg.dur += e.Duration
		agg.allocs += e.Allocs
		// Span.End feeds the per-stage latency distribution implicitly:
		// every instrumented stage gains quantiles with no extra call sites.
		c.histFor(e.Name).Observe(e.Duration.Seconds())
		for _, a := range e.Attrs {
			v, ok := a.Float()
			if !ok {
				continue
			}
			aa := agg.attrs[a.Key]
			if aa == nil {
				aa = &attrAgg{max: v}
				agg.attrs[a.Key] = aa
			}
			aa.sum += v
			if v > aa.max {
				aa.max = v
			}
			aa.n++
		}
	case EventCounter:
		c.counters[e.Name] += e.Value
	case EventGauge:
		c.gauges[e.Name] = e.Value
	case EventHistogram:
		c.histFor(e.Name).Observe(e.Value)
	}
}

// AttrStat is the aggregate of one numeric span attribute.
type AttrStat struct {
	Sum float64 `json:"sum"`
	Max float64 `json:"max"`
}

// PhaseStat is the aggregate of all spans sharing a name. The quantile
// fields are estimates from the phase's log-bucketed duration histogram.
type PhaseStat struct {
	Name    string              `json:"name"`
	Count   int64               `json:"count"`
	Seconds float64             `json:"seconds"`
	Allocs  uint64              `json:"allocs,omitempty"`
	P50     float64             `json:"p50_seconds,omitempty"`
	P90     float64             `json:"p90_seconds,omitempty"`
	P99     float64             `json:"p99_seconds,omitempty"`
	Attrs   map[string]AttrStat `json:"attrs,omitempty"`
}

// HistogramStat summarises one observed (non-span) histogram in a manifest.
type HistogramStat struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum_seconds"`
	P50   float64 `json:"p50_seconds,omitempty"`
	P90   float64 `json:"p90_seconds,omitempty"`
	P99   float64 `json:"p99_seconds,omitempty"`
}

// ModelStats summarises the largest explored model of the run.
type ModelStats struct {
	States      int64 `json:"states"`
	Transitions int64 `json:"transitions"`
}

// Manifest is the single JSON record each CLI run can emit: inputs, model
// size, per-phase wall time and solver statistics — the unit of comparison
// for sweeps across commits.
type Manifest struct {
	Tool        string    `json:"tool"`
	Args        []string  `json:"args,omitempty"`
	GoVersion   string    `json:"go_version"`
	Start       time.Time `json:"start"`
	WallSeconds float64   `json:"wall_seconds"`
	// TraceID is the distributed-trace ID of the run: a CLI's own tracer ID,
	// or — for a service job whose submission carried a traceparent header —
	// the client's, so offline and server-side manifests stitch together.
	TraceID  string             `json:"trace_id,omitempty"`
	Model    ModelStats         `json:"model"`
	Phases   []PhaseStat        `json:"phases"`
	Counters map[string]float64 `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	// Histograms carries observed (non-span) latency distributions — queue
	// waits and the like; span latencies live on their PhaseStat.
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
	// Attempts is the fault-tolerance history of the run — solver fallback
	// tries and job retries, including recovered panics with their stacks.
	// The retry machinery (internal/service) fills it after collection.
	Attempts []Attempt `json:"attempts,omitempty"`
	// Flight is the black-box dump: the last events before the run (or job)
	// ended, included when a flight recorder was active and something went
	// wrong — panic, injected fault, deadline breach, degraded-health
	// transition — or when a CLI opted in with -flight.
	Flight []FlightEvent `json:"flight,omitempty"`
	// FlightDropped counts ring entries lost to append contention.
	FlightDropped uint64 `json:"flight_dropped,omitempty"`
}

// exploreSpan is the span name whose attributes carry model size; the
// manifest lifts them into ModelStats.
const exploreSpan = "modular.explore"

// Manifest snapshots the collector into a run manifest. tool and args
// describe the invocation.
func (c *Collector) Manifest(tool string, args []string) *Manifest {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := &Manifest{
		Tool:        tool,
		Args:        args,
		GoVersion:   runtime.Version(),
		Start:       c.start,
		WallSeconds: time.Since(c.start).Seconds(),
	}
	for name, agg := range c.spans {
		ps := PhaseStat{
			Name:    name,
			Count:   agg.count,
			Seconds: agg.dur.Seconds(),
			Allocs:  agg.allocs,
		}
		if h := c.hists[name]; h != nil {
			s := h.Snapshot()
			ps.P50, ps.P90, ps.P99 = s.P50(), s.P90(), s.P99()
		}
		if len(agg.attrs) > 0 {
			ps.Attrs = make(map[string]AttrStat, len(agg.attrs))
			for k, aa := range agg.attrs {
				ps.Attrs[k] = AttrStat{Sum: aa.sum, Max: aa.max}
			}
		}
		m.Phases = append(m.Phases, ps)
	}
	// Deterministic rendering: slowest phase first, ties broken by name, and
	// map keys copied in sorted order (encoding/json re-sorts map keys, so
	// the explicit sort here documents — and the golden test pins — that
	// manifest output is byte-stable across runs).
	sort.Slice(m.Phases, func(i, j int) bool {
		if m.Phases[i].Seconds != m.Phases[j].Seconds {
			return m.Phases[i].Seconds > m.Phases[j].Seconds
		}
		return m.Phases[i].Name < m.Phases[j].Name
	})
	if agg := c.spans[exploreSpan]; agg != nil {
		if aa := agg.attrs["states"]; aa != nil {
			m.Model.States = int64(aa.max)
		}
		if aa := agg.attrs["transitions"]; aa != nil {
			m.Model.Transitions = int64(aa.max)
		}
	}
	if len(c.counters) > 0 {
		m.Counters = make(map[string]float64, len(c.counters))
		for _, k := range sortedKeys(c.counters) {
			m.Counters[k] = c.counters[k]
		}
	}
	if len(c.gauges) > 0 {
		m.Gauges = make(map[string]float64, len(c.gauges))
		for _, k := range sortedKeys(c.gauges) {
			m.Gauges[k] = c.gauges[k]
		}
	}
	for _, name := range sortedKeys(c.hists) {
		if _, isSpan := c.spans[name]; isSpan {
			continue // span latencies are reported on their PhaseStat
		}
		s := c.hists[name].Snapshot()
		if m.Histograms == nil {
			m.Histograms = make(map[string]HistogramStat)
		}
		m.Histograms[name] = HistogramStat{
			Count: s.Count, Sum: s.Sum, P50: s.P50(), P90: s.P90(), P99: s.P99(),
		}
	}
	return m
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteJSON serialises the manifest with stable indentation.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
