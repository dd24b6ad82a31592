package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only when PprofAddr is set
	"os"
	"time"
)

// RunOptions configures StartRun, mapping 1:1 onto the CLI flags -trace,
// -progress and -pprof.
type RunOptions struct {
	// TraceFile, when non-empty, receives the JSON-lines event stream.
	TraceFile string
	// Progress enables throttled status lines on ProgressWriter.
	Progress bool
	// ProgressWriter defaults to os.Stderr.
	ProgressWriter io.Writer
	// ProgressInterval throttles status lines (0 = 500ms).
	ProgressInterval time.Duration
	// PprofAddr, when non-empty, serves net/http/pprof on that address.
	PprofAddr string
	// CaptureAllocs adds per-span heap-allocation deltas (slightly more
	// expensive per span; only meaningful with a live sink).
	CaptureAllocs bool
	// Collect installs the aggregating collector even when no trace or
	// progress sink is requested, so manifest-only runs still record phase
	// timings and model size.
	Collect bool
	// FlightSize, when positive, keeps a black-box ring of the last N events
	// (see Flight) and dumps it into the run manifest. The ring is a sink of
	// the default tracer, so solver attempts reach it like every other event.
	FlightSize int
}

// Run is a live observability session: it owns the trace file, the
// aggregating collector behind the run manifest, and the default-tracer
// registration.
type Run struct {
	Collector *Collector
	Flight    *Flight
	trace     *os.File
	traceSink *JSONLSink
	sinks     MultiSink
	tracer    *Tracer
	active    bool
}

// StartRun wires the requested sinks, installs them as the process default
// tracer and returns the session. With all options off it returns an inert
// Run (Close and Manifest still work) and leaves observability disabled.
func StartRun(opts RunOptions) (*Run, error) {
	r := &Run{Collector: NewCollector()}
	var sinks MultiSink
	sinks = append(sinks, r.Collector)
	enabled := false
	if opts.TraceFile != "" {
		f, err := os.Create(opts.TraceFile)
		if err != nil {
			return nil, fmt.Errorf("obs: trace file: %w", err)
		}
		r.trace = f
		r.traceSink = NewJSONLSink(f)
		sinks = append(sinks, r.traceSink)
		enabled = true
	}
	if opts.Progress {
		w := opts.ProgressWriter
		if w == nil {
			w = os.Stderr
		}
		sinks = append(sinks, NewProgressPrinter(w, opts.ProgressInterval))
		enabled = true
	}
	if opts.Collect {
		enabled = true
	}
	if opts.FlightSize > 0 {
		r.Flight = NewFlight(opts.FlightSize)
		sinks = append(sinks, r.Flight)
		enabled = true
	}
	if opts.PprofAddr != "" {
		go func() {
			// Errors (port in use) surface on stderr; profiling is auxiliary
			// and must never fail the analysis.
			if err := http.ListenAndServe(opts.PprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "obs: pprof server:", err)
			}
		}()
	}
	if !enabled {
		// Nothing observes the stream: leave the global tracer nil so the
		// hot path stays on the allocation-free fast path.
		return r, nil
	}
	r.active = true
	r.sinks = sinks
	r.tracer = NewTracer(sinks, opts.CaptureAllocs)
	SetDefault(r.tracer)
	return r, nil
}

// Sink returns the sink stack the run installed as the default tracer, or
// nil when the run is inert. Servers that own their tracer (per-request and
// per-job spans) use it to tee their events into the run's trace and
// progress sinks.
func (r *Run) Sink() Sink {
	if !r.active {
		return nil
	}
	return r.sinks
}

// Manifest snapshots the collector (see Collector.Manifest), stamping the
// run tracer's trace ID so the offline manifest correlates with any server
// side manifests the run's requests produced.
func (r *Run) Manifest(tool string, args []string) *Manifest {
	m := r.Collector.Manifest(tool, args)
	m.TraceID = r.tracer.TraceID()
	if r.Flight != nil {
		m.Flight = r.Flight.Snapshot()
		m.FlightDropped = r.Flight.Dropped()
	}
	return m
}

// EmitManifest appends the manifest as a final {"kind":"manifest",...}
// JSON line to the trace stream (if tracing) so a single .jsonl file is
// self-contained.
func (r *Run) EmitManifest(m *Manifest) error {
	if r.trace == nil {
		return nil
	}
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(r.trace, "{\"kind\":\"manifest\",\"manifest\":%s}\n", body)
	return err
}

// Close uninstalls the default tracer and closes the trace file.
func (r *Run) Close() error {
	if r.active {
		SetDefault(nil)
		r.active = false
	}
	if r.trace != nil {
		err := r.trace.Close()
		r.trace = nil
		return err
	}
	return nil
}

// CLI bundles the observability options every cmd/ binary exposes: -trace,
// -progress, -pprof, -trace-allocs, -manifest and -flight.
type CLI struct {
	RunOptions
	// ManifestFile, when non-empty, receives the run manifest as indented
	// JSON at Finish.
	ManifestFile string
}

// Bind registers the observability flags on fs, populating c at parse time.
func (c *CLI) Bind(fs *flag.FlagSet) {
	fs.StringVar(&c.TraceFile, "trace", "", "write a JSON-lines trace (spans, solver metrics, progress) to this file")
	fs.BoolVar(&c.Progress, "progress", false, "print throttled progress lines to stderr")
	fs.StringVar(&c.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.BoolVar(&c.CaptureAllocs, "trace-allocs", false, "record per-span heap-allocation deltas in the trace")
	fs.StringVar(&c.ManifestFile, "manifest", "", "write the run manifest (inputs, model size, per-phase timings) as JSON to this file")
	fs.IntVar(&c.FlightSize, "flight", 0, "keep a black-box ring of the last N observability events and dump it into the manifest (0 = off)")
}

// Start opens the observability session described by the parsed flags.
func (c *CLI) Start() (*Run, error) {
	opts := c.RunOptions
	opts.Collect = opts.Collect || c.ManifestFile != ""
	return StartRun(opts)
}

// Finish writes the run manifest — appended to the trace stream and, when
// -manifest was given, as a standalone JSON file — and closes the session.
// It is safe to call on an inert session and on error paths (a partial
// manifest still documents what ran).
func (c *CLI) Finish(r *Run, tool string, args []string) error {
	m := r.Manifest(tool, args)
	if err := r.EmitManifest(m); err != nil {
		return fmt.Errorf("obs: manifest trace line: %w", err)
	}
	if c.ManifestFile != "" {
		f, err := os.Create(c.ManifestFile)
		if err != nil {
			return fmt.Errorf("obs: manifest file: %w", err)
		}
		werr := m.WriteJSON(f)
		cerr := f.Close()
		if werr != nil {
			return fmt.Errorf("obs: manifest file: %w", werr)
		}
		if cerr != nil {
			return fmt.Errorf("obs: manifest file: %w", cerr)
		}
	}
	return r.Close()
}
