// Command bench is the repository's end-to-end benchmark. One invocation
// runs one workload for a fixed time, checks every output, and prints the
// metrics by name with their units; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	bench -workload fig5-grid -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With -trace 1 the run alternates untraced and traced ops on the same
// inputs and reports the per-layer breakdown instead; the traced run's spans
// are written as JSONL under -out when it ends.
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	fig5-grid      the paper's whole Figure 5 per op, library, one caller
//	synthetic-20k  one 19,683-state availability analysis per op, library
//	service-mix    a seeded hit/miss request mix against a secserved child
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is the parsed command line.
type config struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	secserved string
	out       string
}

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, so one slow start does not move it.
const setupRepeats = 3

func main() {
	os.Exit(run(time.Now(), os.Args[1:], os.Stdout))
}

func run(procStart time.Time, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "fig5-grid, synthetic-20k or service-mix")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&seconds, "seconds", 20, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.secserved, "secserved", "", "secserved binary (service-mix)")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for span files and the service store")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var rep *report
	var err error
	switch cfg.workload {
	case "fig5-grid":
		rep, err = runLibrary(ctx, cfg, fig5Workload(cfg.seed), procStart)
	case "synthetic-20k":
		rep, err = runLibrary(ctx, cfg, syntheticWorkload(cfg.seed), procStart)
	case "service-mix":
		rep, err = runService(ctx, cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep.meta["workload"] = cfg.workload
	rep.meta["seed"] = cfg.seed
	rep.meta["seconds"] = cfg.seconds.Seconds()
	rep.meta["trace"] = cfg.trace
	for k, v := range runMeta() {
		rep.meta[k] = v
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	if err := rep.write(stdout, names); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the per-layer metrics printed with -trace 1. A workload that
// does not exercise a layer reports it as 0 with no samples.
var perLayer = []metricDef{
	{"transform.build_ms", "ms"},
	{"transform.build_allocs", "count"},
	{"modular.explore_ms", "ms"},
	{"modular.explore_allocs", "count"},
	{"modular.allocs_per_state", "count"},
	{"modular.states", "count"},
	{"modular.transitions", "count"},
	{"ctmc.reward_ms", "ms"},
	{"ctmc.reward_allocs", "count"},
	{"ctmc.reward_matvecs", "count"},
	{"ctmc.reward_ns_per_nnz", "ns"},
	{"ctmc.reward_bytes_per_matvec", "bytes"},
	{"ctmc.steady_ms", "ms"},
	{"ctmc.steady_allocs", "count"},
	{"ctmc.steady_iterations", "count"},
	{"core.self_ms", "ms"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"service.rtt_hit_ms", "ms"},
	{"service.http_overhead_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.exec_resolve_ms", "ms"},
	{"service.exec_model_hit_ms", "ms"},
	{"service.exec_full_ms", "ms"},
	{"engine.result_hit_ratio", "ratio"},
	{"engine.model_hit_ratio", "ratio"},
	{"engine.shared", "count"},
	{"store.puts", "count"},
	{"store.bytes_per_put", "bytes"},
	{"server.cpu_ms_per_op", "ms"},
	{"loadgen.cpu_ms_per_op", "ms"},
	{"service.latency_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.self_coverage_pct", "%"},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	value   float64
	samples int
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int
	problems          []string // verification failures; any makes correct false
	metrics           map[string]metric
	meta              map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, meta: map[string]any{}}
}

func (r *report) set(name string, v float64, samples int) {
	r.metrics[name] = metric{v, samples}
}

// problem records a verification failure, keeping the first few messages.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// write prints a table of the named metrics, the run metadata, and the
// result object as the last line.
func (r *report) write(w io.Writer, names []metricDef) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   len(r.problems) == 0 && r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	var b strings.Builder
	for _, d := range names {
		m := r.metrics[d.name]
		out.Metrics[d.name] = jsonMetric{m.value, d.unit}
		note := fmt.Sprintf("n=%d", m.samples)
		if m.samples == 0 {
			note = "n/a on this workload"
		}
		fmt.Fprintf(&b, "%-30s %14.6g %-6s %s\n", d.name, m.value, d.unit, note)
	}
	for _, p := range r.problems {
		fmt.Fprintf(&b, "MISMATCH %s\n", p)
	}
	meta, err := json.Marshal(r.meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "meta %s\n", meta)
	res, err := json.Marshal(out)
	if err != nil {
		return err
	}
	b.Write(res)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// runMeta records what a reader needs to compare two runs: the code
// revision, toolchain, processor count and GOMAXPROCS.
func runMeta() map[string]any {
	m := map[string]any{
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"git_sha":    "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m["git_sha"] = s.Value
			case "vcs.modified":
				m["git_modified"] = s.Value == "true"
			}
		}
	}
	return m
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rateSlices is how many equal slices of the window ops_per_s is taken
// over.
const rateSlices = 10

// interval is an op's start and end, as offsets from the window start.
type interval struct{ start, end time.Duration }

// sliceRate returns the median over rateSlices equal slices of the window
// of the ops completed per second in each slice, an op that spans slices
// counting in each by the share of its duration spent there. Unlike the
// window's mean rate, it is not moved by a stall, such as a burst of CPU
// steal, confined to a few slices.
func sliceRate(ops []interval, window time.Duration) float64 {
	slice := window / rateSlices
	if slice <= 0 {
		return 0
	}
	done := make([]float64, rateSlices)
	for _, op := range ops {
		d := op.end - op.start
		for j := range done {
			lo, hi := time.Duration(j)*slice, time.Duration(j+1)*slice
			if j == rateSlices-1 {
				hi = window
			}
			if overlap := min(op.end, hi) - max(op.start, lo); overlap > 0 && d > 0 {
				done[j] += float64(overlap) / float64(d)
			}
		}
	}
	rates := make([]float64, rateSlices)
	for j, n := range done {
		rates[j] = n / slice.Seconds()
	}
	return median(rates)
}
