package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// PromContentType is the Prometheus text exposition format version this
// package renders.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the collector's aggregate state in the Prometheus
// text exposition format, dependency-free: counters as `<ns>_<name>_total`,
// gauges as `<ns>_<name>`, and every latency histogram (span durations and
// explicit observations alike) as one `<ns>_stage_duration_seconds` family
// labelled by stage, with cumulative `_bucket` series, `_sum` and `_count`.
// Output is byte-stable for a given collector state: names are emitted in
// sorted order.
func WritePrometheus(w io.Writer, c *Collector, namespace string) error {
	if namespace == "" {
		namespace = "obs"
	}
	ns := promName(namespace)

	c.mu.Lock()
	counters := make(map[string]float64, len(c.counters))
	for k, v := range c.counters {
		counters[k] = v
	}
	gauges := make(map[string]float64, len(c.gauges))
	for k, v := range c.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(c.hists))
	for k, h := range c.hists {
		hists[k] = h
	}
	c.mu.Unlock()

	for _, k := range sortedKeys(counters) {
		name := ns + "_" + promName(k) + "_total"
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", name, name, promFloat(counters[k])); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(gauges) {
		name := ns + "_" + promName(k)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(gauges[k])); err != nil {
			return err
		}
	}
	if len(hists) == 0 {
		return nil
	}
	family := ns + "_stage_duration_seconds"
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", family); err != nil {
		return err
	}
	for _, stage := range sortedKeys(hists) {
		s := hists[stage].Snapshot()
		label := PromLabelValue(stage)
		var cum uint64
		for i, n := range s.Counts {
			cum += n
			// Empty leading buckets are elided to keep the page small, but
			// every bucket from the first observation up is cumulative per
			// the exposition format.
			if cum == 0 && i < len(s.Counts)-1 {
				continue
			}
			le := "+Inf"
			if b := HistogramBucketBound(i); !math.IsInf(b, 1) {
				le = promFloat(b)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{stage=\"%s\",le=\"%s\"} %d\n", family, label, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum{stage=\"%s\"} %s\n%s_count{stage=\"%s\"} %d\n",
			family, label, promFloat(s.Sum), family, label, s.Count); err != nil {
			return err
		}
	}
	return nil
}

// promName maps an internal dotted metric name onto the Prometheus
// identifier charset [a-zA-Z0-9_:].
func promName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabelEscaper escapes the three characters the text exposition format
// requires escaped inside a quoted label value.
var promLabelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// PromLabelValue renders s as the body of a quoted label value in text
// format 0.0.4: invalid UTF-8 becomes U+FFFD, then backslash, double quote
// and line feed are escaped. Every other character (a tab included) is
// written as is. Go's %q is no substitute: the format rejects its \t and
// \x escapes, and one bad value fails the whole scrape.
func PromLabelValue(s string) string {
	return promLabelEscaper.Replace(strings.ToValidUTF8(s, "\uFFFD"))
}

// promFloat renders a float the way Prometheus expects (shortest exact
// form; integral values without exponent where possible).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PromHandler serves the collector in Prometheus text format at GET (and
// HEAD) — the standard `/metrics` scrape endpoint.
func PromHandler(c *Collector, namespace string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", PromContentType)
		if r.Method == http.MethodHead {
			return
		}
		_ = WritePrometheus(w, c, namespace)
	})
}
