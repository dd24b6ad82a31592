package obs

import (
	"io"
	"maps"
	"math"
	"strconv"
	"strings"
)

// PromContentType is the Prometheus text exposition format version this
// package renders.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter writes metric families in the Prometheus text exposition
// format. It is the one place exposition syntax is produced: HELP and TYPE
// lines, label escaping and number formatting. The first write error sticks
// and later writes are skipped.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a writer rendering onto w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Family opens a metric family: a # HELP line when help is non-empty, then
// the # TYPE line (typ is "counter", "gauge" or "histogram").
func (p *PromWriter) Family(name, typ, help string) {
	if help != "" {
		p.write("# HELP " + name + " " + help + "\n")
	}
	p.write("# TYPE " + name + " " + typ + "\n")
}

// Int writes one sample with an integer value. labels alternate label names
// and raw values; values are escaped here.
func (p *PromWriter) Int(name string, v int64, labels ...string) {
	p.sample(name, strconv.FormatInt(v, 10), labels)
}

// Float writes one sample with a float value in its shortest exact form
// (1e+06 rather than 1000000).
func (p *PromWriter) Float(name string, v float64, labels ...string) {
	p.sample(name, promFloat(v), labels)
}

func (p *PromWriter) sample(name, value string, labels []string) {
	var b strings.Builder
	b.WriteString(name)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		b.WriteByte(sep)
		b.WriteString(labels[i] + `="` + PromLabelValue(labels[i+1]) + `"`)
	}
	if len(labels) > 0 {
		b.WriteByte('}')
	}
	b.WriteString(" " + value + "\n")
	p.write(b.String())
}

func (p *PromWriter) write(s string) {
	if p.err == nil {
		_, p.err = io.WriteString(p.w, s)
	}
}

// WritePrometheus renders the collector's aggregate state in the Prometheus
// text exposition format, dependency-free: counters as `<ns>_<name>_total`,
// gauges as `<ns>_<name>`, and every latency histogram (span durations and
// explicit observations alike) as one `<ns>_stage_duration_seconds` family
// labelled by stage, with cumulative `_bucket` series, `_sum` and `_count`.
// Output is byte-stable for a given collector state: names are emitted in
// sorted order. skip, when non-nil, reports the counters the caller has
// already rendered under families of its own; they are left out so each
// count appears once.
func WritePrometheus(w io.Writer, c *Collector, namespace string, skip func(counter string) bool) error {
	if namespace == "" {
		namespace = "obs"
	}
	ns := promName(namespace)

	c.mu.Lock()
	counters, gauges := maps.Clone(c.counters), maps.Clone(c.gauges)
	c.mu.Unlock()
	hists := c.Histograms()

	p := NewPromWriter(w)
	for _, k := range sortedKeys(counters) {
		if skip != nil && skip(k) {
			continue
		}
		name := ns + "_" + promName(k) + "_total"
		p.Family(name, "counter", "")
		p.Float(name, counters[k])
	}
	for _, k := range sortedKeys(gauges) {
		name := ns + "_" + promName(k)
		p.Family(name, "gauge", "")
		p.Float(name, gauges[k])
	}
	if len(hists) == 0 {
		return p.err
	}
	family := ns + "_stage_duration_seconds"
	p.Family(family, "histogram", "")
	for _, stage := range sortedKeys(hists) {
		s := hists[stage]
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
			p.Int(family+"_bucket", int64(cum), "stage", stage, "le", le)
		}
		p.Float(family+"_sum", s.Sum, "stage", stage)
		p.Int(family+"_count", int64(s.Count), "stage", stage)
	}
	return p.err
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
