package obs

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// promCollector builds a collector with one counter, one gauge, one span
// histogram and one observed histogram, via the same Emit path production
// uses.
func promCollector(t *testing.T) *Collector {
	t.Helper()
	col := NewCollector()
	tr := NewTracer(col, false)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		_, sp := tr.StartSpan(ctx, "ctmc.steadystate.solve")
		sp.End()
	}
	sctx, root := tr.StartSpan(ctx, "service.job")
	Count(sctx, "service.cache.result.hit", 3)
	Count(sctx, "service.cache.result.miss", 2)
	Count(sctx, "service.cache.result.evict", 4)
	Count(sctx, "service.cache.model.hit", 5)
	Count(sctx, "service.cache.model.miss", 1)
	Count(sctx, "service.cache.model.evict", 2)
	Gauge(sctx, "service.queue.depth", 2)
	ObserveDuration(sctx, "service.queue.wait", 250*time.Microsecond)
	root.End()
	return col
}

func TestWritePrometheusFormat(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, promCollector(t), "secserved", nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE secserved_service_cache_result_hit_total counter\n",
		"secserved_service_cache_result_hit_total 3\n",
		"secserved_service_cache_result_miss_total 2\n",
		"# TYPE secserved_service_cache_result_evict_total counter\n",
		"secserved_service_cache_result_evict_total 4\n",
		"secserved_service_cache_model_hit_total 5\n",
		"secserved_service_cache_model_miss_total 1\n",
		"secserved_service_cache_model_evict_total 2\n",
		"# TYPE secserved_service_queue_depth gauge\n",
		"secserved_service_queue_depth 2\n",
		"# TYPE secserved_stage_duration_seconds histogram\n",
		`secserved_stage_duration_seconds_bucket{stage="ctmc.steadystate.solve",le="+Inf"} 4`,
		`secserved_stage_duration_seconds_count{stage="ctmc.steadystate.solve"} 4`,
		`secserved_stage_duration_seconds_bucket{stage="service.queue.wait",le=`,
		`secserved_stage_duration_seconds_sum{stage="service.queue.wait"} 0.00025`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Bucket series must be cumulative and end at the total count on +Inf.
	var last string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `secserved_stage_duration_seconds_bucket{stage="service.job"`) {
			last = line
		}
	}
	if !strings.HasSuffix(last, " 1") || !strings.Contains(last, `le="+Inf"`) {
		t.Errorf("last service.job bucket not cumulative +Inf: %q", last)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	col := promCollector(t)
	var a, b strings.Builder
	if err := WritePrometheus(&a, col, "secserved", nil); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, col, "secserved", nil); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("exposition not byte-stable across renders")
	}
}

// TestPromWriter pins the one family writer's syntax: HELP only when given,
// integers in plain decimal, floats in shortest form, labels escaped.
func TestPromWriter(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Family("x_total", "counter", "Things counted.")
	p.Int("x_total", 1234567)
	p.Family("y", "gauge", "")
	p.Float("y", 1234567)
	p.Int("z", 2, "peer", `n"1`, "le", "+Inf")
	want := "# HELP x_total Things counted.\n# TYPE x_total counter\nx_total 1234567\n" +
		"# TYPE y gauge\ny 1.234567e+06\n" +
		`z{peer="n\"1",le="+Inf"} 2` + "\n"
	if got := b.String(); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestPromNameSanitisation(t *testing.T) {
	cases := map[string]string{
		"service.cache.result.hit": "service_cache_result_hit",
		"ctmc-solve/iters":         "ctmc_solve_iters",
		"9lives":                   "_9lives",
		"ok_name:sub":              "ok_name:sub",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromLabelValueEscaping(t *testing.T) {
	cases := map[string]string{
		"service.job": "service.job",
		"a\tb":        "a\tb",
		"caf\xe9":     "caf\uFFFD",
		`q"b\s`:       `q\"b\\s`,
		"line\nbreak": `line\nbreak`,
	}
	for in, want := range cases {
		if got := PromLabelValue(in); got != want {
			t.Errorf("PromLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMetricsHandlerContentType pins the JSON manifest endpoint's header —
// the Prometheus endpoint serves text, this one must stay application/json.
func TestMetricsHandlerContentType(t *testing.T) {
	h := MetricsHandler(NewCollector(), "secserved")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/metrics/pipeline", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	if !strings.Contains(rr.Body.String(), `"tool": "secserved"`) {
		t.Fatalf("manifest body wrong:\n%s", rr.Body.String())
	}
}
