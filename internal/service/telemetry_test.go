package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/obs"
)

// TestPrometheusEndpoint runs one real job and scrapes GET /metrics: the
// page must be the text exposition format and carry cumulative bucket
// series for the solve-path stages.
func TestPrometheusEndpoint(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx := context.Background()
	client := NewClient(ts.URL)
	if _, err := client.Analyze(ctx, &AnalysisRequest{
		Architecture: "builtin:1", Category: "c", Protection: "unencrypted",
		SkipSteadyState: true, WaitSeconds: 30,
	}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, want := range []string{
		"# TYPE secserved_jobs_accepted_total counter",
		"secserved_jobs_accepted_total 1",
		"# TYPE secserved_stage_duration_seconds histogram",
		`secserved_stage_duration_seconds_bucket{stage="service.job",le="+Inf"} 1`,
		`secserved_stage_duration_seconds_bucket{stage="ctmc.cumulative_reward",le=`,
		`secserved_stage_duration_seconds_count{stage="service.queue.wait"} 1`,
		"secserved_engine_result_cache_misses_total 1",
		"secserved_engine_result_cache_evictions_total 0",
		"secserved_engine_model_cache_evictions_total 0",
		"secserved_engine_model_cache_misses_total 1",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The engine families count these lookups; the collector's events for
	// them are not rendered a second time.
	for _, dup := range []string{"secserved_service_cache_result_miss_total", "secserved_service_cache_model_miss_total"} {
		if strings.Contains(page, dup) {
			t.Errorf("exposition renders the engine's cache misses again as %s", dup)
		}
	}
	if t.Failed() {
		t.Logf("page:\n%s", page)
	}
}

// TestPrometheusLabelValuesFromHostileTenants submits under tenant names
// holding a tab and a non-UTF-8 byte, then scrapes GET /metrics: every
// quoted label value must be valid UTF-8 and use only the three escapes
// text format 0.0.4 allows (\\, \" and \n), or the whole page fails to
// scrape.
func TestPrometheusLabelValuesFromHostileTenants(t *testing.T) {
	srv := New(Config{Workers: 1, Tenants: &TenantPolicy{}})
	stubEngine(srv.engine, func(ctx context.Context) (*Outcome, error) { return stubOutcome(), nil })
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tenant := range []string{"a\tb", "caf\xe9"} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyses",
			strings.NewReader(`{"architecture":"builtin:1","skip_steady_state":true,"wait_seconds":5}`))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant %q submit: status %d", tenant, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, want := range []string{
		"secserved_tenant_admitted_total{tenant=\"a\tb\"} 1",
		"secserved_tenant_admitted_total{tenant=\"caf\uFFFD\"} 1",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q", want)
		}
	}
	for _, line := range strings.Split(page, "\n") {
		open := strings.IndexByte(line, '{')
		if strings.HasPrefix(line, "#") || open < 0 {
			continue
		}
		// Walk the label set: name="value" pairs up to the closing brace.
		rest := line[open+1:]
		for rest != "" && rest[0] != '}' {
			eq := strings.Index(rest, "=\"")
			if eq < 0 {
				t.Fatalf("malformed label set in %q", line)
			}
			var value strings.Builder
			i := eq + 2
			for ; i < len(rest) && rest[i] != '"'; i++ {
				if rest[i] == '\\' {
					i++
					if i == len(rest) || !strings.ContainsRune(`\"n`, rune(rest[i])) {
						t.Fatalf("label value escape outside \\\\, \\\" and \\n in %q", line)
					}
				}
				value.WriteByte(rest[i])
			}
			if i == len(rest) {
				t.Fatalf("unterminated label value in %q", line)
			}
			if !utf8.ValidString(value.String()) {
				t.Fatalf("label value %q is not valid UTF-8 in %q", value.String(), line)
			}
			rest = strings.TrimPrefix(rest[i+1:], ",")
		}
	}
	if t.Failed() {
		t.Logf("page:\n%s", page)
	}
}

// TestJSONMetricsContentType pins the JSON endpoints' Content-Type next to
// the text-format Prometheus endpoint.
func TestJSONMetricsContentType(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/v1/metrics", "/v1/metrics/pipeline", "/v1/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		ct := resp.Header.Get("Content-Type")
		resp.Body.Close()
		if ct != "application/json" {
			t.Errorf("%s Content-Type = %q, want application/json", path, ct)
		}
	}
}

// TestTraceStitching is the cross-process half of the trace story: a traced
// client submits a job, and the server-side job manifest must carry the
// client tracer's trace ID.
func TestTraceStitching(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stubEngine(srv.Engine(), func(ctx context.Context) (*Outcome, error) {
		return &Outcome{Property: &PropertyResult{Value: 1}}, nil
	})

	sink := &countingSink{}
	tracer := obs.NewTracer(sink, false)
	ctx, root := tracer.StartSpan(context.Background(), "client.batch")
	client := NewClient(ts.URL)
	view, err := client.Analyze(ctx, &AnalysisRequest{Architecture: "builtin:1", WaitSeconds: 30})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := client.Manifest(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	var m struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.TraceID != tracer.TraceID() {
		t.Fatalf("job manifest trace_id = %q, want client trace %q", m.TraceID, tracer.TraceID())
	}
}

// TestUntracedClientManifestHasNoTraceID: no traceparent header, no stitched
// trace ID — the manifest field stays empty rather than inventing one.
func TestUntracedClientManifestHasNoTraceID(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	stubEngine(srv.Engine(), func(ctx context.Context) (*Outcome, error) {
		return &Outcome{Property: &PropertyResult{Value: 1}}, nil
	})
	job, err := srv.Submit(&AnalysisRequest{Architecture: "builtin:1"})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if m := job.Manifest(); m == nil || m.TraceID != "" {
		t.Fatalf("untraced job manifest trace ID = %+v", m)
	}
}

type countingSink struct{}

func (countingSink) Emit(*obs.Event) {}

// TestClientErrorSurfacesRetryAfterAndJobID pins the two error strings
// operators actually read: a queue-full rejection must name the server's
// Retry-After hint, and a failed job's error must carry the job ID.
func TestClientErrorSurfacesRetryAfterAndJobID(t *testing.T) {
	// A handler that always rejects with 503 + Retry-After, standing in for
	// a saturated server.
	reject := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(errorBody{Error: ErrQueueFull.Error()})
	}))
	defer reject.Close()

	client := NewClient(reject.URL)
	client.MaxRetries = -1
	_, err := client.Submit(context.Background(), &AnalysisRequest{Architecture: "builtin:1"})
	if err == nil {
		t.Fatal("queue-full submission succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "retry after 7s") || !strings.Contains(msg, "503") {
		t.Fatalf("queue-full error hides the Retry-After hint: %q", msg)
	}

	// A real server whose engine always fails: Analyze's error must include
	// the job ID so the operator can fetch the job and its manifest.
	srv := New(Config{Workers: 1, MaxAttempts: 1})
	defer srv.Close()
	stubEngine(srv.Engine(), func(ctx context.Context) (*Outcome, error) {
		return nil, &PanicError{Value: "boom", Stack: "stack"}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	view, err := NewClient(ts.URL).Analyze(context.Background(), &AnalysisRequest{Architecture: "builtin:1", WaitSeconds: 30})
	if err == nil {
		t.Fatal("failed job returned no error")
	}
	if view == nil || view.ID == "" || !strings.Contains(err.Error(), view.ID) {
		t.Fatalf("job failure error hides the job ID: %v (view %+v)", err, view)
	}
}

// TestPprofGating: the profiling endpoints exist only when EnablePprof is
// set.
func TestPprofGating(t *testing.T) {
	off := New(Config{Workers: 1})
	defer off.Close()
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	resp, err := http.Get(tsOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without EnablePprof: %d", resp.StatusCode)
	}

	on := New(Config{Workers: 1, EnablePprof: true})
	defer on.Close()
	tsOn := httptest.NewServer(on.Handler())
	defer tsOn.Close()
	resp, err = http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index not served: %d\n%s", resp.StatusCode, body)
	}
}
