package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// enableFaults installs a fault injector for the test and removes it on
// cleanup, keeping the global injector from leaking across tests.
func enableFaults(t *testing.T, spec string) {
	t.Helper()
	inj, err := fault.Parse(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(inj)
	t.Cleanup(fault.Disable)
}

// manifestAttempts fetches a job's manifest over HTTP and returns its
// recorded attempt history.
func manifestAttempts(t *testing.T, cl *Client, id string) []obs.Attempt {
	t.Helper()
	raw, err := cl.Manifest(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Attempts []obs.Attempt `json:"attempts"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m.Attempts
}

// TestChaosWorkerPanicRetries injects two consecutive solve-path panics and
// checks the daemon survives: the job is retried within its attempt budget,
// succeeds on the third execution, and the manifest records every panic with
// its stack.
func TestChaosWorkerPanicRetries(t *testing.T) {
	enableFaults(t, "worker.panic:n=2")
	srv := New(Config{
		Workers:        1,
		MaxAttempts:    3,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl := NewClient(ts.URL)
	ctx := context.Background()
	view, err := cl.Analyze(ctx, &AnalysisRequest{
		Architecture: "builtin:1",
		Property:     `P=? [ F<=1 "violated" ]`,
		WaitSeconds:  30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusDone {
		t.Fatalf("job status = %s (error %q), want done after retries", view.Status, view.Error)
	}
	if view.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two panics + one success)", view.Attempts)
	}
	if view.Property == nil {
		t.Fatal("retried job returned no property result")
	}

	attempts := manifestAttempts(t, cl, view.ID)
	panics, ok := 0, 0
	for _, a := range attempts {
		if a.Stage != "job" {
			continue
		}
		switch a.Outcome {
		case obs.AttemptPanic:
			panics++
			if a.Stack == "" {
				t.Error("panic attempt recorded without a stack")
			}
		case obs.AttemptOK:
			ok++
		}
	}
	if panics != 2 || ok != 1 {
		t.Fatalf("manifest job attempts: %d panics and %d ok, want 2 and 1\n%+v", panics, ok, attempts)
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsRetried != 2 || m.PanicsRecovered != 2 {
		t.Fatalf("metrics retried=%d panics=%d, want 2 and 2", m.JobsRetried, m.PanicsRecovered)
	}
	if m.JobsCompleted != 1 || m.JobsFailed != 0 {
		t.Fatalf("metrics completed=%d failed=%d, want 1 and 0", m.JobsCompleted, m.JobsFailed)
	}

	// The retried success reset the failure streak: the daemon reports ok.
	h, err := health(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.ConsecutiveFailures != 0 {
		t.Fatalf("health = %+v, want ok with no consecutive failures", h)
	}
	if h.PanicsRecovered != 2 {
		t.Fatalf("health panics recovered = %d, want 2", h.PanicsRecovered)
	}
}

// TestChaosSolverDivergenceFallsBack injects a solver divergence and checks
// the fallback chain absorbs it: the job succeeds on its first execution and
// the manifest shows the injected solver attempt followed by a successful
// one on the next method.
func TestChaosSolverDivergenceFallsBack(t *testing.T) {
	enableFaults(t, "solver.diverge:n=1")
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl := NewClient(ts.URL)
	view, err := cl.Analyze(context.Background(), &AnalysisRequest{
		Architecture: "builtin:1",
		Category:     "c",
		Protection:   "none",
		WaitSeconds:  30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusDone {
		t.Fatalf("job status = %s (error %q), want done via solver fallback", view.Status, view.Error)
	}
	if view.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (the fallback chain absorbs the divergence)", view.Attempts)
	}

	var injected, recovered bool
	for _, a := range manifestAttempts(t, cl, view.ID) {
		if a.Stage != "solver" {
			continue
		}
		switch a.Outcome {
		case obs.AttemptInjected:
			injected = true
		case obs.AttemptOK:
			if injected {
				recovered = true
			}
			if a.Method == "" {
				t.Error("solver attempt recorded without its method")
			}
		}
	}
	if !injected || !recovered {
		t.Fatalf("manifest solver attempts: injected=%t recovered=%t, want both", injected, recovered)
	}
}

// TestChaosSlowSolveHitsDeadline injects a solve far slower than the job
// timeout: the job is canceled (not retried — its own deadline expired) and
// the daemon keeps serving.
func TestChaosSlowSolveHitsDeadline(t *testing.T) {
	enableFaults(t, "solve.slow:d=10s")
	srv := New(Config{Workers: 1, JobTimeout: 100 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl := NewClient(ts.URL)
	ctx := context.Background()
	view, err := cl.Analyze(ctx, &AnalysisRequest{
		Architecture: "builtin:1",
		Property:     `P=? [ F<=1 "violated" ]`,
		WaitSeconds:  30,
	})
	if err == nil {
		t.Fatalf("slow solve finished as %s, want cancellation", view.Status)
	}
	var done *JobView
	if errors.As(err, new(*apiError)) {
		t.Fatalf("Analyze = %v, want a job-level failure, not an HTTP error", err)
	}
	// Analyze returns the view alongside the failure.
	if view == nil {
		t.Fatal("Analyze returned no view for the failed job")
	}
	if view.Status != StatusCanceled {
		t.Fatalf("job status = %s, want canceled at the deadline", view.Status)
	}
	if view.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (deadline errors are not retryable)", view.Attempts)
	}
	if view.ErrorKind != errKindTimeout {
		t.Fatalf("error kind = %q, want %q", view.ErrorKind, errKindTimeout)
	}

	// The worker survived: with faults cleared, the same daemon solves fine.
	fault.Disable()
	done, err = cl.Analyze(ctx, &AnalysisRequest{
		Architecture: "builtin:1",
		Property:     `P=? [ F<=1 "violated" ]`,
		WaitSeconds:  30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("post-chaos job status = %s, want done", done.Status)
	}
}

// TestBudgetExceededMaps422 submits a request whose state budget the model
// cannot fit and checks the synchronous HTTP path answers 422 with the
// budget_exceeded error kind — also for an attack tree whose model an
// unbudgeted request has already cached.
func TestBudgetExceededMaps422(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(req *AnalysisRequest) (int, JobView) {
		t.Helper()
		req.WaitSeconds = 30
		body, _ := json.Marshal(req)
		resp, err := ts.Client().Post(ts.URL+"/v1/analyses", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var view JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, view
	}
	tight := treeRequest()
	tight.MaxStates = 2
	for _, tc := range []struct {
		name      string
		warm, req *AnalysisRequest
	}{
		{"architecture", nil, &AnalysisRequest{Architecture: "builtin:1", SkipSteadyState: true, MaxStates: 5}},
		{"warm tree", treeRequest(), tight},
	} {
		if tc.warm != nil {
			if code, view := post(tc.warm); code != http.StatusOK {
				t.Fatalf("%s: warm-up status = %d (error %q)", tc.name, code, view.Error)
			}
		}
		code, view := post(tc.req)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status = %d, want 422", tc.name, code)
		}
		if view.Status != StatusFailed || view.ErrorKind != errKindBudget {
			t.Fatalf("%s: view status=%s kind=%q, want failed/budget_exceeded", tc.name, view.Status, view.ErrorKind)
		}
		if view.Attempts != 1 {
			t.Fatalf("%s: attempts = %d, want 1 (budget violations are deterministic)", tc.name, view.Attempts)
		}
	}
}

// TestQueueFullRetryAfter fills the queue and checks the overflow rejection
// is 503 with a Retry-After hint.
func TestQueueFullRetryAfter(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1, RetryAfterSeconds: 7})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	stubEngine(srv.Engine(), func(ctx context.Context) (*Outcome, error) {
		started <- struct{}{}
		<-release
		return &Outcome{}, nil
	})
	defer func() {
		close(release)
		srv.Close()
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func() *http.Response {
		t.Helper()
		body, _ := json.Marshal(&AnalysisRequest{Architecture: "builtin:1"})
		resp, err := ts.Client().Post(ts.URL+"/v1/analyses", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}
	<-started // worker busy; queue slot free again
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202", resp.StatusCode)
	}
	resp := post()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want %q", got, "7")
	}
}

// TestClientRetriesOnRetryAfter checks the client honours a 503 + Retry-After
// backpressure rejection by retrying the submission.
func TestClientRetriesOnRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, ErrQueueFull)
			return
		}
		writeJSON(w, http.StatusOK, &JobView{ID: "a1", Status: StatusDone})
	}))
	defer ts.Close()

	cl := NewClient(ts.URL)
	view, err := cl.Submit(context.Background(), &AnalysisRequest{Architecture: "builtin:1"})
	if err != nil {
		t.Fatalf("Submit with retryable rejection = %v, want success", err)
	}
	if view.Status != StatusDone || calls.Load() != 2 {
		t.Fatalf("status=%s calls=%d, want done after exactly one retry", view.Status, calls.Load())
	}

	// Without the hint the client must not retry: draining 503s are final.
	calls.Store(0)
	noHint := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
	}))
	defer noHint.Close()
	_, err = NewClient(noHint.URL).Submit(context.Background(), &AnalysisRequest{Architecture: "builtin:1"})
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("Submit = %v, want the 503 surfaced", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("client sent %d requests to a draining server, want 1", calls.Load())
	}
}

// TestHealthDegradesOnConsecutiveFailures drives the server into persistent
// failure and checks /v1/healthz flips to degraded (still HTTP 200) and
// recovers to ok on the next success.
func TestHealthDegradesOnConsecutiveFailures(t *testing.T) {
	srv := New(Config{Workers: 1, DegradedAfter: 2})
	defer srv.Close()
	var fail atomic.Bool
	fail.Store(true)
	stubEngine(srv.Engine(), func(ctx context.Context) (*Outcome, error) {
		if fail.Load() {
			return nil, fmt.Errorf("persistent backend failure")
		}
		return &Outcome{}, nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := context.Background()

	submit := func(req *AnalysisRequest) {
		t.Helper()
		view, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Wait(ctx, view.ID); err != nil {
			t.Fatal(err)
		}
	}
	// Distinct requests so the result cache does not absorb the failures.
	submit(&AnalysisRequest{Architecture: "builtin:1", WaitSeconds: 30})
	submit(&AnalysisRequest{Architecture: "builtin:2", WaitSeconds: 30})

	h, err := health(ctx, cl)
	if err != nil {
		t.Fatal(err) // degraded must stay HTTP 200
	}
	if h.Status != "degraded" || h.ConsecutiveFailures < 2 {
		t.Fatalf("health = %+v, want degraded after 2 consecutive failures", h)
	}

	fail.Store(false)
	submit(&AnalysisRequest{Architecture: "builtin:3", WaitSeconds: 30})
	if h, err = health(ctx, cl); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.ConsecutiveFailures != 0 {
		t.Fatalf("health = %+v, want ok after a success", h)
	}
}

// TestRetryDelayBounds pins the backoff envelope: capped at max, never below
// half the exponential target, jittered within it.
func TestRetryDelayBounds(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	for attempt := 1; attempt <= 10; attempt++ {
		target := base << (attempt - 1)
		if target > max || target <= 0 {
			target = max
		}
		for i := 0; i < 50; i++ {
			d := retryDelay(base, max, attempt)
			if d < target/2 || d >= target {
				t.Fatalf("attempt %d: delay %s outside [%s, %s)", attempt, d, target/2, target)
			}
		}
	}
}

// TestChaosSharedPanicCountedOnce: two identical concurrent submissions
// share one single-flight solve that trips worker.panic:n=1. Both jobs
// fail that attempt and retry, but there was one panic, so
// panics_recovered reads 1 on /v1/metrics, /v1/healthz and /metrics.
func TestChaosSharedPanicCountedOnce(t *testing.T) {
	inj, err := fault.Parse("worker.panic:n=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)
	srv := New(Config{
		Workers:        2,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
	})
	defer srv.Close()
	// The leader's solve arms the fault and reaches the panic point only
	// once the second job has joined its flight, so the two always share
	// the panic.
	joined := make(chan struct{}, 1)
	srv.engine.results.flight.joined = func(string) {
		select {
		case joined <- struct{}{}:
		default:
		}
	}
	var first sync.Once
	srv.engine.run = func(ctx context.Context, rr *resolvedRequest) (*Outcome, error) {
		first.Do(func() {
			<-joined
			fault.Enable(inj)
			fault.Crash(fault.PointWorkerPanic)
		})
		return srv.engine.analyze(ctx, rr)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var jobs []*Job
	for i := 0; i < 2; i++ {
		job, err := srv.Submit(&AnalysisRequest{Architecture: "builtin:1", Property: `P=? [ F<=1 "violated" ]`})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		<-job.Done()
		if v := job.View(); v.Status != StatusDone || v.Attempts != 2 {
			t.Fatalf("job %s: status=%s attempts=%d error=%q, want done after one retry", v.ID, v.Status, v.Attempts, v.Error)
		}
	}

	cl := NewClient(ts.URL)
	ctx := context.Background()
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.PanicsRecovered != 1 || m.JobsRetried != 2 {
		t.Fatalf("metrics panics=%d retried=%d, want 1 and 2", m.PanicsRecovered, m.JobsRetried)
	}
	h, err := health(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if h.PanicsRecovered != 1 {
		t.Fatalf("health panics recovered = %d, want 1", h.PanicsRecovered)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "\nsecserved_panics_recovered_total 1\n") {
		t.Fatalf("/metrics does not count the panic once:\n%s", page)
	}
}
