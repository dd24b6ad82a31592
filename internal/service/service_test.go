package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
)

// TestEndToEndMatchesPipeline boots the full HTTP stack against builtin:1
// and checks the grid it returns is numerically identical to driving the
// core pipeline directly (what secanalyze prints).
func TestEndToEndMatchesPipeline(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx := context.Background()
	client := NewClient(ts.URL)

	req := &AnalysisRequest{
		Architecture:    "builtin:1",
		SkipSteadyState: true,
		WaitSeconds:     30,
	}
	view, err := client.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusDone {
		t.Fatalf("job status = %s, want done", view.Status)
	}
	if view.Cache != CacheMiss {
		t.Fatalf("first request cache = %q, want miss", view.Cache)
	}

	an := core.Analyzer{SkipSteadyState: true}
	var want []*core.Result
	for _, cat := range core.Categories {
		for _, prot := range core.Protections {
			r, err := an.AnalyzeContext(ctx, arch.Architecture1(), arch.MessageM, cat, prot)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
	}
	if len(view.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(view.Results), len(want))
	}
	for i, w := range want {
		g := view.Results[i]
		if g.Category != w.Category.String() || g.Protection != w.Protection.String() {
			t.Fatalf("result %d is %s/%s, want %s/%s", i, g.Category, g.Protection, w.Category, w.Protection)
		}
		if math.Abs(g.ExploitableTime-w.TimeFraction) > 1e-12 {
			t.Errorf("%s/%s: exploitable time %.12g != pipeline %.12g",
				g.Category, g.Protection, g.ExploitableTime, w.TimeFraction)
		}
		if g.States != w.States {
			t.Errorf("%s/%s: states %d != pipeline %d", g.Category, g.Protection, g.States, w.States)
		}
	}

	// The identical request again must be served from the result cache.
	view2, err := client.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if view2.Cache != CacheHit {
		t.Fatalf("repeat request cache = %q, want hit", view2.Cache)
	}
	if math.Abs(view2.Results[0].ExploitableTime-view.Results[0].ExploitableTime) > 0 {
		t.Fatal("cached outcome differs from the original")
	}

	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine.Hits < 1 || m.Engine.Solves < 1 {
		t.Fatalf("metrics engine = %+v, want ≥1 solve and ≥1 hit", m.Engine)
	}
	if m.Engine.Hits != m.Engine.ResultCache.Hits {
		t.Fatalf("engine hits = %d, result cache hits = %d, want equal", m.Engine.Hits, m.Engine.ResultCache.Hits)
	}
	if m.JobsCompleted < 2 {
		t.Fatalf("jobs completed = %d, want ≥2", m.JobsCompleted)
	}

	h, err := health(ctx, client)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health = %q, want ok", h.Status)
	}

	// The per-job manifest records the job span and the pipeline phases.
	raw, err := client.Manifest(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "service.job") {
		t.Fatalf("manifest missing service.job span:\n%s", raw)
	}
}

// TestEndToEndPropertyCheck submits a CSL property instead of a grid.
func TestEndToEndPropertyCheck(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := NewClient(ts.URL)
	view, err := client.Analyze(context.Background(), &AnalysisRequest{
		Architecture: "builtin:1",
		Property:     `P=? [ F<=1 "violated" ]`,
		WaitSeconds:  30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if view.Property == nil {
		t.Fatal("property request returned no property result")
	}
	if v := view.Property.Value; v < 0 || v > 1 {
		t.Fatalf("P=? value = %g, want a probability", v)
	}
}

func TestEndToEndBadRequests(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := NewClient(ts.URL)
	ctx := context.Background()
	for name, req := range map[string]*AnalysisRequest{
		"no architecture":   {},
		"unknown builtin":   {Architecture: "builtin:9"},
		"unknown message":   {Architecture: "builtin:1", Message: "nope"},
		"lonely category":   {Architecture: "builtin:1", Category: "c"},
		"lonely protection": {Architecture: "builtin:1", Protection: "aes128"},
		"nmax out of range": {Architecture: "builtin:1", NMax: 99},
		"traversal name":    {Architecture: "../etc/passwd"},
		"property with lonely category": {Architecture: "builtin:1",
			Property: `P=? [ F<=1 "violated" ]`, Category: "c"},
		"malformed property": {Architecture: "builtin:1", Property: "P=? [ F<=1"},
	} {
		_, err := client.Submit(ctx, req)
		var ae *apiError
		if !errors.As(err, &ae) || ae.Status != 400 {
			t.Errorf("%s: got %v, want HTTP 400", name, err)
		}
	}
	if _, err := client.Job(ctx, "missing"); err == nil {
		t.Error("unknown job id accepted")
	}
}

// stubEngine replaces the engine's solver with fn, keeping resolution and
// caching real. It returns a counter of stub executions.
func stubEngine(e *Engine, fn func(ctx context.Context) (*Outcome, error)) *int64 {
	var calls int64
	var mu sync.Mutex
	e.run = func(ctx context.Context, rr *resolvedRequest) (*Outcome, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return fn(ctx)
	}
	return &calls
}

// TestConcurrentIdenticalRequestsSingleFlight floods the engine with the
// same request while the (stubbed) solve is in flight: exactly one pipeline
// execution, everyone else shares it.
func TestConcurrentIdenticalRequestsSingleFlight(t *testing.T) {
	e := NewEngine(EngineOptions{})
	release := make(chan struct{})
	calls := stubEngine(e, func(ctx context.Context) (*Outcome, error) {
		<-release
		return &Outcome{Property: &PropertyResult{Value: 1}}, nil
	})

	req := &AnalysisRequest{Architecture: "builtin:1", SkipSteadyState: true}
	rr, err := e.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	rkey := resultKey(rr.archCanon, rr.msg, rr.an, rr.mode, rr.cat, rr.prot, rr.property)

	const n = 8
	states := make([]CacheState, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, state, err := e.Run(context.Background(), req)
			if err != nil {
				t.Error(err)
			}
			if out == nil || out.Property == nil {
				t.Errorf("caller %d got empty outcome", i)
			}
			states[i] = state
		}(i)
	}
	// Wait for all non-leaders to be blocked on the in-flight solve, then
	// let the leader finish.
	deadline := time.Now().Add(10 * time.Second)
	for e.results.flight.waiting(rkey) < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters joined the flight", e.results.flight.waiting(rkey))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if *calls != 1 {
		t.Fatalf("pipeline executed %d times for %d identical requests, want 1", *calls, n)
	}
	st := e.Stats()
	if st.Solves != 1 || st.Shared != int64(n-1) {
		t.Fatalf("stats = %+v, want 1 solve and %d shared", st, n-1)
	}
	miss, sharedN := 0, 0
	for _, s := range states {
		switch s {
		case CacheMiss:
			miss++
		case CacheShared:
			sharedN++
		}
	}
	if miss != 1 || sharedN != n-1 {
		t.Fatalf("cache states = %v, want 1 miss and %d shared", states, n-1)
	}

	// Afterwards the outcome is cached: a late request is a plain hit.
	_, state, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if state != CacheHit {
		t.Fatalf("post-flight request = %q, want hit", state)
	}
}

// TestPropertyValidation pins the submission-time property checks: syntax
// errors are rejected immediately, while resolution of names against the
// model stays deferred to run time.
func TestPropertyValidation(t *testing.T) {
	e := NewEngine(EngineOptions{})
	for _, bad := range []string{
		"P=? [",
		"Q=? [ F<=1 \"violated\" ]",
		"P=? [ F<=1 \"violated\" ] trailing",
		"R=? [ C<= ]",
	} {
		err := e.Validate(&AnalysisRequest{Architecture: "builtin:1", Property: bad})
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("property %q: Validate = %v, want ErrBadRequest", bad, err)
		}
	}
	// Well-formed but referencing an unknown label: accepted at submission
	// (no model exists yet), fails at check time.
	ok := `P=? [ F<=1 "no_such_label" ]`
	if err := e.Validate(&AnalysisRequest{Architecture: "builtin:1", Property: ok}); err != nil {
		t.Errorf("property %q: Validate = %v, want nil", ok, err)
	}
}

// TestResultKeySeparatesModelOptions guards the result-cache key against
// model-side option aliasing: two requests differing only in nmax (which
// changes the generated model, not the solver settings) must not share a
// cached outcome.
func TestResultKeySeparatesModelOptions(t *testing.T) {
	a2 := core.Analyzer{NMax: 2}
	a4 := core.Analyzer{NMax: 4}
	k2 := resultKey(nil, "m", a2, modeGrid, 0, 0, "")
	k4 := resultKey(nil, "m", a4, modeGrid, 0, 0, "")
	if k2 == k4 {
		t.Fatalf("result keys for nmax 2 and 4 collide: %s", k2)
	}

	e := NewEngine(EngineOptions{})
	calls := stubEngine(e, func(ctx context.Context) (*Outcome, error) {
		return &Outcome{}, nil
	})
	ctx := context.Background()
	run := func(req *AnalysisRequest, want CacheState) {
		t.Helper()
		_, state, err := e.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if state != want {
			t.Fatalf("cache state = %q, want %q", state, want)
		}
	}
	run(&AnalysisRequest{Architecture: "builtin:1", NMax: 2}, CacheMiss)
	run(&AnalysisRequest{Architecture: "builtin:1", NMax: 2}, CacheHit)
	run(&AnalysisRequest{Architecture: "builtin:1", NMax: 4}, CacheMiss)
	if *calls != 2 {
		t.Fatalf("pipeline executed %d times, want 2", *calls)
	}
}

// TestWaiterRetriesAfterLeaderCanceled checks a single-flight waiter does
// not inherit the leader's context cancellation: when the leader's job is
// canceled under its own deadline, a waiter whose context is still live
// retries and completes the solve itself.
func TestWaiterRetriesAfterLeaderCanceled(t *testing.T) {
	e := NewEngine(EngineOptions{})
	inFlight := make(chan struct{}, 1)
	var calls int64
	e.run = func(ctx context.Context, rr *resolvedRequest) (*Outcome, error) {
		if atomic.AddInt64(&calls, 1) == 1 {
			inFlight <- struct{}{}
			<-ctx.Done() // the leader: block until its job is canceled
			return nil, ctx.Err()
		}
		return &Outcome{Property: &PropertyResult{Value: 1}}, nil
	}

	req := &AnalysisRequest{Architecture: "builtin:1", SkipSteadyState: true}
	rr, err := e.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	rkey := resultKey(rr.archCanon, rr.msg, rr.an, rr.mode, rr.cat, rr.prot, rr.property)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := e.Run(leaderCtx, req)
		leaderErr <- err
	}()
	<-inFlight

	waiterDone := make(chan error, 1)
	go func() {
		out, state, err := e.Run(context.Background(), req)
		if err == nil && (out == nil || out.Property == nil) {
			err = errors.New("waiter got empty outcome")
		}
		if err == nil && state != CacheMiss {
			err = fmt.Errorf("waiter cache state = %q, want miss after retry", state)
		}
		waiterDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for e.results.flight.waiting(rkey) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt64(&calls); n != 2 {
		t.Fatalf("pipeline executed %d times, want 2 (canceled leader + retrying waiter)", n)
	}
}

// TestResultCacheEviction bounds the result cache at one entry and checks
// an evicted outcome is re-solved.
func TestResultCacheEviction(t *testing.T) {
	e := NewEngine(EngineOptions{ResultCacheSize: 1, ModelCacheSize: 1})
	calls := stubEngine(e, func(ctx context.Context) (*Outcome, error) {
		return &Outcome{}, nil
	})
	ctx := context.Background()
	reqA := &AnalysisRequest{Architecture: "builtin:1", SkipSteadyState: true}
	reqB := &AnalysisRequest{Architecture: "builtin:2", SkipSteadyState: true}

	run := func(req *AnalysisRequest, want CacheState) {
		t.Helper()
		_, state, err := e.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if state != want {
			t.Fatalf("cache state = %q, want %q", state, want)
		}
	}
	run(reqA, CacheMiss)
	run(reqA, CacheHit)
	run(reqB, CacheMiss) // evicts A's outcome
	run(reqA, CacheMiss) // re-solved
	if *calls != 3 {
		t.Fatalf("pipeline executed %d times, want 3", *calls)
	}
	if ev := e.results.Stats().Evictions; ev < 1 {
		t.Fatalf("evictions = %d, want ≥1", ev)
	}
}

// TestServeAfterCloseReturns: a Serve that starts after Shutdown returns at
// once and closes its listener, instead of serving a shut-down server
// forever.
func TestServeAfterCloseReturns(t *testing.T) {
	srv := New(Config{Workers: 1})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Close = %v, want nil", err)
		}
	case <-time.After(time.Second):
		l.Close()
		t.Fatal("Serve after Close was still serving after 1s")
	}
	l2, err := net.Listen("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("Serve after Close left its address bound: %v", err)
	}
	l2.Close()
}

// TestGracefulShutdownDrainsJobs checks Shutdown lets in-flight jobs
// finish, refuses new submissions, and reports draining on healthz.
func TestGracefulShutdownDrainsJobs(t *testing.T) {
	srv := New(Config{Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	stubEngine(srv.Engine(), func(ctx context.Context) (*Outcome, error) {
		started <- struct{}{}
		<-release
		return &Outcome{}, nil
	})

	job, err := srv.Submit(&AnalysisRequest{Architecture: "builtin:1"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is now inside the solve

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	// Submissions are refused while draining.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := srv.Submit(&AnalysisRequest{Architecture: "builtin:1"})
		if errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit during drain: got %v, want ErrDraining", err)
		}
		time.Sleep(time.Millisecond)
	}

	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v before the in-flight job finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v, want nil after drain", err)
	}
	if got := job.View().Status; got != StatusDone {
		t.Fatalf("drained job status = %s, want done", got)
	}
}

// TestShutdownDeadlineCancelsJobs checks an expired drain budget cancels
// in-flight work through its context instead of hanging.
func TestShutdownDeadlineCancelsJobs(t *testing.T) {
	srv := New(Config{Workers: 1})
	started := make(chan struct{}, 1)
	stubEngine(srv.Engine(), func(ctx context.Context) (*Outcome, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})

	job, err := srv.Submit(&AnalysisRequest{Architecture: "builtin:1"})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	if got := job.View().Status; got != StatusCanceled {
		t.Fatalf("canceled job status = %s, want canceled", got)
	}
}

// TestQueueFull fills the queue past capacity and checks the overflow
// submission is rejected rather than blocking.
func TestQueueFull(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
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

	if _, err := srv.Submit(&AnalysisRequest{Architecture: "builtin:1"}); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; the queue slot is free again
	if _, err := srv.Submit(&AnalysisRequest{Architecture: "builtin:1"}); err != nil {
		t.Fatal(err) // fills the queue
	}
	_, err := srv.Submit(&AnalysisRequest{Architecture: "builtin:1"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit = %v, want ErrQueueFull", err)
	}
	if srv.Metrics().JobsRejected != 1 {
		t.Fatalf("rejected = %d, want 1", srv.Metrics().JobsRejected)
	}
}

// TestModelCacheSharedAcrossSolverSettings checks the explored state space
// is reused when only solver-side settings (horizon) change.
func TestModelCacheSharedAcrossSolverSettings(t *testing.T) {
	e := NewEngine(EngineOptions{})
	ctx := context.Background()
	base := AnalysisRequest{
		Architecture:    "builtin:1",
		Category:        "c",
		Protection:      "none",
		SkipSteadyState: true,
	}
	r1 := base
	r1.Horizon = 1
	if _, _, err := e.Run(ctx, &r1); err != nil {
		t.Fatal(err)
	}
	r2 := base
	r2.Horizon = 2
	if _, state, err := e.Run(ctx, &r2); err != nil {
		t.Fatal(err)
	} else if state != CacheMiss {
		t.Fatalf("different horizon served as %q, want a fresh solve", state)
	}
	ms := e.models.Stats()
	if ms.Hits < 1 {
		t.Fatalf("model cache stats = %+v, want the second solve to reuse the explored space", ms)
	}
	if e.models.Len() != 1 {
		t.Fatalf("model cache holds %d entries, want 1 shared entry", e.models.Len())
	}
}
