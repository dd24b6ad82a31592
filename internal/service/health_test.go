package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestHealthDegradedEntryBoundary pins the exact transition point: the
// failure *reaching* DegradedAfter degrades, the one before it does not.
func TestHealthDegradedEntryBoundary(t *testing.T) {
	srv := New(Config{Workers: 1, DegradedAfter: 3})
	defer srv.Close()
	stubEngine(srv.Engine(), func(ctx context.Context) (*Outcome, error) {
		return nil, fmt.Errorf("persistent backend failure")
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := context.Background()

	fail := func(archIdx int) {
		t.Helper()
		// Distinct architectures so the result cache cannot absorb a failure.
		view, err := cl.Submit(ctx, &AnalysisRequest{
			Architecture: fmt.Sprintf("builtin:%d", archIdx), WaitSeconds: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Wait(ctx, view.ID); err != nil {
			t.Fatal(err)
		}
	}

	fail(1)
	fail(2)
	h, err := health(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.ConsecutiveFailures != 2 {
		t.Fatalf("health after 2/3 failures = %+v, want still ok", h)
	}

	fail(3)
	if h, err = health(ctx, cl); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.ConsecutiveFailures != 3 {
		t.Fatalf("health after 3/3 failures = %+v, want degraded", h)
	}
}

// TestHealthDegradesOnQueuePressure drives the second degraded path: a
// near-saturated queue (pressure >= 0.9) degrades even with zero failures,
// and draining the queue recovers to ok.
func TestHealthDegradesOnQueuePressure(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 10})
	defer srv.Close()
	release := make(chan struct{})
	// Unblock the worker even when an assertion fails mid-test, or the
	// deferred Close would wait on it forever.
	releaseWorker := sync.OnceFunc(func() { close(release) })
	defer releaseWorker()
	stubEngine(srv.Engine(), func(ctx context.Context) (*Outcome, error) {
		select {
		case <-release:
			return &Outcome{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := context.Background()

	// One job occupying the single worker; wait until it is off the queue.
	first, err := srv.Submit(&AnalysisRequest{Architecture: "builtin:1"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		h, err := health(ctx, cl)
		return err == nil && h.JobsRunning == 1 && h.QueueDepth == 0
	}, "first job running")

	// Nine more fill the queue to 9/10 = 0.9 pressure. Each takes a distinct
	// category × protection cell, so every one is a separate cache entry and
	// a real queue slot.
	jobs := []*Job{first}
	for _, cat := range []string{"c", "i", "a"} {
		for _, prot := range []string{"unencrypted", "cmac128", "aes128"} {
			j, err := srv.Submit(&AnalysisRequest{
				Architecture: "builtin:1", Category: cat, Protection: prot,
			})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	h, err := health(ctx, cl)
	if err != nil {
		t.Fatal(err) // degraded must stay HTTP 200
	}
	if h.Status != "degraded" || h.QueuePressure < 0.9 {
		t.Fatalf("health with saturated queue = %+v, want degraded at pressure >= 0.9", h)
	}
	if h.ConsecutiveFailures != 0 {
		t.Fatalf("queue-pressure degradation must not need failures: %+v", h)
	}

	// Unblock the worker; once the backlog drains, health recovers.
	releaseWorker()
	for _, j := range jobs {
		<-j.Done()
	}
	waitFor(t, func() bool {
		h, err := health(ctx, cl)
		return err == nil && h.Status == "ok" && h.QueueDepth == 0
	}, "health ok after queue drained")
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// health fetches /v1/healthz through c.
func health(ctx context.Context, c *Client) (*Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}
