package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/shard"
)

// countedServer returns a server in a two-node replicated ring whose peer is
// never contacted.
func countedServer(t *testing.T) *Server {
	t.Helper()
	rt, err := shard.NewRouter("n1", map[string]string{"n1": "http://127.0.0.1:1", "n2": "http://127.0.0.1:2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, Shard: rt, Replication: 2})
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestCountedThroughServerTracer: a quantity counted once, in the
// collector, reaches it through the server's own tracer even when the
// request context carries a span of some other tracer.
func TestCountedThroughServerTracer(t *testing.T) {
	srv := countedServer(t)
	foreign := obs.NewTracer(obs.NewCollector(), false)
	ctx, sp := foreign.StartSpan(context.Background(), "elsewhere")
	defer sp.End()

	r := httptest.NewRequest(http.MethodPut, "/v1/replica/k", strings.NewReader(`{}`)).WithContext(ctx)
	r.SetPathValue("key", "k")
	srv.handleReplicaPut(httptest.NewRecorder(), r)

	fwd := httptest.NewRequest(http.MethodPost, "/v1/analyses", nil).WithContext(ctx)
	fwd.Header.Set(shard.ForwardedHeader, "n2")
	if handled, _, _ := srv.maybeForward(httptest.NewRecorder(), fwd, &AnalysisRequest{}, nil); handled {
		t.Fatal("a forwarded-in request was forwarded again")
	}

	m := srv.Metrics()
	if m.Replication == nil || m.Replication.Received != 1 {
		t.Fatalf("replication metrics = %+v, want 1 received", m.Replication)
	}
	if m.Shard.ReceivedForwarded != 1 {
		t.Fatalf("received_forwarded = %d, want 1", m.Shard.ReceivedForwarded)
	}
}

// TestCountedConcurrentWithMetrics races counter increments against
// Metrics reads (run under -race) and checks no increment is lost.
func TestCountedConcurrentWithMetrics(t *testing.T) {
	srv := countedServer(t)
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				srv.tracer.Count("service.replica.pushed", 1)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = srv.Metrics()
		}
	}()
	wg.Wait()
	<-done
	if got := srv.Metrics().Replication.Pushed; got != writers*perWriter {
		t.Fatalf("pushed = %d, want %d", got, writers*perWriter)
	}
}
