package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// publicCounts maps every collector count that has a public /metrics family
// to that family.
var publicCounts = map[string]string{
	"service.jobs.accepted":            "secserved_jobs_accepted_total",
	"service.jobs.completed":           "secserved_jobs_completed_total",
	"service.jobs.failed":              "secserved_jobs_failed_total",
	"service.jobs.rejected":            "secserved_jobs_rejected_total",
	"service.jobs.retried":             "secserved_jobs_retried_total",
	"service.panic.recovered":          "secserved_panics_recovered_total",
	"service.shard.owned":              "secserved_shard_owned_total",
	"service.shard.forwarded":          "secserved_shard_forwarded_total",
	"service.shard.received_forwarded": "secserved_shard_received_forwarded_total",
	"service.shard.forward_failed":     "secserved_shard_forward_failed_total",
	"service.shard.failover":           "secserved_shard_failover_total",
	"service.fleet.breaker.transition": "secserved_shard_breaker_transitions_total",
	"service.replica.pushed":           "secserved_replica_pushed_total",
	"service.replica.failed":           "secserved_replica_push_failed_total",
	"service.replica.received":         "secserved_replica_received_total",
	"service.journal.replayed":         "secserved_journal_replayed_total",
	"service.journal.errors":           "secserved_journal_errors_total",
}

// engineCounts are the collector counts whose /metrics families
// (secserved_engine_*, secserved_tenant_shed_total) read EngineStats and
// the tenant usage table instead of the collector.
var engineCounts = []string{
	"service.cache.result.hit", "service.cache.result.miss", "service.cache.result.evict",
	"service.cache.model.hit", "service.cache.model.miss", "service.cache.model.evict",
	"service.singleflight.shared", "service.tenant.shed",
}

// TestCountedOnceOnProm: on a sharded, replicated, journaled ring, after
// one forwarded job (n1 → n2) and its replica put (n2 → n1), every count
// with a public family appears on /metrics under that family alone, with
// the collector's value, and never again under its generic
// secserved_<event>_total name; nor does any of engineCounts, whose
// families read the same counts elsewhere.
func TestCountedOnceOnProm(t *testing.T) {
	nodes := bootGoldenRing(t)
	n1, n2 := nodes["n1"], nodes["n2"]
	req := requestOwnedBy(t, n2.srv.engine, n2.srv.cfg.Shard, "n2")
	if _, v := postAnalysis(t, n1.url, analysisBody(req, 30)); v.Status != StatusDone {
		t.Fatalf("forwarded solve: status=%s error=%q", v.Status, v.Error)
	}
	waitUntil(t, "the replica put on n1", 10*time.Second, func() bool {
		return n1.srv.counted("service.replica.received") == 1
	})

	if got := n2.srv.counted("service.cache.result.miss"); got != 1 {
		t.Fatalf("n2 counted %d result-cache misses, want 1", got)
	}
	want := map[string]map[string]int64{
		"n1": {"service.shard.forwarded": 1, "service.replica.received": 1},
		"n2": {"service.jobs.accepted": 1, "service.jobs.completed": 1,
			"service.shard.received_forwarded": 1, "service.replica.pushed": 1},
	}
	for _, name := range []string{"n1", "n2"} {
		n := nodes[name]
		resp, err := http.Get(n.url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		page, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		types, values := make(map[string]int), make(map[string]string)
		for _, line := range strings.Split(string(page), "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				family, _, _ := strings.Cut(rest, " ")
				types[family]++
			} else if fam, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
				values[fam] = v
			}
		}
		for _, event := range engineCounts {
			if generic := "secserved_" + strings.ReplaceAll(event, ".", "_") + "_total"; types[generic] != 0 {
				t.Errorf("%s: %s is rendered twice, as %s", name, event, generic)
			}
		}
		for event, family := range publicCounts {
			generic := "secserved_" + strings.ReplaceAll(event, ".", "_") + "_total"
			if types[generic] != 0 {
				t.Errorf("%s: %s is rendered twice, as %s and %s", name, event, family, generic)
			}
			if types[family] != 1 {
				t.Errorf("%s: family %s appears %d times, want 1", name, family, types[family])
				continue
			}
			got := n.srv.counted(event)
			if values[family] != strconv.FormatInt(got, 10) {
				t.Errorf("%s: %s = %s, collector has %d", name, family, values[family], got)
			}
			if got != want[name][event] {
				t.Errorf("%s: %s counted %d, want %d", name, event, got, want[name][event])
			}
		}
	}
}

// TestCountedJobsUnderConcurrentSubmits races submissions, job finishes and
// Metrics reads (run under -race): once the server has drained, the job
// counts read back from the collector equal what the submitters saw.
func TestCountedJobsUnderConcurrentSubmits(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 4})
	srv.engine.run = func(ctx context.Context, rr *resolvedRequest) (*Outcome, error) {
		return stubOutcome(), nil
	}
	const submitters, perSubmitter = 4, 25
	var accepted, rejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				_, err := srv.Submit(&AnalysisRequest{
					Architecture:    "builtin:1",
					SkipSteadyState: true,
					Horizon:         float64(1 + w*perSubmitter + i),
				})
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrQueueFull):
					rejected.Add(1)
				default:
					t.Error(err)
					return
				}
			}
		}()
	}
	reads := make(chan struct{})
	go func() {
		defer close(reads)
		for i := 0; i < 50; i++ {
			_ = srv.Metrics()
		}
	}()
	wg.Wait()
	<-reads
	if err := srv.Close(); err != nil { // every job finished: its count is in
		t.Fatal(err)
	}
	m := srv.Metrics()
	if m.JobsAccepted != accepted.Load() || m.JobsRejected != rejected.Load() {
		t.Fatalf("accepted=%d rejected=%d, submitters saw %d and %d",
			m.JobsAccepted, m.JobsRejected, accepted.Load(), rejected.Load())
	}
	if m.JobsCompleted != accepted.Load() || m.JobsFailed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d and 0", m.JobsCompleted, m.JobsFailed, accepted.Load())
	}
}
