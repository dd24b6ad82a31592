package service

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// postAnalysisHeaders is postAnalysis with extra request headers (tenant,
// traceparent).
func postAnalysisHeaders(t *testing.T, base, body string, headers map[string]string) (*http.Response, *JobView) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/analyses", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := readJSONBody(resp, &v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, &v
}

// clientTraceparent is a fixed W3C header a test client sends; the trace ID
// must survive onto every downstream hop.
const (
	clientTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
	clientSpanHex     = "00f067aa0ba902b7"
	clientTraceparent = "00-" + clientTraceID + "-" + clientSpanHex + "-01"
)

// TestReplicaPushCarriesClientTraceparent is the regression test for the
// replication fan-out losing trace context: the goroutine borrowed the
// server's fleet context, so the traceparent injected on the replica PUT
// named the server's background trace instead of the originating request's.
// The captured replica request must carry the client's trace ID under a
// fresh (push-span) span ID.
func TestReplicaPushCarriesClientTraceparent(t *testing.T) {
	var captured atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/replica/") {
			captured.Store(r.Header.Get(obs.TraceparentHeader))
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := map[string]string{"n1": "http://" + l.Addr().String(), "n2": ts.URL}
	rt, err := shard.NewRouter("n1", peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, Shard: rt, Replication: 2})
	stubEngine(srv.engine, func(ctx context.Context) (*Outcome, error) { return stubOutcome(), nil })
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	req := requestOwnedBy(t, srv.engine, rt, "n1")
	_, v := postAnalysisHeaders(t, peers["n1"], analysisBody(req, 20),
		map[string]string{obs.TraceparentHeader: clientTraceparent})
	if v.Status != StatusDone {
		t.Fatalf("job status=%s error=%s", v.Status, v.Error)
	}
	waitUntil(t, "replica push to reach the peer", 5*time.Second, func() bool {
		return captured.Load() != nil
	})
	got, _ := captured.Load().(string)
	tc, ok := obs.ParseTraceparent(got)
	if !ok {
		t.Fatalf("replica request traceparent %q does not parse", got)
	}
	if tc.TraceID != clientTraceID {
		t.Fatalf("replica push trace = %s, want the client's %s", tc.TraceID, clientTraceID)
	}
	if strings.Contains(got, clientSpanHex) {
		t.Fatalf("replica push parent span is the client's own span, want the push span: %q", got)
	}
}

// TestQueuedHintCarriesClientTrace covers the second half of the bugfix:
// when the replica target's breaker is open the push becomes a hinted
// handoff, and the hint must remember the originating traceparent so the
// delayed delivery rejoins the same trace.
func TestQueuedHintCarriesClientTrace(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// n2 points at a dead address: nothing listens there, and its breaker is
	// forced open below so the push never even dials.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + dead.Addr().String()
	dead.Close()

	peers := map[string]string{"n1": "http://" + l.Addr().String(), "n2": deadURL}
	rt, err := shard.NewRouter("n1", peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt.Breakers = shard.NewBreakerSet(shard.BreakerOptions{Now: newTestClock().Now})
	tripBreaker(t, rt, "n2")
	srv := New(Config{Workers: 2, Shard: rt, Replication: 2})
	stubEngine(srv.engine, func(ctx context.Context) (*Outcome, error) { return stubOutcome(), nil })
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	req := requestOwnedBy(t, srv.engine, rt, "n1")
	_, v := postAnalysisHeaders(t, peers["n1"], analysisBody(req, 20),
		map[string]string{obs.TraceparentHeader: clientTraceparent})
	if v.Status != StatusDone {
		t.Fatalf("job status=%s error=%s", v.Status, v.Error)
	}
	waitUntil(t, "hint queued for n2", 5*time.Second, func() bool {
		return len(srv.cfg.Hints.PendingFor("n2")) == 1
	})
	h := srv.cfg.Hints.PendingFor("n2")[0]
	tc, ok := obs.ParseTraceparent(h.Trace)
	if !ok {
		t.Fatalf("queued hint trace %q does not parse", h.Trace)
	}
	if tc.TraceID != clientTraceID {
		t.Fatalf("queued hint trace = %s, want the client's %s", tc.TraceID, clientTraceID)
	}
}

// TestClusterEndpointsFederateRing boots a 3-node ring with replication,
// drives jobs under two tenants, and checks both cluster endpoints: the
// status fan-out reports every node's ring/breaker/build state, and the
// merged metrics document carries bucket-accurate fleet quantiles,
// fleet-wide tenant burn windows, and at least one assembled trace spanning
// more than one node (the acceptance criterion: forward/job + replicate
// spans under one trace ID).
func TestClusterEndpointsFederateRing(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	nodes := bootFleet(t, names, func(name string, cfg *Config, rt *shard.Router) {
		cfg.Replication = 2
	})

	// One job owned by n1 under tenant alpha, one owned by n2 under beta.
	for owner, tenant := range map[string]string{"n1": "alpha", "n2": "beta"} {
		req := requestOwnedBy(t, nodes[owner].srv.engine, nodes[owner].srv.cfg.Shard, owner)
		_, v := postAnalysisHeaders(t, nodes[owner].url, analysisBody(req, 20),
			map[string]string{TenantHeader: tenant})
		if v.Status != StatusDone {
			t.Fatalf("job on %s: status=%s error=%s", owner, v.Status, v.Error)
		}
	}
	waitUntil(t, "replica pushes to land", 5*time.Second, func() bool {
		var pushed int64
		for _, n := range nodes {
			pushed += n.srv.counted("service.replica.pushed")
		}
		return pushed >= 2
	})

	resp, err := http.Get(nodes["n1"].url + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var cs ClusterStatus
	if err := readJSONBody(resp, &cs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cs.Self != "n1" || len(cs.Unreachable) != 0 {
		t.Fatalf("self=%q unreachable=%v", cs.Self, cs.Unreachable)
	}
	if len(cs.Nodes) != 3 {
		t.Fatalf("got %d node statuses, want 3", len(cs.Nodes))
	}
	var ownership float64
	withHists := 0
	seen := map[string]bool{}
	for _, ns := range cs.Nodes {
		seen[ns.Node] = true
		if ns.Status != "ok" {
			t.Fatalf("node %s status %q", ns.Node, ns.Status)
		}
		if ns.RingOwnership <= 0 {
			t.Fatalf("node %s reports no ring ownership", ns.Node)
		}
		ownership += ns.RingOwnership
		if ns.Build.GoVersion == "" {
			t.Fatalf("node %s status missing build info", ns.Node)
		}
		if len(ns.Histograms) > 0 {
			withHists++
		}
	}
	// The two owner nodes ran jobs, so at least they export histograms (a
	// fully idle node legitimately has none yet).
	if withHists < 2 {
		t.Fatalf("only %d nodes export histograms, want >= 2", withHists)
	}
	for _, n := range names {
		if !seen[n] {
			t.Fatalf("node %s missing from cluster status", n)
		}
	}
	if ownership < 0.999 || ownership > 1.001 {
		t.Fatalf("ring ownership sums to %g, want 1", ownership)
	}

	resp, err = http.Get(nodes["n2"].url + "/v1/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var cm ClusterMetrics
	if err := readJSONBody(resp, &cm); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cm.Nodes) != 3 {
		t.Fatalf("merged doc covers %v, want all 3 nodes", cm.Nodes)
	}
	if cm.JobsCompleted < 2 {
		t.Fatalf("merged jobs_completed = %d, want >= 2", cm.JobsCompleted)
	}
	q, ok := cm.Quantiles["service.job"]
	if !ok {
		t.Fatal("merged quantiles missing service.job")
	}
	if q.Count < 2 || q.P99 <= 0 {
		t.Fatalf("service.job quantiles = %+v, want count >= 2 and p99 > 0", q)
	}
	w := cm.Histograms["service.job"]
	if len(w.Nodes) == 0 && w.Node == "" {
		t.Fatalf("merged service.job wire has no provenance: %+v", w)
	}
	for _, tenant := range []string{"alpha", "beta"} {
		tu, ok := cm.Tenants[tenant]
		if !ok {
			t.Fatalf("merged tenants missing %q: %v", tenant, cm.Tenants)
		}
		if tu.Requests < 1 {
			t.Fatalf("tenant %s requests = %d", tenant, tu.Requests)
		}
		for _, win := range []string{"5m", "1h"} {
			sw, ok := tu.Windows[win]
			if !ok || sw.Requests < 1 {
				t.Fatalf("tenant %s window %s = %+v", tenant, win, sw)
			}
		}
	}
	if cm.MultiNodeTraces < 1 {
		t.Fatalf("multi_node_traces = %d, want at least one assembled cross-node trace", cm.MultiNodeTraces)
	}
	var multi *obs.AssembledTrace
	for i := range cm.Traces {
		if cm.Traces[i].MultiNode() {
			multi = &cm.Traces[i]
			break
		}
	}
	if multi == nil {
		t.Fatal("no multi-node trace in the returned traces")
	}
	// The acceptance shape: a replicate.push span and a span from another
	// node assembled under one trace ID.
	var hasPush, hasRemoteNode bool
	firstNode := multi.Nodes[0]
	var walk func(spans []*obs.TraceSpan)
	walk = func(spans []*obs.TraceSpan) {
		for _, sp := range spans {
			if sp.Name == "service.replicate.push" {
				hasPush = true
			}
			if sp.Node != firstNode {
				hasRemoteNode = true
			}
			walk(sp.Children)
		}
	}
	walk(multi.Roots)
	if !hasPush || !hasRemoteNode {
		t.Fatalf("multi-node trace %s lacks push/remote spans (push=%v remote=%v, nodes=%v)",
			multi.TraceID, hasPush, hasRemoteNode, multi.Nodes)
	}
}

// TestClusterReportsBreakerOpenPeer: a peer the ring already considers down
// is reported unreachable (reason breaker_open) without a scrape attempt.
func TestClusterReportsBreakerOpenPeer(t *testing.T) {
	nodes := bootFleet(t, []string{"n1", "n2", "n3"}, func(name string, cfg *Config, rt *shard.Router) {
		rt.Breakers = shard.NewBreakerSet(shard.BreakerOptions{Now: newTestClock().Now})
	})
	rt := nodes["n1"].srv.cfg.Shard
	tripBreaker(t, rt, "n3")
	resp, err := http.Get(nodes["n1"].url + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var cs ClusterStatus
	if err := readJSONBody(resp, &cs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cs.Nodes) != 2 {
		t.Fatalf("got %d reachable nodes, want 2", len(cs.Nodes))
	}
	if len(cs.Unreachable) != 1 || cs.Unreachable[0].Node != "n3" || cs.Unreachable[0].Reason != "breaker_open" {
		t.Fatalf("unreachable = %+v, want n3/breaker_open", cs.Unreachable)
	}
}

// BenchmarkClusterScrape polls GET /v1/cluster/metrics on a node with three
// solved jobs behind it: status assembly, histogram wire encoding, merge
// and trace assembly per refresh — the steady cost a sectop watcher or
// metrics pipeline imposes on a serving node.
func BenchmarkClusterScrape(b *testing.B) {
	srv := New(Config{Workers: 2, NodeID: "bench"})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Seed solved jobs so the scrape carries real histograms, spans and
	// tenant usage, not an empty document.
	for nmax := 0; nmax <= 2; nmax++ {
		resp, _ := postAnalysis(b, ts.URL, fmt.Sprintf(
			`{"architecture":"builtin:1","skip_steady_state":true,"nmax":%d,"horizon":1,"wait_seconds":120}`, nmax))
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("seed job nmax=%d: status %d", nmax, resp.StatusCode)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(ts.URL + "/v1/cluster/metrics")
		if err != nil {
			b.Fatal(err)
		}
		var cm ClusterMetrics
		err = readJSONBody(resp, &cm)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if len(cm.Nodes) == 0 || cm.JobsCompleted < 3 {
			b.Fatalf("scrape returned an empty cluster document: nodes=%v completed=%d", cm.Nodes, cm.JobsCompleted)
		}
	}
}

// TestBuildInfoEndpoint: the node identity document answers with Go version
// and node name.
func TestBuildInfoEndpoint(t *testing.T) {
	nodes := bootFleet(t, []string{"n1", "n2"}, nil)
	resp, err := http.Get(nodes["n2"].url + "/v1/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	var b BuildInfo
	if err := readJSONBody(resp, &b); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if b.Node != "n2" {
		t.Fatalf("node = %q", b.Node)
	}
	if !strings.HasPrefix(b.GoVersion, "go") {
		t.Fatalf("go_version = %q", b.GoVersion)
	}
	if b.UptimeSeconds < 0 {
		t.Fatalf("uptime = %g", b.UptimeSeconds)
	}
}
