package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/store"
)

// fleetNode is one booted instance in a fleet test ring.
type fleetNode struct {
	srv      *Server
	url      string
	addr     string
	listener net.Listener
	served   chan struct{} // closed when the first Serve returns
	runs     *atomic.Int64
	store    *store.Store
}

// stop shuts the node down and waits for its Serve to return, which frees
// its address for a restart.
func (fn *fleetNode) stop(t *testing.T) {
	t.Helper()
	if err := fn.srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-fn.served
}

// testClock is an injected breaker clock that tests advance by hand, so a
// tripped breaker stays open until the test recovers it.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(1000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// errInjectedPeer fails the guarded calls tripBreaker makes.
var errInjectedPeer = errors.New("injected peer failure")

// tripBreaker fails guarded calls to node until its breaker is open.
func tripBreaker(t *testing.T, rt *shard.Router, node string) {
	t.Helper()
	for i := 0; rt.Breakers.State(node) != shard.BreakerOpen; i++ {
		if i == 100 {
			t.Fatalf("breaker for %s still %v after %d failures", node, rt.Breakers.State(node), i)
		}
		rt.Breakers.Do(context.Background(), node, func(context.Context) error { return errInjectedPeer })
	}
}

// recoverBreaker expires node's open period on clk and closes its breaker
// with a successful half-open trial.
func recoverBreaker(t *testing.T, rt *shard.Router, clk *testClock, node string) {
	t.Helper()
	clk.Advance(time.Hour)
	err := rt.Breakers.Do(context.Background(), node, func(context.Context) error { return nil })
	if st := rt.Breakers.State(node); err != nil || st != shard.BreakerClosed {
		t.Fatalf("recovery trial for %s: err=%v state=%v, want closed", node, err, st)
	}
}

// bootFleet is bootRing with per-node configuration: mut may adjust the
// config (replication, tenants, probe interval) and the router (breaker
// options) before the server starts.
func bootFleet(t *testing.T, names []string, mut func(name string, cfg *Config, rt *shard.Router)) map[string]*fleetNode {
	t.Helper()
	listeners := make(map[string]net.Listener, len(names))
	peers := make(map[string]string, len(names))
	for _, n := range names {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[n] = l
		peers[n] = "http://" + l.Addr().String()
	}
	nodes := make(map[string]*fleetNode, len(names))
	for _, n := range names {
		rt, err := shard.NewRouter(n, peers, 0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(store.Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Workers: 2, Shard: rt, Store: st}
		if mut != nil {
			mut(n, &cfg, rt)
		}
		srv := New(cfg)
		runs := &atomic.Int64{}
		srv.engine.run = func(ctx context.Context, rr *resolvedRequest) (*Outcome, error) {
			runs.Add(1)
			time.Sleep(20 * time.Millisecond)
			return stubOutcome(), nil
		}
		served := make(chan struct{})
		go func(l net.Listener) {
			srv.Serve(l)
			close(served)
		}(listeners[n])
		nodes[n] = &fleetNode{
			srv: srv, url: peers[n], addr: listeners[n].Addr().String(),
			listener: listeners[n], served: served, runs: runs, store: st,
		}
		t.Cleanup(func() { srv.Close() })
	}
	return nodes
}

// waitFor polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, desc string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func analysisBody(req *AnalysisRequest, waitSeconds float64) string {
	return fmt.Sprintf(`{"architecture":"builtin:1","skip_steady_state":true,"nmax":%d,"horizon":%g,"wait_seconds":%g}`,
		req.NMax, req.Horizon, waitSeconds)
}

// TestReplicationWritesToSuccessor: with R=2, a freshly computed outcome
// lands on the key's ring successor — its store and in-memory cache — so
// losing the owner doesn't cold-start the keyspace.
func TestReplicationWritesToSuccessor(t *testing.T) {
	nodes := bootFleet(t, []string{"n1", "n2", "n3"}, func(name string, cfg *Config, rt *shard.Router) {
		cfg.Replication = 2
	})
	owner := "n2"
	req := requestOwnedBy(t, nodes[owner].srv.engine, nodes[owner].srv.cfg.Shard, owner)
	key, err := nodes[owner].srv.engine.Fingerprint(req)
	if err != nil {
		t.Fatal(err)
	}
	succ := nodes[owner].srv.cfg.Shard.Ring().Successors(key, 2)[1]

	_, v := postAnalysis(t, nodes[owner].url, analysisBody(req, 20))
	if v.Status != StatusDone {
		t.Fatalf("job status=%s error=%s", v.Status, v.Error)
	}
	waitUntil(t, "replica on successor "+succ, 5*time.Second, func() bool {
		return nodes[succ].srv.counted("service.replica.received") >= 1
	})
	if _, ok := nodes[succ].store.Get(key); !ok {
		t.Fatalf("successor %s store has no replica of %s", succ, key[:12])
	}
	// The push counter increments after the receiver answers; wait rather
	// than assert-race it.
	waitUntil(t, "owner push counter", 5*time.Second, func() bool {
		return nodes[owner].srv.counted("service.replica.pushed") == 1
	})
	// The successor can now answer the same request from cache without
	// solving.
	_, v2 := postAnalysis(t, nodes[succ].url, analysisBody(req, 20))
	if v2.Status != StatusDone || v2.Cache != CacheHit {
		t.Fatalf("successor re-serve: status=%s cache=%s, want done/hit", v2.Status, v2.Cache)
	}
	m := nodes[owner].srv.Metrics()
	if m.Replication == nil || m.Replication.Factor != 2 || m.Replication.Pushed != 1 {
		t.Fatalf("owner replication metrics = %+v", m.Replication)
	}
}

// TestFailoverComputesLocallyAndQueuesHandoff kills the owner, trips its
// breaker, and checks: ownership fails over deterministically, the request
// succeeds with zero client-visible failures, and the result is queued as
// a hinted handoff, delivered to the owner once it returns and its breaker
// closes.
func TestFailoverComputesLocallyAndQueuesHandoff(t *testing.T) {
	clk := newTestClock()
	nodes := bootFleet(t, []string{"n1", "n2"}, func(name string, cfg *Config, rt *shard.Router) {
		cfg.Replication = 2
		rt.Breakers = shard.NewBreakerSet(shard.BreakerOptions{Now: clk.Now})
	})
	owner := "n2"
	entry := nodes["n1"]
	req := requestOwnedBy(t, entry.srv.engine, entry.srv.cfg.Shard, owner)
	key, err := entry.srv.engine.Fingerprint(req)
	if err != nil {
		t.Fatal(err)
	}
	ownerAddr := nodes[owner].addr
	nodes[owner].stop(t)
	tripBreaker(t, entry.srv.cfg.Shard, owner)

	// The open breaker reroutes ownership to n1 itself: no forward attempt,
	// no transport timeout, the client just gets its answer.
	resp, v := postAnalysis(t, entry.url, analysisBody(req, 20))
	if v.Status != StatusDone {
		t.Fatalf("failover job: status=%s error=%s", v.Status, v.Error)
	}
	if got := resp.Header.Get(shard.ServedByHeader); got != "n1" {
		t.Fatalf("failover served by %q, want n1", got)
	}
	if fails := entry.srv.counted("service.shard.forward_failed"); fails != 0 {
		t.Fatalf("forward failures = %d, want 0 (breaker should skip the dead owner)", fails)
	}
	if fo := entry.srv.counted("service.shard.failover"); fo != 1 {
		t.Fatalf("failover count = %d, want 1", fo)
	}
	waitUntil(t, "handoff hint queued for "+owner, 5*time.Second, func() bool {
		return len(entry.srv.cfg.Hints.PendingFor(owner)) == 1
	})

	// Restart the owner on its old address with a fresh store, close the
	// breaker (as the prober would on recovery) and drain the hints.
	l2, err := net.Listen("tcp", ownerAddr)
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := shard.NewRouter(owner, map[string]string{
		"n1": entry.url, "n2": "http://" + ownerAddr,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Config{Workers: 2, Shard: rt2, Store: st2, Replication: 2})
	runs2 := stubEngine(srv2.engine, func(ctx context.Context) (*Outcome, error) { return stubOutcome(), nil })
	go srv2.Serve(l2)
	t.Cleanup(func() { srv2.Close() })

	recoverBreaker(t, entry.srv.cfg.Shard, clk, owner)
	entry.srv.deliverHints()
	if depth := entry.srv.cfg.Hints.Depth(); depth != 0 {
		t.Fatalf("hint queue depth = %d after delivery, want 0", depth)
	}
	if got := srv2.counted("service.replica.received"); got != 1 {
		t.Fatalf("recovered owner received %d replicas, want 1", got)
	}
	if _, ok := st2.Get(key); !ok {
		t.Fatal("recovered owner's store is missing the handed-off result")
	}
	// The recovered owner answers the request from the handed-off result
	// without solving.
	_, v2 := postAnalysis(t, "http://"+ownerAddr, analysisBody(req, 20))
	if v2.Status != StatusDone || v2.Cache != CacheHit || *runs2 != 0 {
		t.Fatalf("recovered owner: status=%s cache=%s runs=%d, want done/hit/0", v2.Status, v2.Cache, *runs2)
	}
	if del := entry.srv.Metrics().Replication.HandoffDelivered; del != 1 {
		t.Fatalf("hints delivered = %d, want 1", del)
	}
}

// TestProberDrivenRecovery runs the full loop with live machinery: the
// prober opens the dead peer's breaker, submissions keep succeeding
// without paying transport timeouts, and after the peer restarts the
// prober closes the breaker and the handoff drains automatically.
func TestProberDrivenRecovery(t *testing.T) {
	breakerOpts := shard.BreakerOptions{
		FailureThreshold: 2,
		OpenBase:         100 * time.Millisecond,
		OpenMax:          300 * time.Millisecond,
	}
	nodes := bootFleet(t, []string{"n1", "n2"}, func(name string, cfg *Config, rt *shard.Router) {
		cfg.Replication = 2
		cfg.ProbeInterval = 25 * time.Millisecond
		cfg.HandoffInterval = 50 * time.Millisecond
		rt.Breakers = shard.NewBreakerSet(breakerOpts)
	})
	owner := "n2"
	entry := nodes["n1"]
	req := requestOwnedBy(t, entry.srv.engine, entry.srv.cfg.Shard, owner)
	ownerAddr := nodes[owner].addr
	nodes[owner].stop(t)
	waitUntil(t, "prober to open the dead peer's breaker", 10*time.Second, func() bool {
		return entry.srv.cfg.Shard.Breakers.State(owner) == shard.BreakerOpen
	})

	resp, v := postAnalysis(t, entry.url, analysisBody(req, 20))
	if v.Status != StatusDone {
		t.Fatalf("job during outage: status=%s error=%s", v.Status, v.Error)
	}
	if got := resp.Header.Get(shard.ServedByHeader); got == owner {
		t.Fatalf("request served by the dead owner %q", got)
	}
	if fails := entry.srv.counted("service.shard.forward_failed"); fails != 0 {
		t.Fatalf("forward failures = %d, want 0 during breaker-covered outage", fails)
	}
	waitUntil(t, "handoff hint queued", 5*time.Second, func() bool {
		return entry.srv.cfg.Hints.Depth() >= 1
	})

	l2, err := net.Listen("tcp", ownerAddr)
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := shard.NewRouter(owner, map[string]string{
		"n1": entry.url, "n2": "http://" + ownerAddr,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Config{Workers: 2, Shard: rt2, Store: st2, Replication: 2})
	go srv2.Serve(l2)
	t.Cleanup(func() { srv2.Close() })

	// No manual nudges from here: the prober notices the recovery, closes
	// the breaker, and its OnHealthy kick drains the hint queue.
	waitUntil(t, "breaker to close after restart", 10*time.Second, func() bool {
		return entry.srv.cfg.Shard.Breakers.State(owner) == shard.BreakerClosed
	})
	waitUntil(t, "handoff to drain to the recovered owner", 10*time.Second, func() bool {
		return entry.srv.cfg.Hints.Depth() == 0 && srv2.counted("service.replica.received") >= 1
	})
	if tr := entry.srv.counted("service.fleet.breaker.transition"); tr < 2 {
		t.Fatalf("breaker transitions observed = %d, want >= 2 (open and close)", tr)
	}
}

// TestOwnerUnavailablePollTypedError: polling a node-prefixed job ID while
// its owner is down answers the typed owner_unavailable kind — on both the
// transport-failure and open-breaker paths — and recovers once the owner
// returns.
func TestOwnerUnavailablePollTypedError(t *testing.T) {
	clk := newTestClock()
	nodes := bootFleet(t, []string{"n1", "n2"}, func(name string, cfg *Config, rt *shard.Router) {
		rt.Breakers = shard.NewBreakerSet(shard.BreakerOptions{Now: clk.Now})
	})
	req := requestOwnedBy(t, nodes["n2"].srv.engine, nodes["n2"].srv.cfg.Shard, "n2")
	_, v := postAnalysis(t, nodes["n2"].url, analysisBody(req, 20))
	if v.Status != StatusDone || !strings.HasPrefix(v.ID, "n2:") {
		t.Fatalf("seed job: status=%s id=%s", v.Status, v.ID)
	}

	// Down: close only the listener, keeping the server (and its jobs map)
	// alive for the recovery phase.
	nodes["n2"].listener.Close()
	pollKind := func() (int, string) {
		resp, err := http.Get(nodes["n1"].url + "/v1/analyses/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		_ = readJSONBody(resp, &eb)
		return resp.StatusCode, eb.Kind
	}
	if code, kind := pollKind(); code != http.StatusBadGateway || kind != errKindOwnerUnavailable {
		t.Fatalf("poll with owner down: code=%d kind=%q, want 502/%s", code, kind, errKindOwnerUnavailable)
	}
	// Trip the breaker fully open: the poll now fails fast off the breaker
	// with the same typed kind, no transport attempt.
	tripBreaker(t, nodes["n1"].srv.cfg.Shard, "n2")
	if code, kind := pollKind(); code != http.StatusBadGateway || kind != errKindOwnerUnavailable {
		t.Fatalf("poll with breaker open: code=%d kind=%q, want 502/%s", code, kind, errKindOwnerUnavailable)
	}

	// Recovery: re-listen on the same address with the same server; once
	// the breaker closes, the poll flows again and finds the job.
	l2, err := net.Listen("tcp", nodes["n2"].addr)
	if err != nil {
		t.Fatal(err)
	}
	go nodes["n2"].srv.Serve(l2)
	recoverBreaker(t, nodes["n1"].srv.cfg.Shard, clk, "n2")
	waitUntil(t, "poll to recover", 5*time.Second, func() bool {
		resp, err := http.Get(nodes["n1"].url + "/v1/analyses/" + v.ID)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var got JobView
		if readJSONBody(resp, &got) != nil {
			return false
		}
		return resp.StatusCode == http.StatusOK && got.Status == StatusDone
	})
}

// TestClientFailsOverOn503BeyondDeadline: a 503 whose Retry-After exceeds
// the caller's remaining budget is as good as unreachable — the client
// fails over to a peer instead of timing out waiting.
func TestClientFailsOverOn503BeyondDeadline(t *testing.T) {
	var busyHits atomic.Int64
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		busyHits.Add(1)
		w.Header().Set("Retry-After", "30")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"service: job queue is full"}`)
	}))
	defer busy.Close()
	nodes := bootRing(t, []string{"n1"})

	c := NewClient(busy.URL)
	c.Peers = []string{nodes["n1"].url}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	v, err := c.Submit(ctx, &AnalysisRequest{Architecture: "builtin:1", SkipSteadyState: true, WaitSeconds: 4})
	if err != nil {
		t.Fatalf("failover submit: %v", err)
	}
	if v.Status != StatusDone {
		t.Fatalf("failover job status = %s", v.Status)
	}
	if busyHits.Load() == 0 {
		t.Fatal("base URL was never tried")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("failover took %v; it should not wait out the Retry-After", elapsed)
	}
}

// TestFailoverEligibility pins the failover decision table: transport
// errors always fail over; 503s only when the hinted wait exceeds the
// caller's remaining deadline.
func TestFailoverEligibility(t *testing.T) {
	c := NewClient("http://example.invalid")
	bg := context.Background()
	short, cancelShort := context.WithTimeout(bg, 2*time.Second)
	defer cancelShort()
	long, cancelLong := context.WithTimeout(bg, time.Hour)
	defer cancelLong()

	transport := &transportError{err: errors.New("connection refused")}
	busy := &apiError{Status: http.StatusServiceUnavailable, RetryAfter: 30}
	cases := []struct {
		name string
		ctx  context.Context
		err  error
		want bool
	}{
		{"transport error", bg, transport, true},
		{"503 beyond deadline", short, busy, true},
		{"503 within deadline", long, busy, false},
		{"503 without deadline", bg, busy, false},
		{"503 without hint", short, &apiError{Status: http.StatusServiceUnavailable}, false},
		{"429 with hint", short, &apiError{Status: http.StatusTooManyRequests, RetryAfter: 30}, false},
		{"plain 500", short, &apiError{Status: http.StatusInternalServerError}, false},
	}
	for _, tc := range cases {
		if got := c.failoverEligible(tc.ctx, tc.err); got != tc.want {
			t.Errorf("%s: eligible=%v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestTenantRateLimit429: a tenant past its token budget is rejected with
// 429, a Retry-After hint and the typed tenant_rate kind, while other
// tenants are unaffected.
func TestTenantRateLimit429(t *testing.T) {
	srv := New(Config{Workers: 2, Tenants: &TenantPolicy{
		Tenants: map[string]TenantConfig{"batch": {Rate: 5, Burst: 5}},
	}})
	stubEngine(srv.engine, func(ctx context.Context) (*Outcome, error) { return stubOutcome(), nil })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	t.Cleanup(func() { srv.Close() })

	var ok, limited int
	for i := 0; i < 10; i++ {
		body := fmt.Sprintf(`{"architecture":"builtin:1","skip_steady_state":true,"nmax":%d,"wait_seconds":5}`, i%9)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyses", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(TenantHeader, "batch")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted:
			ok++
		case http.StatusTooManyRequests:
			limited++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			var eb errorBody
			if readJSONBody(resp, &eb) != nil || eb.Kind != "tenant_rate" {
				t.Fatalf("429 kind = %q, want tenant_rate", eb.Kind)
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if ok < 4 || limited < 3 {
		t.Fatalf("admitted=%d limited=%d; want ~5 admitted and the rest rate-limited", ok, limited)
	}
	// The default tenant has no budget and sails through.
	resp, v := postAnalysis(t, ts.URL, `{"architecture":"builtin:1","skip_steady_state":true,"wait_seconds":5}`)
	if resp.StatusCode != http.StatusOK || v.Status != StatusDone {
		t.Fatalf("default tenant: code=%d status=%s", resp.StatusCode, v.Status)
	}
	m := srv.Metrics()
	if m.Tenants["batch"].Shed[shedReasonRate] < 3 || m.Tenants["batch"].Admitted < 4 {
		t.Fatalf("tenant metrics = %+v", m.Tenants["batch"])
	}
}

// TestTenantInFlightQuota: a tenant at its in-flight bound is rejected
// until one of its jobs finishes.
func TestTenantInFlightQuota(t *testing.T) {
	srv := New(Config{Workers: 2, Tenants: &TenantPolicy{
		Tenants: map[string]TenantConfig{"slow": {MaxInFlight: 1}},
	}})
	release := make(chan struct{})
	stubEngine(srv.engine, func(ctx context.Context) (*Outcome, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return stubOutcome(), nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	t.Cleanup(func() { srv.Close() })

	post := func(nmax int) (*http.Response, *JobView) {
		t.Helper()
		body := fmt.Sprintf(`{"architecture":"builtin:1","skip_steady_state":true,"nmax":%d}`, nmax)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyses", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(TenantHeader, "slow")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v JobView
		_ = readJSONBody(resp, &v)
		return resp, &v
	}
	resp1, v1 := post(1)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp1.StatusCode)
	}
	resp2, _ := post(2)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit with one in flight: %d, want 429", resp2.StatusCode)
	}
	close(release)
	job, _ := srv.Job(v1.ID)
	<-job.Done()
	waitUntil(t, "in-flight slot release", 2*time.Second, func() bool {
		resp3, _ := post(3)
		return resp3.StatusCode == http.StatusAccepted || resp3.StatusCode == http.StatusOK
	})
}

// TestPressureShedsByPriority: under queue pressure, low-priority tenants
// are shed while high-priority tenants are still admitted.
func TestPressureShedsByPriority(t *testing.T) {
	a := newAdmission(&TenantPolicy{Tenants: map[string]TenantConfig{
		"low":  {Priority: 1},
		"high": {Priority: 10},
	}})
	if rel, _, reason := a.admit("low", 0.8); rel != nil {
		t.Fatal("low-priority tenant admitted at 0.8 pressure")
	} else if reason != shedReasonPressure {
		t.Fatalf("shed reason = %q", reason)
	}
	if rel, _, _ := a.admit("high", 0.8); rel == nil {
		t.Fatal("high-priority tenant shed at 0.8 pressure")
	} else {
		rel()
	}
	if rel, _, _ := a.admit("low", 0.5); rel == nil {
		t.Fatal("low-priority tenant shed with a calm queue")
	} else {
		rel()
	}
	// The default priority (5) sheds between the two.
	if rel, _, _ := a.admit("unknown", 0.9); rel != nil {
		t.Fatal("default-priority tenant admitted at 0.9 pressure")
	}
	if !sort.Float64sAreSorted([]float64{shedAt(1), shedAt(5), shedAt(10)}) {
		t.Fatal("shedAt is not monotone in priority")
	}
}

// TestAdmissionTokenBucket pins the bucket math with a fake clock: burst,
// exhaustion with a computed Retry-After, refill and release idempotence.
func TestAdmissionTokenBucket(t *testing.T) {
	a := newAdmission(&TenantPolicy{Default: TenantConfig{Rate: 2, Burst: 2, MaxInFlight: 10}})
	now := time.Unix(1000, 0)
	a.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if rel, _, _ := a.admit("t", 0); rel == nil {
			t.Fatalf("burst admit %d refused", i)
		}
	}
	rel, retryIn, reason := a.admit("t", 0)
	if rel != nil || reason != shedReasonRate || retryIn < time.Second {
		t.Fatalf("exhausted bucket: rel=%v reason=%q retry=%v", rel != nil, reason, retryIn)
	}
	now = now.Add(time.Second) // 2 tokens refill
	rel, _, _ = a.admit("t", 0)
	if rel == nil {
		t.Fatal("refilled bucket refused")
	}
	rel()
	rel() // idempotent: the slot releases once
	if st := a.stats()["t"]; st.InFlight != 2 {
		t.Fatalf("in-flight = %d, want 2 (double release must not double-count)", st.InFlight)
	}
}

// TestTenantFairnessUnderNoisyNeighbor is the admission acceptance
// criterion: a flood from a 5 req/s tenant is pinned to its budget with
// 429 + Retry-After, while a second tenant's p99 latency stays within 2x
// its unloaded baseline.
func TestTenantFairnessUnderNoisyNeighbor(t *testing.T) {
	srv := New(Config{Workers: 4, Tenants: &TenantPolicy{
		Default: TenantConfig{Priority: 10},
		Tenants: map[string]TenantConfig{"noisy": {Rate: 5, Burst: 5, Priority: 1}},
	}})
	stubEngine(srv.engine, func(ctx context.Context) (*Outcome, error) {
		time.Sleep(5 * time.Millisecond)
		return stubOutcome(), nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	t.Cleanup(func() { srv.Close() })

	submit := func(tenant string, nmax int, horizon float64) (int, http.Header) {
		body := fmt.Sprintf(`{"architecture":"builtin:1","skip_steady_state":true,"nmax":%d,"horizon":%g,"wait_seconds":10}`, nmax, horizon)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyses", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set(TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v JobView
		_ = readJSONBody(resp, &v)
		return resp.StatusCode, resp.Header
	}
	const samples = 60
	measure := func(offset int) []time.Duration {
		lat := make([]time.Duration, 0, samples)
		for i := 0; i < samples; i++ {
			start := time.Now()
			// Distinct (nmax, horizon) per request defeats the result cache
			// so every sample pays a real solve.
			if code, _ := submit("", i%9, float64(offset+i)); code != http.StatusOK {
				t.Fatalf("quiet sample %d: status %d", i, code)
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		return lat
	}
	p99 := func(lat []time.Duration) time.Duration { return lat[len(lat)*99/100] }

	base := p99(measure(100))

	// Noisy neighbor floods while the quiet tenant measures again.
	stop := make(chan struct{})
	floodDone := make(chan int)
	go func() {
		var rejected int
		for i := 0; ; i++ {
			select {
			case <-stop:
				floodDone <- rejected
				return
			default:
			}
			code, hdr := submit("noisy", i%9, float64(1000+i%50))
			if code == http.StatusTooManyRequests {
				if hdr.Get("Retry-After") == "" {
					t.Error("noisy 429 without Retry-After")
					floodDone <- rejected
					return
				}
				rejected++
			}
		}
	}()
	loaded := p99(measure(200))
	close(stop)
	rejected := <-floodDone

	if rejected == 0 {
		t.Fatal("noisy tenant was never rate-limited")
	}
	// Small absolute slack keeps scheduler noise on a near-zero baseline
	// from flaking the ratio.
	if loaded > 2*base+50*time.Millisecond {
		t.Fatalf("quiet tenant p99 %v under load, %v unloaded: breach of the 2x isolation bound", loaded, base)
	}
	t.Logf("quiet p99 unloaded=%v loaded=%v; noisy rejections=%d", base, loaded, rejected)
}

// TestFleetPromExposition asserts the new fleet metrics — breaker states,
// failover, handoff, replication and per-tenant admission — appear in both
// the Prometheus exposition and /v1/metrics.
func TestFleetPromExposition(t *testing.T) {
	nodes := bootFleet(t, []string{"n1", "n2"}, func(name string, cfg *Config, rt *shard.Router) {
		cfg.Replication = 2
		rt.Breakers = shard.NewBreakerSet(shard.BreakerOptions{Now: newTestClock().Now})
		if name == "n1" {
			cfg.Tenants = &TenantPolicy{Tenants: map[string]TenantConfig{"t1": {Rate: 1, Burst: 1}}}
		}
	})
	entry := nodes["n1"]
	owner := "n2"
	req := requestOwnedBy(t, entry.srv.engine, entry.srv.cfg.Shard, owner)
	nodes[owner].srv.Close()
	tripBreaker(t, entry.srv.cfg.Shard, owner)
	post := func() int {
		hreq, _ := http.NewRequest(http.MethodPost, entry.url+"/v1/analyses", strings.NewReader(analysisBody(req, 20)))
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set(TenantHeader, "t1")
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(); code != http.StatusOK {
		t.Fatalf("admitted submit: %d", code)
	}
	if code := post(); code != http.StatusTooManyRequests {
		t.Fatalf("over-budget submit: %d, want 429", code)
	}
	waitUntil(t, "handoff hint queued", 5*time.Second, func() bool {
		return entry.srv.cfg.Hints.Depth() >= 1
	})

	resp, err := http.Get(entry.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	if _, err := io.Copy(buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, want := range []string{
		`secserved_shard_breaker_state{peer="n2"} 2`,
		"secserved_shard_failover_total 1",
		"secserved_shard_breaker_transitions_total",
		"secserved_replication_factor 2",
		"secserved_handoff_pending 1",
		"secserved_handoff_queued_total 1",
		"secserved_replica_pushed_total",
		`secserved_tenant_admitted_total{tenant="t1"} 1`,
		`secserved_tenant_shed_total{tenant="t1",reason="rate"} 1`,
		`secserved_tenant_in_flight{tenant="t1"}`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("prometheus page missing %q", want)
		}
	}
	m := entry.srv.Metrics()
	if m.Shard == nil || m.Shard.Breakers["n2"] != "open" || m.Shard.Failovers != 1 {
		t.Fatalf("shard metrics = %+v", m.Shard)
	}
	if m.Replication == nil || m.Replication.HandoffPending != 1 || m.Replication.HandoffQueued != 1 {
		t.Fatalf("replication metrics = %+v", m.Replication)
	}
	if m.Tenants["t1"].Admitted != 1 || m.Tenants["t1"].Shed[shedReasonRate] != 1 {
		t.Fatalf("tenant metrics = %+v", m.Tenants["t1"])
	}
}
