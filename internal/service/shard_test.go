package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shard"
)

// shardNode is one booted secserved instance in a test ring.
type shardNode struct {
	srv  *Server
	url  string
	runs *atomic.Int64
}

// bootRing starts one server per name on loopback listeners, all sharing a
// consistent-hash view of each other, each with a stubbed engine that
// counts solves and holds long enough for duplicates to overlap.
func bootRing(t *testing.T, names []string) map[string]*shardNode {
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
	nodes := make(map[string]*shardNode, len(names))
	for _, n := range names {
		rt, err := shard.NewRouter(n, peers, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Workers: 2, Shard: rt})
		runs := &atomic.Int64{}
		srv.engine.run = func(ctx context.Context, rr *resolvedRequest) (*Outcome, error) {
			runs.Add(1)
			time.Sleep(150 * time.Millisecond)
			return stubOutcome(), nil
		}
		go srv.Serve(listeners[n])
		nodes[n] = &shardNode{srv: srv, url: peers[n], runs: runs}
		t.Cleanup(func() { srv.Close() })
	}
	return nodes
}

// requestOwnedBy searches the (nmax, horizon) request space for one whose
// canonical key the ring assigns to owner.
func requestOwnedBy(t *testing.T, e *Engine, rt *shard.Router, owner string) *AnalysisRequest {
	t.Helper()
	for n := 0; n <= 8; n++ {
		for h := 1; h <= 50; h++ {
			req := &AnalysisRequest{
				Architecture:    "builtin:1",
				SkipSteadyState: true,
				NMax:            n,
				Horizon:         float64(h),
			}
			key, err := e.Fingerprint(req)
			if err != nil {
				t.Fatal(err)
			}
			if o, _ := rt.Owner(key); o == owner {
				return req
			}
		}
	}
	t.Fatalf("no request owned by %s in the search space", owner)
	return nil
}

func postAnalysis(t testing.TB, base string, body string) (*http.Response, *JobView) {
	t.Helper()
	resp, err := http.Post(base+"/v1/analyses", "application/json", strings.NewReader(body))
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

func readJSONBody(resp *http.Response, out any) error {
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestShardRingAgreesOnOwnership checks every node's router assigns each
// canonical key to exactly one owner — the invariant that makes one-hop
// forwarding correct.
func TestShardRingAgreesOnOwnership(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	nodes := bootRing(t, names)
	e := nodes["n1"].srv.engine
	seen := make(map[string]bool)
	for n := 0; n <= 8; n++ {
		req := &AnalysisRequest{Architecture: "builtin:1", SkipSteadyState: true, NMax: n}
		key, err := e.Fingerprint(req)
		if err != nil {
			t.Fatal(err)
		}
		var owner string
		for _, name := range names {
			o, _ := nodes[name].srv.cfg.Shard.Owner(key)
			if owner == "" {
				owner = o
			} else if o != owner {
				t.Fatalf("key %s: node %s says owner %s, others say %s", key[:12], name, o, owner)
			}
		}
		seen[owner] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all keys landed on one node %v; ring is not spreading", seen)
	}
}

// TestShardForwardingDedupsOnOwner submits the same analysis concurrently
// through two non-owner nodes and checks both are forwarded to the owner,
// which runs the solve exactly once (single-flight across the forwarded
// duplicate) — the tentpole's routing acceptance criterion.
func TestShardForwardingDedupsOnOwner(t *testing.T) {
	nodes := bootRing(t, []string{"n1", "n2", "n3"})
	owner := "n3"
	req := requestOwnedBy(t, nodes["n1"].srv.engine, nodes["n1"].srv.cfg.Shard, owner)
	body := fmt.Sprintf(`{"architecture":"builtin:1","skip_steady_state":true,"nmax":%d,"horizon":%g,"wait_seconds":20}`,
		req.NMax, req.Horizon)

	var wg sync.WaitGroup
	views := make([]*JobView, 2)
	served := make([]string, 2)
	for i, via := range []string{"n1", "n2"} {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			resp, v := postAnalysis(t, base, body)
			views[i] = v
			served[i] = resp.Header.Get(shard.ServedByHeader)
		}(i, nodes[via].url)
	}
	wg.Wait()

	for i, v := range views {
		if v.Status != StatusDone {
			t.Fatalf("duplicate %d: status=%s error=%s", i, v.Status, v.Error)
		}
		if served[i] != owner {
			t.Fatalf("duplicate %d served by %q, want %s", i, served[i], owner)
		}
		if v.Node != owner {
			t.Fatalf("duplicate %d ran on node %q, want %s", i, v.Node, owner)
		}
		if !strings.HasPrefix(v.ID, owner+":") {
			t.Fatalf("duplicate %d job ID %s lacks owner prefix", i, v.ID)
		}
	}
	if got := nodes[owner].runs.Load(); got != 1 {
		t.Fatalf("owner solved %d times, want 1 (single-flight across forwarded duplicates)", got)
	}
	for _, n := range []string{"n1", "n2"} {
		if got := nodes[n].runs.Load(); got != 0 {
			t.Fatalf("non-owner %s solved %d times, want 0", n, got)
		}
		if fwd := nodes[n].srv.counted("service.shard.forwarded"); fwd != 1 {
			t.Fatalf("node %s forwarded %d, want 1", n, fwd)
		}
	}
	if rcv := nodes[owner].srv.counted("service.shard.received_forwarded"); rcv != 2 {
		t.Fatalf("owner received %d forwarded submissions, want 2", rcv)
	}

	// A poll through a node that never saw the job is proxied to the owner
	// by the ID's node prefix.
	resp, err := http.Get(nodes["n2"].url + "/v1/analyses/" + views[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	var polled JobView
	if err := readJSONBody(resp, &polled); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || polled.Status != StatusDone || polled.Node != owner {
		t.Fatalf("cross-node poll: code=%d status=%s node=%s", resp.StatusCode, polled.Status, polled.Node)
	}
	if got := resp.Header.Get(shard.ServedByHeader); got != owner {
		t.Fatalf("cross-node poll served by %q, want %s", got, owner)
	}
	// The shard section shows up in the owner's metrics.
	m := nodes[owner].srv.Metrics()
	if m.Shard == nil || m.Shard.Node != owner || len(m.Shard.Nodes) != 3 {
		t.Fatalf("owner shard metrics = %+v", m.Shard)
	}
}

// TestShardFallsBackWhenOwnerDown kills the owning node and checks a
// non-owner serves the request locally instead of failing the client.
func TestShardFallsBackWhenOwnerDown(t *testing.T) {
	nodes := bootRing(t, []string{"n1", "n2", "n3"})
	owner := "n2"
	req := requestOwnedBy(t, nodes["n1"].srv.engine, nodes["n1"].srv.cfg.Shard, owner)
	if err := nodes[owner].srv.Close(); err != nil {
		t.Fatal(err)
	}

	body := fmt.Sprintf(`{"architecture":"builtin:1","skip_steady_state":true,"nmax":%d,"horizon":%g,"wait_seconds":20}`,
		req.NMax, req.Horizon)
	resp, v := postAnalysis(t, nodes["n1"].url, body)
	if v.Status != StatusDone {
		t.Fatalf("fallback job: status=%s error=%s", v.Status, v.Error)
	}
	if got := resp.Header.Get(shard.ServedByHeader); got != "n1" {
		t.Fatalf("fallback served by %q, want n1", got)
	}
	if !strings.HasPrefix(v.ID, "n1:") {
		t.Fatalf("fallback job ID %s, want local n1 prefix", v.ID)
	}
	if runs := nodes["n1"].runs.Load(); runs != 1 {
		t.Fatalf("fallback ran %d local solves, want 1", runs)
	}
	if fails := nodes["n1"].srv.counted("service.shard.forward_failed"); fails != 1 {
		t.Fatalf("forward failures = %d, want 1", fails)
	}
}

// TestClientPeerFailover points a client at a dead base URL with a live
// peer and checks transport-level failover keeps the request flowing.
func TestClientPeerFailover(t *testing.T) {
	nodes := bootRing(t, []string{"n1"})
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + dead.Addr().String()
	dead.Close() // nothing listens here any more

	c := NewClient(deadURL)
	c.Peers = []string{nodes["n1"].url}
	v, err := c.Analyze(context.Background(), &AnalysisRequest{Architecture: "builtin:1", SkipSteadyState: true})
	if err != nil {
		t.Fatalf("failover analyze: %v", err)
	}
	if v.Status != StatusDone {
		t.Fatalf("failover job status = %s", v.Status)
	}
}
