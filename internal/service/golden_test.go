package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares got against testdata/<name>.golden, rewriting under
// -update — the idiom internal/obs and internal/report use.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s mismatch:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// goldenNode is one node of the golden ring.
type goldenNode struct {
	srv *Server
	url string
}

// bootGoldenRing boots a two-node replicated loopback ring running the real
// solve pipeline, with a job journal, tenant admission (tenant "batch" may
// submit once) and a flight ring large enough never to wrap, served over
// HTTP.
func bootGoldenRing(t *testing.T) map[string]*goldenNode {
	t.Helper()
	names := []string{"n1", "n2"}
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
	nodes := make(map[string]*goldenNode, len(names))
	for _, n := range names {
		rt, err := shard.NewRouter(n, peers, 0)
		if err != nil {
			t.Fatal(err)
		}
		journal, err := store.OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{
			Workers:          1,
			Shard:            rt,
			Replication:      2,
			Journal:          journal,
			Tenants:          &TenantPolicy{Tenants: map[string]TenantConfig{"batch": {Rate: 1e-3, Burst: 1}}},
			FlightSize:       4096,
			EnableFlightHTTP: true,
		})
		served := make(chan struct{})
		go func(l net.Listener) {
			srv.Serve(l)
			close(served)
		}(listeners[n])
		t.Cleanup(func() {
			srv.Close()
			<-served
		})
		nodes[n] = &goldenNode{srv: srv, url: peers[n]}
	}
	return nodes
}

// settle waits until the node's collector has seen n finished spans (or
// observations) named name: a response can reach the client before the
// span around it ends, so every step waits for its spans to land.
func settle(t *testing.T, srv *Server, name string, n uint64) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("%d %s spans", n, name), 10*time.Second, func() bool {
		h, ok := srv.collector.Histogram(name)
		return ok && h.Count == n
	})
}

// TestGoldenServiceBodies pins the bodies of /metrics, /v1/metrics,
// /v1/node/status and /debug/flight on both nodes of a deterministic
// two-node run: one forward (n1 → n2), one solve on n2 whose first
// steady-state solver attempt is an injected divergence, one replica push
// (n2 → n1), one cache hit on n2 and one submission shed by its tenant's
// rate. Uptimes, times, durations, trace and span IDs and histogram bucket
// counts are normalised; everything else is byte-for-byte.
func TestGoldenServiceBodies(t *testing.T) {
	enableFaults(t, "solver.diverge:n=1")
	nodes := bootGoldenRing(t)
	n1, n2 := nodes["n1"], nodes["n2"]

	// The first horizon whose canonical key n2 owns, so the submission to n1
	// is forwarded.
	var body string
	for h := 1; body == ""; h++ {
		req := &AnalysisRequest{Architecture: "builtin:1", Category: "c", Protection: "none", Horizon: float64(h)}
		key, err := n2.srv.engine.Fingerprint(req)
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := n2.srv.cfg.Shard.Owner(key); owner == "n2" {
			body = fmt.Sprintf(`{"architecture":"builtin:1","category":"c","protection":"none","horizon":%d,"wait_seconds":30}`, h)
		}
		if h > 100 {
			t.Fatal("no request owned by n2")
		}
	}

	// The tenant name needs label escaping on /metrics.
	_, v := postAnalysisHeaders(t, n1.url, body, map[string]string{TenantHeader: `ops"1`})
	if v.Status != StatusDone || v.Cache != CacheMiss {
		t.Fatalf("forwarded solve: status=%s cache=%s error=%q", v.Status, v.Cache, v.Error)
	}
	settle(t, n2.srv, "service.replicate.push", 1)
	settle(t, n1.srv, "http.request", 2) // the client POST and the replica PUT
	settle(t, n2.srv, "http.request", 1)

	batch := map[string]string{TenantHeader: "batch"}
	_, v = postAnalysisHeaders(t, n2.url, body, batch)
	if v.Status != StatusDone || v.Cache != CacheHit {
		t.Fatalf("repeat on owner: status=%s cache=%s error=%q", v.Status, v.Cache, v.Error)
	}
	settle(t, n2.srv, "http.request", 2)
	if resp, _ := postAnalysisHeaders(t, n2.url, body, batch); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submission: status %d, want 429", resp.StatusCode)
	}
	settle(t, n2.srv, "http.request", 3)
	waitUntil(t, "two completed jobs on n2", 10*time.Second, func() bool {
		return n2.srv.Metrics().JobsCompleted == 2
	})

	for _, name := range []string{"n1", "n2"} {
		n := nodes[name]
		get := func(path string) []byte {
			t.Helper()
			resp, err := http.Get(n.url + path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s on %s: %d %s", path, name, resp.StatusCode, raw)
			}
			return raw
		}
		// Each fetch's own request span lands before the next fetch starts.
		served := map[string]uint64{"n1": 2, "n2": 3}[name]
		fetch := func(path string) []byte {
			t.Helper()
			raw := get(path)
			served++
			settle(t, n.srv, "http.request", served)
			return raw
		}
		golden(t, "flight_"+name, normaliseFlight(t, fetch("/debug/flight")))
		golden(t, "metrics_"+name, uptimePattern.ReplaceAllString(string(fetch("/v1/metrics")), `"uptime_seconds": 0`))
		golden(t, "node_status_"+name, normaliseJSON(t, fetch("/v1/node/status")))
		golden(t, "prometheus_"+name, normaliseProm(string(fetch("/metrics"))))
	}
}

// volatileKeys are JSON fields whose values depend on the clock, the build
// or the trace/span ID allocator rather than on what the run did.
var volatileKeys = map[string]bool{
	"uptime_seconds":          true,
	"solve_seconds":           true,
	"replication_lag_seconds": true,
	"go_version":              true,
	"module":                  true,
	"module_version":          true,
	"revision":                true,
	"revision_time":           true,
	"dirty":                   true,
	"start":                   true,
	"duration_seconds":        true,
	"trace":                   true,
	"id":                      true,
	"parent":                  true,
	"sum":                     true,
	"buckets":                 true,
}

var (
	// jobIDPattern matches the time-derived part of a job ID.
	jobIDPattern = regexp.MustCompile(`a\d{6}-[0-9a-f]{8}`)
	// uptimePattern matches the one volatile field of /v1/metrics, which is
	// compared raw so its field order is pinned too.
	uptimePattern = regexp.MustCompile(`"uptime_seconds": [^,\n]+`)
)

// normaliseJSON blanks volatile fields, sorts the span ring (spans from
// concurrent requests end in scheduling order) and re-renders the document
// with sorted keys.
func normaliseJSON(t *testing.T, raw []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return render(t, normaliseValue(t, "", doc))
}

// render encodes a normalised document with sorted keys, blanking job IDs.
func render(t *testing.T, doc any) string {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return jobIDPattern.ReplaceAllString(b.String(), "a000000-xxxxxxxx")
}

func normaliseValue(t *testing.T, key string, v any) any {
	if volatileKeys[key] {
		return "<volatile>"
	}
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			x[k] = normaliseValue(t, k, e)
		}
	case []any:
		for i, e := range x {
			x[i] = normaliseValue(t, "", e)
		}
		if key == "spans" {
			sortByEncoding(t, x)
		}
	}
	return v
}

// sortByEncoding orders a slice of normalised values by their JSON text.
func sortByEncoding(t *testing.T, xs []any) {
	t.Helper()
	enc := make([]string, len(xs))
	for i, x := range xs {
		b, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		enc[i] = string(b)
	}
	sort.Sort(byEncoding{xs, enc})
}

type byEncoding struct {
	xs  []any
	enc []string
}

func (b byEncoding) Len() int           { return len(b.xs) }
func (b byEncoding) Less(i, j int) bool { return b.enc[i] < b.enc[j] }
func (b byEncoding) Swap(i, j int) {
	b.xs[i], b.xs[j] = b.xs[j], b.xs[i]
	b.enc[i], b.enc[j] = b.enc[j], b.enc[i]
}

// normaliseFlight blanks each ring event's sequence number, time, span ID
// and duration, and the value of histogram and gauge events (latencies and
// a queue depth sampled while a worker races the submitter), then sorts the
// events: concurrent requests interleave in scheduling order, so the golden
// pins the multiset of events rather than their order.
func normaliseFlight(t *testing.T, raw []byte) string {
	t.Helper()
	var dump struct {
		Size    int              `json:"size"`
		Dropped uint64           `json:"dropped"`
		Events  []map[string]any `json:"events"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&dump); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	events := make([]any, len(dump.Events))
	for i, ev := range dump.Events {
		for _, k := range []string{"seq", "time_unix_nano", "span", "duration_us"} {
			if _, ok := ev[k]; ok {
				ev[k] = "<volatile>"
			}
		}
		if kind := ev["kind"]; kind == "hist" || kind == "gauge" {
			if _, ok := ev["value"]; ok {
				ev["value"] = "<volatile>"
			}
		}
		events[i] = ev
	}
	sortByEncoding(t, events)
	return render(t, map[string]any{"size": dump.Size, "dropped": dump.Dropped, "events": events})
}

// normaliseProm keeps only the +Inf bucket of each histogram series (the
// finite buckets present depend on the latencies) and blanks latency sums,
// the uptime and the sampled queue-depth gauge.
func normaliseProm(page string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(page, "\n") {
		name, _, _ := strings.Cut(line, " ")
		switch {
		case strings.Contains(name, "_bucket{") && !strings.Contains(name, `le="+Inf"`):
			continue
		case strings.HasPrefix(line, "#"):
		case strings.Contains(name, "_sum{"),
			name == "secserved_uptime_seconds",
			name == "secserved_service_queue_depth":
			line = name + " <volatile>\n"
		}
		b.WriteString(line)
	}
	return b.String()
}
