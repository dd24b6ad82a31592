package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// clusterScrapeTimeout bounds one peer's /v1/node/status scrape during
// federation fan-out; a node slower than this is reported unreachable
// rather than stalling the whole cluster view.
const clusterScrapeTimeout = 3 * time.Second

// clusterTraceCap bounds how many assembled traces /v1/cluster/metrics
// returns (slowest first).
const clusterTraceCap = 20

// NodeStatus is the GET /v1/node/status body: one node's full contribution
// to the cluster observability plane, designed to be merged by any peer.
type NodeStatus struct {
	Node   string    `json:"node,omitempty"`
	Status string    `json:"status"`
	Build  BuildInfo `json:"build"`

	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	QueuePressure float64 `json:"queue_pressure"`
	JobsRunning   int64   `json:"jobs_running"`
	JobsAccepted  int64   `json:"jobs_accepted"`
	JobsCompleted int64   `json:"jobs_completed"`
	JobsFailed    int64   `json:"jobs_failed"`

	// RingOwnership is the fraction of the hash space this node owns (0 when
	// sharding is off); Breakers maps peer → circuit state as seen from this
	// node.
	RingOwnership float64           `json:"ring_ownership,omitempty"`
	Breakers      map[string]string `json:"breakers,omitempty"`

	// HintDepths maps peer → undelivered hinted-handoff records held here on
	// its behalf; ReplicationLagSeconds is the age of the oldest such hint —
	// how far behind the worst replica is.
	HintDepths            map[string]int `json:"hint_depths,omitempty"`
	HintsPending          int            `json:"hints_pending"`
	ReplicationLagSeconds float64        `json:"replication_lag_seconds"`

	// Journal and Replication mirror the /v1/metrics sections (nil when the
	// corresponding tier is off); Engine carries the cache statistics.
	Journal     *JournalMetrics     `json:"journal,omitempty"`
	Replication *ReplicationMetrics `json:"replication,omitempty"`
	Engine      EngineStats         `json:"engine"`

	// Tenants is the per-tenant usage/SLO accounting recorded on this node.
	Tenants map[string]TenantUsage `json:"tenants,omitempty"`

	// Histograms carries every latency histogram as a mergeable wire,
	// stamped with this node's name.
	Histograms map[string]obs.HistogramWire `json:"histograms,omitempty"`

	// Spans is the node's recent-span ring (for cross-node trace assembly).
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}

// nodeStatus assembles this node's status document.
func (s *Server) nodeStatus() NodeStatus {
	h := s.healthSnapshot()
	m := s.Metrics()
	ns := NodeStatus{
		Node:          s.cfg.NodeID,
		Status:        h.Status,
		Build:         s.buildInfo(),
		QueueDepth:    h.QueueDepth,
		QueueCapacity: h.QueueCapacity,
		QueuePressure: h.QueuePressure,
		JobsRunning:   h.JobsRunning,
		JobsAccepted:  m.JobsAccepted,
		JobsCompleted: m.JobsCompleted,
		JobsFailed:    m.JobsFailed,
		Journal:       m.Journal,
		Replication:   m.Replication,
		Engine:        m.Engine,
		Tenants:       s.usage.snapshot(),
	}
	if rt := s.cfg.Shard; rt != nil {
		if own := rt.Ring().Ownership(); own != nil {
			ns.RingOwnership = own[rt.Self()]
		}
		ns.Breakers = m.Shard.Breakers
	}
	if q := s.cfg.Hints; q != nil {
		ns.HintDepths = q.Depths()
		ns.HintsPending = q.Stats().Pending
		if oldest := q.OldestUnixNano(); oldest > 0 {
			ns.ReplicationLagSeconds = time.Since(time.Unix(0, oldest)).Seconds()
		}
	}
	node := s.cfg.NodeID
	hists := s.collector.Histograms()
	ns.Histograms = make(map[string]obs.HistogramWire, len(hists))
	for name, snap := range hists {
		ns.Histograms[name] = snap.Wire(node)
	}
	if s.spanLog != nil {
		ns.Spans = s.spanLog.Records()
	}
	return ns
}

// healthSnapshot computes the same health document /v1/healthz serves.
func (s *Server) healthSnapshot() Health {
	s.mu.Lock()
	draining := s.draining
	pending := len(s.retries)
	s.mu.Unlock()
	h := Health{
		Status:              "ok",
		UptimeSeconds:       time.Since(s.started).Seconds(),
		JobsRunning:         s.running.Load(),
		QueueDepth:          len(s.queue),
		QueueCapacity:       s.cfg.QueueDepth,
		ConsecutiveFailures: s.consecFailures.Load(),
		PanicsRecovered:     s.counted("service.panic.recovered"),
		RetriesPending:      pending,
	}
	if s.cfg.QueueDepth > 0 {
		h.QueuePressure = float64(h.QueueDepth) / float64(s.cfg.QueueDepth)
	}
	switch {
	case draining:
		h.Status = "draining"
	case h.ConsecutiveFailures >= int64(s.cfg.DegradedAfter) || h.QueuePressure >= 0.9:
		h.Status = "degraded"
	}
	return h
}

func (s *Server) handleNodeStatus(w http.ResponseWriter, r *http.Request) {
	s.stampNode(w)
	writeJSON(w, http.StatusOK, s.nodeStatus())
}

// UnreachableNode records a peer the federation fan-out could not scrape.
type UnreachableNode struct {
	Node   string `json:"node"`
	Reason string `json:"reason"`
}

// gatherCluster fans out to every ring peer's /v1/node/status (self is read
// in-process) through the peers' breakers — a peer the ring already
// considers down is reported unreachable (reason "breaker_open") without
// burning a scrape on it. Scrapes run in parallel; results come back in
// node order.
func (s *Server) gatherCluster() ([]NodeStatus, []UnreachableNode) {
	rt := s.cfg.Shard
	if rt == nil {
		return []NodeStatus{s.nodeStatus()}, nil
	}
	nodes := rt.Nodes()
	statuses := make([]*NodeStatus, len(nodes))
	failures := make([]*UnreachableNode, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		if node == rt.Self() {
			ns := s.nodeStatus()
			statuses[i] = &ns
			continue
		}
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			ns, err := s.scrapeNode(node)
			if err != nil {
				reason := err.Error()
				if errors.Is(err, shard.ErrBreakerOpen) {
					reason = "breaker_open"
				}
				failures[i] = &UnreachableNode{Node: node, Reason: reason}
				return
			}
			if ns.Node == "" {
				ns.Node = node
			}
			statuses[i] = ns
		}(i, node)
	}
	wg.Wait()
	var out []NodeStatus
	var unreachable []UnreachableNode
	for i := range nodes {
		if statuses[i] != nil {
			out = append(out, *statuses[i])
		}
		if failures[i] != nil {
			unreachable = append(unreachable, *failures[i])
		}
	}
	return out, unreachable
}

// scrapeNode fetches one peer's status document.
func (s *Server) scrapeNode(node string) (*NodeStatus, error) {
	ctx, cancel := context.WithTimeout(s.baseCtx, clusterScrapeTimeout)
	defer cancel()
	resp, err := s.cfg.Shard.Forward(ctx, node, http.MethodGet, "/v1/node/status", nil, "", nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s returned %s", node, resp.Status)
	}
	var ns NodeStatus
	if err := json.NewDecoder(io.LimitReader(resp.Body, 32<<20)).Decode(&ns); err != nil {
		return nil, fmt.Errorf("decoding %s status: %w", node, err)
	}
	return &ns, nil
}

// ClusterStatus is the GET /v1/cluster/status body: every reachable node's
// full status document plus the peers the fan-out could not reach.
type ClusterStatus struct {
	Self        string            `json:"self,omitempty"`
	Nodes       []NodeStatus      `json:"nodes"`
	Unreachable []UnreachableNode `json:"unreachable,omitempty"`
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	nodes, unreachable := s.gatherCluster()
	s.stampNode(w)
	writeJSON(w, http.StatusOK, ClusterStatus{
		Self:        s.cfg.NodeID,
		Nodes:       nodes,
		Unreachable: unreachable,
	})
}

// HistQuantiles are the convenience percentiles of one merged histogram.
type HistQuantiles struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	// Nodes is the merged wire's provenance.
	Nodes []string `json:"nodes,omitempty"`
}

// ClusterMetrics is the GET /v1/cluster/metrics body: the fleet rolled into
// one document — bucket-accurate merged histograms, fleet-wide tenant SLO
// accounting, and the slowest recent distributed traces.
type ClusterMetrics struct {
	Self        string            `json:"self,omitempty"`
	Nodes       []string          `json:"nodes"`
	Unreachable []UnreachableNode `json:"unreachable,omitempty"`

	JobsAccepted  int64 `json:"jobs_accepted"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsRunning   int64 `json:"jobs_running"`
	HintsPending  int   `json:"hints_pending"`

	// Histograms maps metric name → bucket-wise merged wire; Quantiles
	// pre-computes p50/p90/p99 from each merged wire.
	Histograms map[string]obs.HistogramWire `json:"histograms,omitempty"`
	Quantiles  map[string]HistQuantiles     `json:"quantiles,omitempty"`

	// Tenants is the fleet-wide merged per-tenant usage and burn rates.
	Tenants map[string]TenantUsage `json:"tenants,omitempty"`

	// Traces are the slowest recently-assembled traces (capped);
	// MultiNodeTraces counts assembled traces spanning more than one node.
	Traces          []obs.AssembledTrace `json:"traces,omitempty"`
	MultiNodeTraces int                  `json:"multi_node_traces"`
}

// mergeCluster rolls per-node status documents into the fleet view.
func mergeCluster(self string, nodes []NodeStatus, unreachable []UnreachableNode) ClusterMetrics {
	cm := ClusterMetrics{
		Self:        self,
		Unreachable: unreachable,
		Histograms:  make(map[string]obs.HistogramWire),
		Quantiles:   make(map[string]HistQuantiles),
	}
	wires := make(map[string][]obs.HistogramWire)
	var tenantMaps []map[string]TenantUsage
	var spans []obs.SpanRecord
	for _, ns := range nodes {
		cm.Nodes = append(cm.Nodes, ns.Node)
		cm.JobsAccepted += ns.JobsAccepted
		cm.JobsCompleted += ns.JobsCompleted
		cm.JobsFailed += ns.JobsFailed
		cm.JobsRunning += ns.JobsRunning
		cm.HintsPending += ns.HintsPending
		for name, w := range ns.Histograms {
			wires[name] = append(wires[name], w)
		}
		if len(ns.Tenants) > 0 {
			tenantMaps = append(tenantMaps, ns.Tenants)
		}
		spans = append(spans, ns.Spans...)
	}
	sort.Strings(cm.Nodes)
	for name, ws := range wires {
		merged, err := obs.MergeWires(ws...)
		if err != nil {
			// A node on a foreign bucket layout (mid-upgrade mixed fleet)
			// cannot merge; surface the name with an empty wire rather than
			// dropping the whole document.
			cm.Histograms[name] = obs.HistogramWire{}
			continue
		}
		cm.Histograms[name] = merged
		if snap, err := merged.Snapshot(); err == nil && snap.Count > 0 {
			cm.Quantiles[name] = HistQuantiles{
				Count: snap.Count,
				P50:   snap.P50(),
				P90:   snap.P90(),
				P99:   snap.P99(),
				Nodes: merged.Provenance(),
			}
		}
	}
	cm.Tenants = MergeTenantUsage(tenantMaps...)
	traces := obs.AssembleTraces(spans)
	for _, t := range traces {
		if t.MultiNode() {
			cm.MultiNodeTraces++
		}
	}
	if len(traces) > clusterTraceCap {
		traces = traces[:clusterTraceCap]
	}
	cm.Traces = traces
	return cm
}

func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	nodes, unreachable := s.gatherCluster()
	s.stampNode(w)
	writeJSON(w, http.StatusOK, mergeCluster(s.cfg.NodeID, nodes, unreachable))
}
