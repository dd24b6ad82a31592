package service

import (
	"net/http"
	"sort"

	"repro/internal/obs"
)

// handleProm serves GET /metrics in the Prometheus text exposition format:
// the server's own worker-pool/job/engine/tier families followed by the rest
// of the collector's aggregate — obs counters, gauges and per-stage latency
// histograms (solve, transform, cache lookups, queue wait) — so one scrape
// covers the whole service. A collector count with a family of its own is
// rendered there alone, never again as secserved_<event>_total.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	m := s.Metrics()
	p := obs.NewPromWriter(w)
	counter := func(name string, v int64, help string) {
		p.Family("secserved_"+name, "counter", help)
		p.Int("secserved_"+name, v)
	}
	gauge := func(name string, v float64, help string) {
		p.Family("secserved_"+name, "gauge", help)
		p.Float("secserved_"+name, v)
	}
	// The engine cache and single-flight families and the per-tenant shed
	// family below read these collector counts from EngineStats and usage.
	rendered := map[string]bool{
		"service.cache.result.hit": true, "service.cache.result.miss": true, "service.cache.result.evict": true,
		"service.cache.model.hit": true, "service.cache.model.miss": true, "service.cache.model.evict": true,
		"service.singleflight.shared": true, "service.tenant.shed": true,
	}
	counted := func(name, event, help string) {
		counter(name, s.counted(event), help)
		rendered[event] = true
	}
	gauge("uptime_seconds", m.UptimeSeconds, "Seconds since the server started.")
	gauge("workers", float64(m.Workers), "Size of the analysis worker pool.")
	gauge("queue_depth", float64(m.QueueDepth), "Jobs accepted but not yet running.")
	gauge("queue_capacity", float64(m.QueueCapacity), "Bound on the job queue.")
	gauge("jobs_running", float64(m.JobsRunning), "Jobs currently executing.")
	gauge("retries_pending", float64(m.RetriesPending), "Jobs waiting out a retry backoff.")
	counted("jobs_accepted_total", "service.jobs.accepted", "Jobs accepted into the queue.")
	counted("jobs_completed_total", "service.jobs.completed", "Jobs finished successfully.")
	counted("jobs_failed_total", "service.jobs.failed", "Jobs finished in error.")
	counted("jobs_rejected_total", "service.jobs.rejected", "Submissions rejected by a full queue.")
	counted("jobs_retried_total", "service.jobs.retried", "Transient-failure re-enqueues.")
	counted("panics_recovered_total", "service.panic.recovered", "Job-path panics recovered; one panic shared by single-flight waiters counts once.")
	counter("engine_solves_total", m.Engine.Solves, "Full pipeline executions.")
	counter("engine_result_cache_hits_total", m.Engine.ResultCache.Hits, "Outcomes served from the result cache.")
	counter("engine_result_cache_misses_total", m.Engine.ResultCache.Misses, "Result-cache lookups that found no entry.")
	counter("engine_result_cache_evictions_total", m.Engine.ResultCache.Evictions, "Outcomes pushed out of the result cache by its bound.")
	counter("engine_model_cache_hits_total", m.Engine.ModelCache.Hits, "Prepared models served from cache.")
	counter("engine_model_cache_misses_total", m.Engine.ModelCache.Misses, "Model-cache lookups that found no entry.")
	counter("engine_model_cache_evictions_total", m.Engine.ModelCache.Evictions, "Prepared models pushed out of the model cache by its bound.")
	counter("engine_singleflight_shared_total", m.Engine.Shared, "Jobs that joined an identical in-flight solve.")
	counter("engine_disk_hits_total", m.Engine.DiskHits, "Outcomes served from the persistent store.")
	if st := m.Engine.Store; st != nil {
		counter("store_hits_total", st.Hits, "Persistent-store reads that found a valid entry.")
		counter("store_misses_total", st.Misses, "Persistent-store reads that found nothing.")
		counter("store_puts_total", st.Puts, "Outcomes written through to the persistent store.")
		counter("store_evictions_total", st.Evictions, "Entries evicted to hold the store size bound.")
		counter("store_quarantined_total", st.Quarantined, "Corrupt entries moved to quarantine.")
		gauge("store_entries", float64(st.Entries), "Entries resident in the persistent store.")
		gauge("store_bytes", float64(st.Bytes), "Bytes resident in the persistent store.")
		gauge("store_max_bytes", float64(st.MaxBytes), "Configured persistent-store size bound (0 = unbounded).")
	}
	if sh := m.Shard; sh != nil {
		gauge("shard_nodes", float64(len(sh.Nodes)), "Nodes in the consistent-hash ring.")
		counted("shard_owned_total", "service.shard.owned", "Submissions this node owned and ran.")
		counted("shard_forwarded_total", "service.shard.forwarded", "Submissions proxied to their owning node.")
		counted("shard_received_forwarded_total", "service.shard.received_forwarded", "Submissions received pre-routed from a peer.")
		counted("shard_forward_failed_total", "service.shard.forward_failed", "Forwards that fell back to local compute.")
		counted("shard_failover_total", "service.shard.failover", "Submissions routed past an open-breaker owner to a ring successor.")
		counted("shard_breaker_transitions_total", "service.fleet.breaker.transition", "Peer circuit-breaker state changes.")
		counter("shard_probes_total", sh.Probes, "Active peer health probes issued.")
		counter("shard_probe_failures_total", sh.ProbeFailures, "Active peer health probes that failed.")
		if len(sh.Breakers) > 0 {
			p.Family("secserved_shard_breaker_state", "gauge", "Peer circuit-breaker state (0=closed, 1=half-open, 2=open).")
			for _, peer := range sortedKeys(sh.Breakers) {
				p.Int("secserved_shard_breaker_state", breakerStateValue(sh.Breakers[peer]), "peer", peer)
			}
		}
	}
	if rp := m.Replication; rp != nil {
		gauge("replication_factor", float64(rp.Factor), "Effective result replication factor.")
		counted("replica_pushed_total", "service.replica.pushed", "Replica writes delivered to peers.")
		counted("replica_push_failed_total", "service.replica.failed", "Replica writes that fell back to a hinted-handoff record.")
		counted("replica_received_total", "service.replica.received", "Replica writes accepted from peers.")
		gauge("handoff_pending", float64(rp.HandoffPending), "Hinted-handoff records awaiting delivery.")
		counter("handoff_queued_total", rp.HandoffQueued, "Hinted-handoff records queued for unreachable replicas.")
		counter("handoff_delivered_total", rp.HandoffDelivered, "Hinted-handoff records replayed to recovered nodes.")
		counter("handoff_dropped_total", rp.HandoffDropped, "Hinted-handoff records displaced by the per-node bound.")
	}
	if len(m.Tenants) > 0 {
		names := sortedKeys(m.Tenants)
		p.Family("secserved_tenant_admitted_total", "counter", "Submissions admitted per tenant.")
		for _, name := range names {
			p.Int("secserved_tenant_admitted_total", m.Tenants[name].Admitted, "tenant", name)
		}
		p.Family("secserved_tenant_in_flight", "gauge", "Accepted-but-unfinished jobs per tenant.")
		for _, name := range names {
			p.Int("secserved_tenant_in_flight", m.Tenants[name].InFlight, "tenant", name)
		}
		p.Family("secserved_tenant_shed_total", "counter", "Submissions shed per tenant and reason.")
		for _, name := range names {
			shed := m.Tenants[name].Shed
			for _, reason := range sortedKeys(shed) {
				p.Int("secserved_tenant_shed_total", shed[reason], "tenant", name, "reason", reason)
			}
		}
	}
	if jn := m.Journal; jn != nil {
		gauge("journal_pending_at_open", float64(jn.PendingAtOpen), "Replay backlog found when the journal opened.")
		counted("journal_replayed_total", "service.journal.replayed", "Jobs re-enqueued from the journal at startup.")
		counter("journal_appends_total", jn.Appends, "Journal entries written since open.")
		counted("journal_errors_total", "service.journal.errors", "Journal appends that failed (persistence degraded).")
	}
	_ = obs.WritePrometheus(w, s.collector, "secserved", func(event string) bool { return rendered[event] })
}

// breakerStateValue maps a breaker state name to its numeric gauge value.
func breakerStateValue(state string) int64 {
	switch state {
	case "half-open":
		return 1
	case "open":
		return 2
	default:
		return 0
	}
}

// sortedKeys returns the map's keys in ascending order (stable metric
// emission order).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
