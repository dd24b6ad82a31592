package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// replication returns the effective replication factor (1 = off).
func (s *Server) replication() int {
	if s.cfg.Shard == nil || s.cfg.Replication < 2 {
		return 1
	}
	r := s.cfg.Replication
	if n := len(s.cfg.Shard.Nodes()); r > n {
		r = n
	}
	return r
}

// handleReplicaPut accepts a replicated outcome pushed by a peer (the
// key's owner replicating to its successor, or a failover owner handing
// off to the recovered primary). The payload is validated as an Outcome
// before it can land in any cache: replication must not become a vector
// for poisoning the content-addressed store.
func (s *Server) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	payload, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading replica payload: %w", err))
		return
	}
	var out Outcome
	if err := json.Unmarshal(payload, &out); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("replica payload is not an outcome: %w", err))
		return
	}
	// Warm both tiers (the in-memory result cache answers the next poll
	// without touching disk, the store survives a restart), then count.
	ctx := r.Context()
	s.engine.results.put(ctx, key, &out)
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Put(key, payload); err != nil {
			obs.Count(ctx, "service.replica.store_error", 1)
		}
	}
	s.tracer.Count("service.replica.received", 1)
	s.stampNode(w)
	w.WriteHeader(http.StatusNoContent)
}

// replicateOutcome pushes a freshly-computed outcome to the other nodes in
// the key's replica set (write-through, asynchronous — the client's
// response never waits on a peer). Unreachable replicas get a hinted-
// handoff record instead, replayed once their breaker closes. Cache hits
// don't replicate (the replica set already has the result) unless this
// node computed as a failover owner — then the down primary is owed the
// result regardless of how this node obtained it.
func (s *Server) replicateOutcome(job *Job, out *Outcome, cache CacheState) {
	rt := s.cfg.Shard
	factor := s.replication()
	if rt == nil || factor < 2 || job.key == "" || out == nil {
		return
	}
	if cache != CacheMiss && job.handoffOwner == "" {
		// A cache/disk/shared hit was already replicated when it was first
		// computed; re-pushing it would just be chatter. The exception is a
		// failover compute: however this node obtained the result, the down
		// primary is owed it.
		return
	}
	payload, err := json.Marshal(out)
	if err != nil {
		return
	}
	targets := rt.Replicas(job.key, factor)
	key := job.key
	trace := job.selfTraceContext()
	s.fleetWG.Add(1)
	go func() {
		defer s.fleetWG.Done()
		ctx, cancel := context.WithTimeout(s.fleetCtx, 15*time.Second)
		defer cancel()
		// Re-parent under the originating job's span, not the fleet span the
		// borrowed context carries: Detach strips the fleet span so the
		// traceparent Forward injects names the request's trace, making the
		// replica write visible in the assembled distributed trace.
		ctx = obs.Detach(ctx)
		if trace.Valid() {
			ctx = obs.WithRemote(ctx, trace)
		}
		for _, node := range targets {
			if node == rt.Self() || ctx.Err() != nil {
				continue
			}
			pctx, sp := s.tracer.StartSpan(ctx, "service.replicate.push")
			sp.Str("peer", node)
			sp.Str("key", key)
			s.pushReplica(pctx, node, key, payload)
			sp.End()
		}
	}()
}

// pushReplica attempts one replica write, falling back to a hint when the
// peer's breaker refuses the call or the call fails.
func (s *Server) pushReplica(ctx context.Context, node, key string, payload []byte) {
	resp, err := s.cfg.Shard.Forward(ctx, node, http.MethodPut, "/v1/replica/"+key, payload, "application/json", nil)
	if errors.Is(err, shard.ErrBreakerOpen) {
		s.queueHint(ctx, node, key, payload)
		return
	}
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode < http.StatusMultipleChoices {
			s.tracer.Count("service.replica.pushed", 1)
			return
		}
		err = fmt.Errorf("replica target %s returned %s", node, resp.Status)
	}
	s.tracer.Count("service.replica.failed", 1)
	s.queueHint(ctx, node, key, payload)
}

// queueHint records a result owed to a currently-unreachable node, tagged
// with the originating trace so the eventual delivery rejoins it.
func (s *Server) queueHint(ctx context.Context, node, key string, payload []byte) {
	if s.cfg.Hints == nil {
		return
	}
	var trace string
	if sp := obs.FromContext(ctx); sp != nil {
		trace = obs.TraceContext{TraceID: sp.TraceID(), SpanID: sp.ID()}.Traceparent()
	} else if tc, ok := obs.RemoteFrom(ctx); ok {
		trace = tc.Traceparent()
	}
	if err := s.cfg.Hints.Add(node, key, payload, trace); err != nil {
		obs.Count(ctx, "service.handoff.queue_error", 1)
		return
	}
	obs.Count(ctx, "service.handoff.queued", 1)
	obs.LogAttrs(ctx, "fleet.handoff.queued",
		obs.Attr{Key: "node", Kind: obs.KindString, Str: node},
		obs.Attr{Key: "key", Kind: obs.KindString, Str: key},
		obs.Attr{Key: "detail", Kind: obs.KindString, Str: "for " + node})
}

// startFleet wires the fleet-resilience background machinery: the breaker
// transition observer, the active health prober (when ProbeInterval > 0)
// and the hinted-handoff delivery loop. Called once from New.
func (s *Server) startFleet() {
	rt := s.cfg.Shard
	if rt == nil {
		return
	}
	// Long-lived context carrying a span from the server's tracer so
	// background events (breaker transitions, handoff deliveries) flow to
	// the collector and the flight ring like request events do.
	fctx, fspan := s.tracer.StartSpan(s.baseCtx, "service.fleet")
	s.fleetSpan = fspan
	s.fleetCtx, s.fleetCancel = context.WithCancel(fctx)

	if rt.Breakers != nil {
		rt.Breakers.OnTransition = func(node string, from, to shard.BreakerState) {
			s.tracer.Count("service.fleet.breaker.transition", 1)
			// The "detail" attribute is what the flight recorder surfaces,
			// so the black box shows which peer moved where.
			obs.LogAttrs(s.fleetCtx, "fleet.breaker.transition",
				obs.Attr{Key: "peer", Kind: obs.KindString, Str: node},
				obs.Attr{Key: "from", Kind: obs.KindString, Str: from.String()},
				obs.Attr{Key: "to", Kind: obs.KindString, Str: to.String()},
				obs.Attr{Key: "detail", Kind: obs.KindString, Str: node + ": " + from.String() + " -> " + to.String()})
		}
	}
	// Before the prober: its first successful probe calls kickHandoff.
	if s.cfg.Hints != nil {
		s.handoffKick = make(chan struct{}, 1)
		s.fleetWG.Add(1)
		go s.handoffLoop()
	}
	if s.cfg.ProbeInterval > 0 {
		s.prober = shard.NewProber(rt, s.cfg.ProbeInterval)
		s.prober.OnHealthy = func(node string) { s.kickHandoff() }
		s.prober.Start()
	}
}

// stopFleet halts the prober and handoff loop and waits for in-flight
// replica pushes. Called from Shutdown after the job drain (so results
// finished during the drain still replicate).
func (s *Server) stopFleet() {
	if s.prober != nil {
		s.prober.Stop()
	}
	if s.fleetCancel != nil {
		s.fleetCancel()
	}
	s.fleetWG.Wait()
	if s.fleetSpan != nil {
		s.fleetSpan.End()
	}
	// A probe canceled mid-dial can leave a never-used connection in the
	// pool, which the peer's http.Server counts as active for 5s, stalling
	// its Shutdown.
	if rt := s.cfg.Shard; rt != nil {
		rt.HTTP.CloseIdleConnections()
	}
}

// kickHandoff nudges the delivery loop (a recovered peer shouldn't wait
// out the ticker).
func (s *Server) kickHandoff() {
	if s.handoffKick == nil {
		return
	}
	select {
	case s.handoffKick <- struct{}{}:
	default:
	}
}

// handoffLoop periodically replays queued hints to nodes whose breaker has
// closed (the prober's recovery signal arrives through kickHandoff).
func (s *Server) handoffLoop() {
	defer s.fleetWG.Done()
	interval := s.cfg.HandoffInterval
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.fleetCtx.Done():
			return
		case <-t.C:
		case <-s.handoffKick:
		}
		s.deliverHints()
	}
}

// deliverHints replays every queued hint whose target breaker is closed.
// Delivery goes through the replica endpoint; a failure stops that node's
// drain (the breaker just recorded it, the next recovery retries).
func (s *Server) deliverHints() {
	rt := s.cfg.Shard
	q := s.cfg.Hints
	if rt == nil || q == nil {
		return
	}
	for _, node := range q.Nodes() {
		if rt.Breakers.State(node) != shard.BreakerClosed {
			continue
		}
		for _, h := range q.PendingFor(node) {
			if s.fleetCtx.Err() != nil {
				return
			}
			ctx, cancel := context.WithTimeout(s.fleetCtx, 10*time.Second)
			// Rejoin the trace that queued the hint (when it carried one), so
			// a delivery delayed by an outage still shows up in the original
			// request's assembled trace rather than the fleet machinery's.
			ctx = obs.Detach(ctx)
			if tc, ok := obs.ParseTraceparent(h.Trace); ok {
				ctx = obs.WithRemote(ctx, tc)
			}
			dctx, sp := s.tracer.StartSpan(ctx, "service.handoff.deliver")
			sp.Str("peer", node)
			sp.Str("key", h.Key)
			resp, err := rt.Forward(dctx, node, http.MethodPut, "/v1/replica/"+h.Key, h.Payload, "application/json", nil)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= http.StatusMultipleChoices {
					err = fmt.Errorf("replica target %s returned %s", node, resp.Status)
				}
			}
			if err != nil {
				sp.Str("error", err.Error())
			}
			sp.End()
			cancel()
			if err != nil {
				obs.Count(s.fleetCtx, "service.handoff.delivery_failed", 1)
				break // node relapsed: stop this drain, breaker state reflects it
			}
			_ = q.Delivered(node, h.Key)
			obs.Count(s.fleetCtx, "service.handoff.delivered", 1)
			obs.LogAttrs(s.fleetCtx, "fleet.handoff.delivered",
				obs.Attr{Key: "node", Kind: obs.KindString, Str: node},
				obs.Attr{Key: "key", Kind: obs.KindString, Str: h.Key},
				obs.Attr{Key: "detail", Kind: obs.KindString, Str: "to " + node})
		}
	}
}
