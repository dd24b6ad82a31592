package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/shard"
)

// errKindOwnerUnavailable classifies a job poll whose owning node is down
// (circuit open or unreachable) — typed so clients can distinguish "the
// job exists but its node is away" from a plain transport failure and
// keep polling until the owner returns.
const errKindOwnerUnavailable = "owner_unavailable"

// maybeForward routes a submission to the healthy node that owns its
// canonical key, reporting handled=true when it wrote the response (the
// request was proxied and the owner answered). handled=false means the
// caller runs the request locally: sharding is off, this node is the
// key's healthy owner, the request already arrived forwarded (one hop
// reaches the owner; the mark breaks routing loops when membership views
// diverge), the fingerprint cannot be computed (the local submission path
// then reports the proper validation error), or the owner was unreachable
// — availability beats placement, so an unreachable owner degrades to
// local compute instead of failing the client.
//
// Ownership consults the per-peer circuit breakers: an owner with an open
// breaker is skipped deterministically in favour of the next healthy ring
// successor, so every peer with a converged breaker view routes the key to
// the same failover owner and single-flight dedup reassembles there. A
// forward refused because another call holds the owner's half-open trial
// fails over to this node the same way. When this node computes a key it
// doesn't primarily own, handoffOwner names the skipped primary so the
// result is handed off to it on recovery. key is the request's canonical
// content address when it was computed ("" on the forwarded-in and
// no-fingerprint paths).
func (s *Server) maybeForward(w http.ResponseWriter, r *http.Request, req *AnalysisRequest, body []byte) (handled bool, key, handoffOwner string) {
	rt := s.cfg.Shard
	if rt == nil {
		return false, "", ""
	}
	ctx := r.Context()
	if from := r.Header.Get(shard.ForwardedHeader); from != "" {
		s.tracer.Count("service.shard.received_forwarded", 1)
		return false, "", ""
	}
	key, err := s.engine.Fingerprint(req)
	if err != nil {
		return false, "", ""
	}
	primary, _ := rt.Owner(key)
	node, self, failover := rt.HealthyOwner(key)
	var resp *http.Response
	if !self {
		// The tenant identity travels with the forward so the owner's
		// metrics attribute the work, but admission is only charged here at
		// the entry.
		var extra http.Header
		if t := r.Header.Get(TenantHeader); t != "" {
			extra = http.Header{TenantHeader: []string{t}}
		}
		resp, err = rt.Forward(ctx, node, http.MethodPost, "/v1/analyses", body, "application/json", extra)
		if errors.Is(err, shard.ErrBreakerOpen) {
			// Another call took the owner's half-open trial after the
			// lookup: fail over to this node.
			node, self, failover = rt.Self(), true, true
		}
	}
	if failover {
		s.tracer.Count("service.shard.failover", 1)
		obs.LogAttrs(ctx, "shard.failover",
			obs.Attr{Key: "key", Kind: obs.KindString, Str: key},
			obs.Attr{Key: "owner", Kind: obs.KindString, Str: primary},
			obs.Attr{Key: "failover_owner", Kind: obs.KindString, Str: node},
			obs.Attr{Key: "detail", Kind: obs.KindString, Str: primary + " -> " + node})
	}
	if self {
		s.tracer.Count("service.shard.owned", 1)
		if failover {
			// Computing on behalf of the down primary: owe it the result.
			return false, key, primary
		}
		return false, key, ""
	}
	if err == nil && resp.StatusCode >= http.StatusInternalServerError {
		// The owner answered but cannot take the work (draining, full
		// queue, internal failure). The analysis is deterministic and
		// idempotent, so computing it here is always safe.
		err = fmt.Errorf("owner %s returned %s", node, resp.Status)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		s.tracer.Count("service.shard.forward_failed", 1)
		// The log event lands in the flight ring (the request context's
		// tracer sinks include it), so the black box records the failover.
		obs.LogAttrs(ctx, "shard.forward.failed",
			obs.Attr{Key: "owner", Kind: obs.KindString, Str: node},
			obs.Attr{Key: "key", Kind: obs.KindString, Str: key},
			obs.Attr{Key: "error", Kind: obs.KindString, Str: err.Error()})
		// Local fallback computes a key this node doesn't own: the node we
		// failed to reach is owed the result once it comes back.
		return false, key, node
	}
	defer resp.Body.Close()
	s.tracer.Count("service.shard.forwarded", 1)
	relayResponse(w, resp, node)
	return true, key, ""
}

// proxyJobGet proxies a job or manifest poll to the node named by the job
// ID's "<node>:" prefix, reporting true when it wrote the response. IDs
// without a prefix, IDs this node owns, already-forwarded polls and unknown
// node names all fall through to the local lookup (which answers 404 for
// jobs that are genuinely elsewhere and unreachable). A poll whose owning
// node is down — circuit open, or the forward fails — answers 502 with the
// typed "owner_unavailable" kind so clients can keep polling through the
// outage instead of treating it as a dead job.
func (s *Server) proxyJobGet(w http.ResponseWriter, r *http.Request, id string) bool {
	rt := s.cfg.Shard
	if rt == nil {
		return false
	}
	node, _, ok := strings.Cut(id, ":")
	if !ok || node == rt.Self() {
		return false
	}
	if r.Header.Get(shard.ForwardedHeader) != "" {
		return false
	}
	if _, known := rt.URL(node); !known {
		return false
	}
	// An open breaker fails the forward fast instead of paying the
	// transport timeout for a node already known to be down.
	resp, err := rt.Forward(r.Context(), node, http.MethodGet, r.URL.Path, nil, "", nil)
	if err != nil {
		s.tracer.Count("service.shard.forward_failed", 1)
		s.stampNode(w)
		writeErrorKind(w, http.StatusBadGateway, errKindOwnerUnavailable,
			fmt.Errorf("job %s lives on node %s, which is unavailable: %v", id, node, err))
		return true
	}
	defer resp.Body.Close()
	relayResponse(w, resp, node)
	return true
}

// relayResponse copies a peer's response — status, body and the headers the
// API contract uses — to the client, stamping which node actually served it.
func relayResponse(w http.ResponseWriter, resp *http.Response, node string) {
	for _, h := range []string{"Content-Type", "Location", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	served := resp.Header.Get(shard.ServedByHeader)
	if served == "" {
		served = node
	}
	w.Header().Set(shard.ServedByHeader, served)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}
