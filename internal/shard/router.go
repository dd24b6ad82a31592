package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// ForwardedHeader marks a request already routed by a peer, carrying the
// forwarding node's name. A receiving node never re-forwards such a
// request — with a consistent membership view one hop reaches the owner,
// and the header breaks the loop when views temporarily diverge.
const ForwardedHeader = "X-Secserved-Forwarded"

// ServedByHeader names the node that actually served a response.
const ServedByHeader = "X-Secserved-Node"

// ParsePeers parses a peer specification of the form
// "name=http://host:port,name2=http://host2:port" into a name→URL map.
func ParsePeers(spec string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rawURL, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		rawURL = strings.TrimSpace(rawURL)
		if !ok || name == "" || rawURL == "" {
			return nil, fmt.Errorf("shard: bad peer %q (want name=url)", part)
		}
		if strings.Contains(name, ":") {
			// Node names prefix job IDs as "<node>:<id>"; a colon in the
			// name would make the prefix ambiguous.
			return nil, fmt.Errorf("shard: peer name %q must not contain ':'", name)
		}
		u, err := url.Parse(rawURL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("shard: bad peer URL %q", rawURL)
		}
		if _, dup := peers[name]; dup {
			return nil, fmt.Errorf("shard: duplicate peer %q", name)
		}
		peers[name] = strings.TrimRight(rawURL, "/")
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("shard: empty peer set")
	}
	return peers, nil
}

// Router decides key ownership and forwards HTTP requests to peer nodes.
// It is immutable after construction and safe for concurrent use; a nil
// router owns everything locally.
type Router struct {
	self string
	ring *Ring
	urls map[string]string

	// HTTP is the client for peer calls. NewRouter installs one per router
	// that dials with a short timeout, so an unreachable owner fails fast
	// into local fallback, but leaves the overall request bounded only by
	// the caller's context (a forwarded analysis may legitimately hold the
	// connection for its synchronous wait).
	HTTP *http.Client

	// Breakers holds the per-peer circuit breakers every peer call goes
	// through and HealthyOwner reads. NewRouter installs a default set;
	// replace it (before traffic starts) to tune thresholds and backoff.
	Breakers *BreakerSet
}

// NewRouter builds a router for node self over the peers map (name→base
// URL, self included). vnodes ≤ 0 selects DefaultVirtualNodes.
func NewRouter(self string, peers map[string]string, vnodes int) (*Router, error) {
	if self == "" {
		return nil, fmt.Errorf("shard: no self node name given")
	}
	if _, ok := peers[self]; !ok {
		return nil, fmt.Errorf("shard: self %q not in peer set", self)
	}
	names := make([]string, 0, len(peers))
	urls := make(map[string]string, len(peers))
	for n, u := range peers {
		names = append(names, n)
		urls[n] = strings.TrimRight(u, "/")
	}
	sort.Strings(names)
	return &Router{
		self: self,
		ring: NewRing(names, vnodes),
		urls: urls,
		HTTP: &http.Client{Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}},
		Breakers: NewBreakerSet(BreakerOptions{}),
	}, nil
}

// Self returns this node's name ("" for a nil router).
func (r *Router) Self() string {
	if r == nil {
		return ""
	}
	return r.self
}

// Ring exposes the underlying ring (nil for a nil router).
func (r *Router) Ring() *Ring {
	if r == nil {
		return nil
	}
	return r.ring
}

// Nodes returns the membership, sorted.
func (r *Router) Nodes() []string {
	if r == nil {
		return nil
	}
	return r.ring.Nodes()
}

// Owner returns the node owning key and whether that node is this one. A
// nil router owns everything itself.
func (r *Router) Owner(key string) (node string, self bool) {
	if r == nil {
		return "", true
	}
	node = r.ring.Owner(key)
	return node, node == r.self
}

// HealthyOwner returns the first node in the key's ring-successor order
// whose circuit breaker admits a call (this node always admits itself),
// and whether that node is this one. failover reports that the primary
// owner was skipped over an open breaker — ownership has failed over to a
// successor, and every peer with a converged breaker view picks the same
// one, so single-flight dedup reassembles on the failover owner. When every
// breaker is open the primary owner is returned anyway (the caller's
// forward then fails over to local compute). HealthyOwner never changes
// breaker state: the forward that follows takes any half-open trial. A nil
// router owns everything itself.
func (r *Router) HealthyOwner(key string) (node string, self, failover bool) {
	if r == nil {
		return "", true, false
	}
	order := r.ring.Successors(key, r.ring.Size())
	for i, n := range order {
		if n == r.self || r.Breakers.admits(n) {
			return n, n == r.self, i > 0
		}
	}
	if len(order) == 0 {
		return "", true, false
	}
	return order[0], order[0] == r.self, false
}

// Replicas returns the first n nodes of the key's ring-successor order —
// the nodes a result written under key should live on.
func (r *Router) Replicas(key string, n int) []string {
	if r == nil {
		return nil
	}
	return r.ring.Successors(key, n)
}

// URL returns a peer's base URL.
func (r *Router) URL(node string) (string, bool) {
	if r == nil {
		return "", false
	}
	u, ok := r.urls[node]
	return u, ok
}

// Forward sends an HTTP request to a peer node, marked with the forwarding
// node's name and carrying the caller's trace context as a traceparent
// header (so the peer's request and job spans stitch into the originating
// trace). The call goes through the peer's circuit breaker: an error
// wrapping ErrBreakerOpen means it was refused without touching the
// network. A transport error or 5xx response counts as a failure, anything
// else as a success; a 5xx response is still returned to the caller, who
// owns its body. The extra headers (tenant identity, replica metadata; nil
// for none) are copied onto the peer call.
func (r *Router) Forward(ctx context.Context, node, method, path string, body []byte, contentType string, extra http.Header) (*http.Response, error) {
	if r == nil {
		return nil, fmt.Errorf("shard: no router")
	}
	base, ok := r.urls[node]
	if !ok {
		return nil, fmt.Errorf("shard: unknown node %q", node)
	}
	var rd *bytes.Reader
	var req *http.Request
	var err error
	if body != nil {
		rd = bytes.NewReader(body)
		req, err = http.NewRequestWithContext(ctx, method, base+path, rd)
	} else {
		req, err = http.NewRequestWithContext(ctx, method, base+path, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, vs := range extra {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	req.Header.Set(ForwardedHeader, r.self)
	obs.Inject(ctx, req.Header)
	var resp *http.Response
	err = r.Breakers.Do(ctx, node, func(context.Context) error {
		var err error
		if resp, err = r.HTTP.Do(req); err == nil && resp.StatusCode >= http.StatusInternalServerError {
			return errServerError
		}
		return err
	})
	if resp == nil {
		return nil, fmt.Errorf("shard: forwarding to %s: %w", node, err)
	}
	return resp, nil
}

// errServerError settles a peer call that got a 5xx answer as a failure.
var errServerError = errors.New("shard: peer answered 5xx")
