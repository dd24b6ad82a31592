package shard

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Prober actively checks peer health so dead nodes are discovered (and
// recovered nodes welcomed back) without a live request paying the
// transport timeout. Each cycle it probes every peer whose breaker admits
// a call — for an open breaker that is exactly the half-open trial, so
// the prober drives the breaker lifecycle even when no traffic flows:
// a dead peer's breaker stays open between backoff-paced probes, and the
// first successful probe after recovery closes it.
type Prober struct {
	router *Router
	// Interval paces probe cycles (default 2s).
	Interval time.Duration
	// Timeout bounds one probe (default 1s).
	Timeout time.Duration
	// Path is the health endpoint (default "/v1/healthz").
	Path string
	// OnHealthy, when set, is invoked after every successful probe of a
	// node — the hook hinted-handoff delivery keys on. Set before Start.
	OnHealthy func(node string)

	mu      sync.Mutex
	cancel  context.CancelFunc
	done    chan struct{}
	probes  int64
	failed  int64
	started bool
}

// NewProber builds a prober for the router's peer set. interval ≤ 0 selects
// the 2s default.
func NewProber(r *Router, interval time.Duration) *Prober {
	return &Prober{router: r, Interval: interval}
}

// Start launches the probe loop. It is a no-op on a nil prober, a nil
// router, or a second Start.
func (p *Prober) Start() {
	if p == nil || p.router == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return
	}
	p.started = true
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	p.done = make(chan struct{})
	go p.loop(ctx)
}

// Stop terminates the probe loop and waits for it to exit.
func (p *Prober) Stop() {
	if p == nil {
		return
	}
	p.mu.Lock()
	cancel, done := p.cancel, p.done
	p.started = false
	p.cancel = nil
	p.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

func (p *Prober) loop(ctx context.Context) {
	defer close(p.done)
	interval := p.Interval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		p.cycle(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// cycle probes every peer except self through its breaker: Do skips an
// open breaker inside its backoff window, and for an expired one the probe
// is the half-open trial. A Stop mid-probe cancels ctx, which returns the
// trial slot instead of recording a failure.
func (p *Prober) cycle(ctx context.Context) {
	for _, node := range p.router.Nodes() {
		if node == p.router.Self() || ctx.Err() != nil {
			continue
		}
		err := p.router.Breakers.Do(ctx, node, func(ctx context.Context) error { return p.probe(ctx, node) })
		if err == nil && p.OnHealthy != nil {
			p.OnHealthy(node)
		}
	}
}

// probe issues one health check, failing unless the node answers 200. A
// node that answers anything else (degraded is still 200; draining is 503)
// is treated as unable to take forwarded work.
func (p *Prober) probe(ctx context.Context, node string) error {
	p.mu.Lock()
	p.probes++
	p.mu.Unlock()
	base, ok := p.router.URL(node)
	if !ok {
		return fmt.Errorf("shard: unknown node %q", node)
	}
	timeout := p.Timeout
	if timeout <= 0 {
		timeout = time.Second
	}
	path := p.Path
	if path == "" {
		path = "/v1/healthz"
	}
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	resp, err := p.router.HTTP.Do(req)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("shard: probe of %s answered %s", node, resp.Status)
		}
	}
	if err != nil {
		p.mu.Lock()
		p.failed++
		p.mu.Unlock()
	}
	return err
}

// Stats reports lifetime probe counts (total, failed).
func (p *Prober) Stats() (probes, failed int64) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.probes, p.failed
}
