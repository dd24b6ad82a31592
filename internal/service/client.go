package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Client talks to a secserved instance: submit, poll, metrics. The zero
// HTTP client is replaced with http.DefaultClient.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8600".
	BaseURL string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
	// PollInterval paces Wait's job polling (default 200ms).
	PollInterval time.Duration
	// MaxRetries bounds automatic retries of requests rejected with 503 or
	// 429 when the server sent a Retry-After hint (queue-full backpressure).
	// Negative disables retries; 0 means the default of 3.
	MaxRetries int
	// Peers are alternate server base URLs tried in order when the server at
	// BaseURL never answers (connection refused or reset). In a sharded
	// deployment any node serves any request — non-owners forward to the
	// owner or compute locally — so transport-level failover to a peer
	// preserves availability. A request the server answered, even with an
	// error status, is never replayed against a peer.
	Peers []string
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError is a non-2xx response, carrying the server's error body and, for
// backpressure rejections, the Retry-After hint in seconds (0 when absent).
type apiError struct {
	Status     int
	Msg        string
	Kind       string
	RetryAfter int
}

func (e *apiError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("service: server returned %d: %s (retry after %ds)", e.Status, e.Msg, e.RetryAfter)
	}
	return fmt.Sprintf("service: server returned %d: %s", e.Status, e.Msg)
}

// retryAfter reports whether err is a backpressure rejection (503 or 429)
// carrying a Retry-After hint, and the hinted delay.
func retryAfter(err error) (time.Duration, bool) {
	var ae *apiError
	if !errors.As(err, &ae) || ae.RetryAfter <= 0 {
		return 0, false
	}
	if ae.Status != http.StatusServiceUnavailable && ae.Status != http.StatusTooManyRequests {
		return 0, false
	}
	return time.Duration(ae.RetryAfter) * time.Second, true
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return err
		}
	}
	retries := c.MaxRetries
	if retries == 0 {
		retries = 3
	}
	var err error
	for attempt := 1; ; attempt++ {
		if err = c.doFailover(ctx, method, path, data, out); err == nil {
			return nil
		}
		hint, ok := retryAfter(err)
		if !ok || attempt > retries {
			return err
		}
		// The server's hint is the floor; add jitter so a burst of rejected
		// clients does not return in lockstep, and back off on repeats.
		delay := retryDelay(hint, 4*hint, attempt)
		if delay < hint {
			delay = hint
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(delay):
		}
	}
}

// transportError wraps a failure to reach the server at all — the only
// failure class doFailover replays against a peer.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// doFailover issues the request against BaseURL, failing over to each peer
// in order while the server under trial is effectively unavailable to this
// caller: it never answered (connection refused or reset), or it answered
// 503 with a Retry-After the caller cannot afford to wait out before its
// own deadline — waiting would time the request out anyway, while a peer
// can serve it now (any node serves any request in a sharded deployment).
// A response the caller could usefully retry or consume is never replayed.
func (c *Client) doFailover(ctx context.Context, method, path string, data []byte, out any) error {
	err := c.doOnce(ctx, c.BaseURL, method, path, data, out)
	for _, peer := range c.Peers {
		if err == nil || !c.failoverEligible(ctx, err) || ctx.Err() != nil {
			return err
		}
		err = c.doOnce(ctx, peer, method, path, data, out)
	}
	return err
}

// failoverEligible reports whether err should be replayed against a peer.
func (c *Client) failoverEligible(ctx context.Context, err error) bool {
	var te *transportError
	if errors.As(err, &te) {
		return true
	}
	var ae *apiError
	if errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable && ae.RetryAfter > 0 {
		if deadline, ok := ctx.Deadline(); ok {
			return time.Duration(ae.RetryAfter)*time.Second > time.Until(deadline)
		}
	}
	return false
}

func (c *Client) doOnce(ctx context.Context, base, method, path string, data []byte, out any) error {
	var rd io.Reader
	if data != nil {
		rd = bytes.NewReader(data)
	}
	// The request runs under its own span and carries the trace context as a
	// traceparent header, so the server's request and job spans stitch into
	// this client's trace. With observability disabled both are free and no
	// header is sent.
	ctx, sp := obs.Start(ctx, "service.client.request")
	sp.Str("method", method)
	sp.Str("path", path)
	defer sp.End()
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return err
	}
	if data != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	obs.Inject(ctx, req.Header)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return &transportError{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		ae := &apiError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(body))}
		var eb errorBody
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			ae.Msg = eb.Error
			ae.Kind = eb.Kind
		}
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
			ae.RetryAfter = secs
		}
		return ae
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// Submit posts a request and returns the accepted job (possibly already
// finished when the request carried a wait).
func (c *Client) Submit(ctx context.Context, req *AnalysisRequest) (*JobView, error) {
	var v JobView
	if err := c.do(ctx, http.MethodPost, "/v1/analyses", req, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// Job fetches one job by ID.
func (c *Client) Job(ctx context.Context, id string) (*JobView, error) {
	var v JobView
	if err := c.do(ctx, http.MethodGet, "/v1/analyses/"+id, nil, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// Manifest fetches a finished job's run manifest as raw JSON.
func (c *Client) Manifest(ctx context.Context, id string) (json.RawMessage, error) {
	var v json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/v1/analyses/"+id+"/manifest", nil, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// terminal reports whether the job has reached a final status.
func terminal(s JobStatus) bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Wait polls the job until it reaches a terminal status or ctx expires.
func (c *Client) Wait(ctx context.Context, id string) (*JobView, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if terminal(v.Status) {
			return v, nil
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-time.After(interval):
		}
	}
}

// Analyze is the synchronous convenience: submit with a short server-side
// wait, then poll until the job finishes. A failed job returns its error.
func (c *Client) Analyze(ctx context.Context, req *AnalysisRequest) (*JobView, error) {
	if req.WaitSeconds == 0 {
		r := *req
		r.WaitSeconds = 2
		req = &r
	}
	v, err := c.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	if !terminal(v.Status) {
		if v, err = c.Wait(ctx, v.ID); err != nil {
			return nil, err
		}
	}
	if v.Status != StatusDone {
		return v, fmt.Errorf("service: job %s %s: %s", v.ID, v.Status, v.Error)
	}
	return v, nil
}

// Metrics fetches /v1/metrics.
func (c *Client) Metrics(ctx context.Context) (*Metrics, error) {
	var m Metrics
	if err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}
