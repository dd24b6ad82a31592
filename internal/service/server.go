package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/store"
)

// Config configures a Server. The zero value is usable: GOMAXPROCS
// workers, a 64-deep queue, default cache sizes, a 10-minute job timeout.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8600").
	Addr string
	// Workers bounds concurrent analyses (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds accepted-but-not-started jobs; a full queue
	// rejects submissions with 503 + Retry-After (default 64).
	QueueDepth int
	// ModelCacheSize / ResultCacheSize bound the engine caches (see
	// EngineOptions).
	ModelCacheSize  int
	ResultCacheSize int
	// ModelsDir resolves stored-model architecture references.
	ModelsDir string
	// JobTimeout caps one job's execution; per-request timeouts are
	// clamped to it (default 10 minutes).
	JobTimeout time.Duration
	// MaxWait caps how long a POST may hold the connection waiting for a
	// synchronous result (default 30s).
	MaxWait time.Duration
	// RetainJobs bounds how many finished jobs stay queryable; the oldest
	// are dropped first (default 1024).
	RetainJobs int
	// MaxAttempts bounds executions per job, including the first (default
	// 3). Transient failures — convergence exhaustion and recovered panics
	// — are re-enqueued with capped exponential backoff and jitter until
	// the budget is spent; deterministic failures (bad requests, exceeded
	// exploration budgets) and context errors fail immediately.
	MaxAttempts int
	// RetryBaseDelay / RetryMaxDelay shape the backoff (defaults 100ms /
	// 5s).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// RetryAfterSeconds is the hint sent with 503 queue-full rejections
	// (default 1).
	RetryAfterSeconds int
	// DegradedAfter is the consecutive-job-failure count at which
	// /v1/healthz reports "degraded" (default 5).
	DegradedAfter int
	// MaxStates / MaxTransitions cap per-request exploration budgets (see
	// EngineOptions).
	MaxStates      int
	MaxTransitions int
	// ExtraSink, when set, additionally receives every event the server
	// emits (per-request and per-job spans, counters, attempts) — secserved
	// passes the sinks of its -trace/-progress session here.
	ExtraSink obs.Sink
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the service
	// mux. Off by default: profiling endpoints expose heap contents and
	// should only be reachable when deliberately enabled.
	EnablePprof bool
	// FlightSize sizes the always-on black-box ring of recent events
	// (spans, counters, solver attempts). 0 selects obs.DefaultFlightSize;
	// negative disables the recorder. The ring is dumped into a job's
	// manifest when the job panics, trips a fault-injection point, breaches
	// its deadline, or pushes the service into its degraded-health state.
	FlightSize int
	// EnableFlightHTTP serves the live ring at GET /debug/flight. Gated
	// like EnablePprof: the ring exposes recent request activity and should
	// only be reachable when deliberately enabled.
	EnableFlightHTTP bool
	// SlowLog, when set, receives one JSONL SlowRecord per analysis that
	// exceeds the latency threshold or walks the solver fallback chain.
	SlowLog io.Writer
	// SlowThreshold is the slow-analysis latency bar. 0 derives it from the
	// live job-duration histogram (slowAutoMultiplier × p99 once
	// slowAutoMinSamples jobs have run, DefaultSlowThreshold before that).
	SlowThreshold time.Duration
	// Store, when non-nil, is the disk-backed content-addressed result
	// store mounted write-through beneath the engine's in-memory caches
	// (see EngineOptions.Store).
	Store *store.Store
	// Journal, when non-nil, records every accepted job and its terminal
	// state; after a crash, ReplayJournal re-enqueues the jobs that were
	// accepted but never finished.
	Journal *store.Journal
	// Shard, when non-nil, is the consistent-hash peer router: a request
	// whose canonical key is owned by another node is forwarded there
	// (single-flight dedup then happens on the owner), falling back to
	// local compute when the owner is unreachable.
	Shard *shard.Router
	// NodeID names this node. Job IDs are prefixed "<node>:" so any peer
	// can route a job poll to the node that owns it. Defaults to
	// Shard.Self() when sharding is configured.
	NodeID string
	// Replication is the result replication factor: freshly-computed
	// outcomes are pushed asynchronously to the key's first Replication
	// ring nodes (owner included), so one node's loss doesn't cold-start
	// its whole keyspace. < 2 disables replication.
	Replication int
	// Hints is the hinted-handoff queue holding results owed to
	// unreachable replicas, replayed when their breaker closes. New
	// installs a memory-only queue when replication is on and none is
	// given; mount a durable one (store.OpenHints with a path) to survive
	// restarts.
	Hints *store.HintQueue
	// HandoffInterval paces the hint delivery loop (default 1s); the
	// prober's recovery signal also triggers delivery immediately.
	HandoffInterval time.Duration
	// ProbeInterval enables the active peer health prober at the given
	// period. 0 disables probing: breakers are then driven only by live
	// forwarding traffic.
	ProbeInterval time.Duration
	// Tenants enables per-tenant admission control on POST /v1/analyses:
	// token-bucket rates, in-flight quotas and priority-aware load
	// shedding, keyed by the X-Secserved-Tenant header. nil admits
	// everything.
	Tenants *TenantPolicy
	// SLOTarget is the per-tenant availability objective burn rates are
	// computed against (0 selects DefaultSLOTarget, 0.99).
	SLOTarget float64
	// SpanLogSize sizes the recent-span ring exported for cross-node trace
	// assembly. 0 selects the obs default (512); negative disables the ring
	// (cluster endpoints then report no spans from this node).
	SpanLogSize int
	// SpanExport, when set, additionally receives every finished span as one
	// JSON line — the per-node span-export stream for offline assembly.
	SpanExport io.Writer
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8600"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 30 * time.Second
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 1024
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 100 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 5 * time.Second
	}
	if c.RetryAfterSeconds <= 0 {
		c.RetryAfterSeconds = 1
	}
	if c.DegradedAfter <= 0 {
		c.DegradedAfter = 5
	}
	if c.NodeID == "" && c.Shard != nil {
		c.NodeID = c.Shard.Self()
	}
	if c.HandoffInterval <= 0 {
		c.HandoffInterval = time.Second
	}
	if c.Shard != nil && c.Replication > 1 && c.Hints == nil {
		// Replication without a configured hint queue still gets handoff
		// semantics; the hints just don't survive a restart.
		c.Hints, _ = store.OpenHints("", 0)
	}
	return c
}

// Server is the resident analysis service: an Engine behind an HTTP/JSON
// job API with a bounded worker pool. Construction starts the workers;
// Shutdown (or Close) drains them.
type Server struct {
	cfg       Config
	engine    *Engine
	collector *obs.Collector
	sinks     obs.MultiSink // the one sink chain: collector, flight ring, span log, extra sink
	tracer    *obs.Tracer
	flight    *obs.Flight
	slow      *slowLog
	spanLog   *obs.SpanLog
	usage     *usageTracker
	mux       *http.ServeMux
	httpSrv   *http.Server

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // retention order
	queue    chan *Job
	retries  map[string]*pendingRetry
	draining bool
	seq      uint64

	wg      sync.WaitGroup
	started time.Time

	// The two levels the health decision reads. Every count lives in the
	// collector instead (see counted).
	running        atomic.Int64
	consecFailures atomic.Int64

	// Fleet-resilience machinery (see replicate.go; zero when Shard is nil).
	admission   *admission
	prober      *shard.Prober
	fleetCtx    context.Context
	fleetCancel context.CancelFunc
	fleetSpan   *obs.Span
	fleetWG     sync.WaitGroup
	handoffKick chan struct{}
}

// pendingRetry is a job waiting out its backoff. Ownership protocol:
// whoever deletes the retries map entry resolves the job — the timer
// callback (requeue) on the happy path, Shutdown when it cancels pending
// retries during drain.
type pendingRetry struct {
	job   *Job
	timer *time.Timer
	err   error // the failure being retried
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		engine: NewEngine(EngineOptions{
			ModelCacheSize:  cfg.ModelCacheSize,
			ResultCacheSize: cfg.ResultCacheSize,
			ModelsDir:       cfg.ModelsDir,
			MaxStates:       cfg.MaxStates,
			MaxTransitions:  cfg.MaxTransitions,
			Store:           cfg.Store,
		}),
		collector: obs.NewCollector(),
		jobs:      make(map[string]*Job),
		queue:     make(chan *Job, cfg.QueueDepth),
		retries:   make(map[string]*pendingRetry),
		started:   time.Now(),
	}
	if cfg.FlightSize >= 0 {
		s.flight = obs.NewFlight(cfg.FlightSize)
	}
	if cfg.SlowLog != nil {
		s.slow = newSlowLog(cfg.SlowLog)
	}
	if cfg.SpanLogSize >= 0 {
		s.spanLog = obs.NewSpanLog(cfg.NodeID, cfg.SpanLogSize)
		if cfg.SpanExport != nil {
			s.spanLog.Tee(cfg.SpanExport)
		}
	}
	s.usage = newUsageTracker(cfg.SLOTarget)
	s.sinks = obs.MultiSink{s.collector}
	if s.flight != nil {
		s.sinks = append(s.sinks, s.flight)
	}
	if s.spanLog != nil {
		s.sinks = append(s.sinks, s.spanLog)
	}
	if cfg.ExtraSink != nil {
		s.sinks = append(s.sinks, cfg.ExtraSink)
	}
	s.tracer = obs.NewTracer(s.sinks, false)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/analyses", s.handleSubmit)
	s.mux.HandleFunc("PUT /v1/replica/{key}", s.handleReplicaPut)
	s.mux.HandleFunc("GET /v1/analyses/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/analyses/{id}/manifest", s.handleManifest)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/buildinfo", s.handleBuildInfo)
	s.mux.HandleFunc("GET /v1/node/status", s.handleNodeStatus)
	s.mux.HandleFunc("GET /v1/cluster/status", s.handleClusterStatus)
	s.mux.HandleFunc("GET /v1/cluster/metrics", s.handleClusterMetrics)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.Handle("GET /v1/metrics/pipeline", obs.MetricsHandler(s.collector, "secserved"))
	s.mux.HandleFunc("GET /metrics", s.handleProm)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if cfg.EnableFlightHTTP {
		// The handler tolerates a disabled (nil) recorder by serving 404.
		s.mux.Handle("GET /debug/flight", s.flight.Handler())
	}
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.admission = newAdmission(cfg.Tenants)
	s.startFleet()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Engine exposes the server's engine (benchmarks and tests).
func (s *Server) Engine() *Engine { return s.engine }

// Handler returns the instrumented HTTP handler: every request runs under
// an "http.request" span (method, path, status, duration) emitted to the
// server's collector and any extra sink — the service's structured request
// log. A request carrying a traceparent header has its trace context
// adopted: the request span (and the job spans underneath, see runJob)
// parent to the client's span, stitching client and server traces together.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rctx := r.Context()
		if tc, ok := obs.Extract(r.Header); ok {
			rctx = obs.WithRemote(rctx, tc)
		}
		ctx, sp := s.tracer.StartSpan(rctx, "http.request")
		sp.Str("method", r.Method)
		sp.Str("path", r.URL.Path)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(sw, r.WithContext(ctx))
		sp.Int("status", int64(sw.status))
		sp.End()
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// ListenAndServe serves the API on cfg.Addr until Shutdown.
func (s *Server) ListenAndServe() error {
	l, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve serves the API on l until Shutdown. After Shutdown it closes l and
// returns at once.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown gracefully stops the server: submissions are refused with 503,
// queued and running jobs drain to completion, then the HTTP listener (if
// any) closes. When ctx expires before the drain completes, in-flight jobs
// are canceled through their contexts and Shutdown returns ctx.Err() after
// they unwind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		// No sends can follow: handleSubmit and requeue check draining
		// under mu before enqueueing.
		close(s.queue)
	}
	s.mu.Unlock()
	// Jobs parked on backoff timers fail now with their original errors
	// rather than stalling the drain for up to a full backoff period.
	s.cancelPendingRetries()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel() // abort in-flight solves; solvers poll their ctx
		<-drained
	}
	// After the job drain so results finished during it still replicate.
	s.stopFleet()
	s.baseCancel()
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if herr := s.httpSrv.Shutdown(shCtx); herr != nil && err == nil {
		err = herr
	}
	return err
}

// Close is Shutdown with the configured job timeout as drain budget.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.JobTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}

func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one attempt of a job. Transient failures within the
// attempt budget are re-enqueued with backoff instead of finishing the job.
func (s *Server) runJob(job *Job) {
	// Last-resort isolation: the engine recovers its own solve-path
	// panics, but a panic anywhere else on the job path must kill only
	// this job, never the worker goroutine.
	defer func() {
		if r := recover(); r != nil {
			s.tracer.Count("service.panic.recovered", 1)
			s.finishJob(job, nil, "", &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())})
		}
	}()

	attempt := job.beginAttempt()
	timeout := s.cfg.JobTimeout
	if t := time.Duration(job.req.TimeoutSeconds * float64(time.Second)); t > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()

	// The job's tracer feeds its manifest collector and attempt recorder
	// besides the server-wide sinks, so a deep solver fallback reports into
	// the same history as this retry loop.
	if job.trace.Valid() {
		ctx = obs.WithRemote(ctx, job.trace)
	}
	ctx, sp := job.tracer.StartSpan(ctx, "service.job")
	sp.Str("job", job.id)
	sp.Int("attempt", int64(attempt))
	job.setSelfTrace(obs.TraceContext{TraceID: sp.TraceID(), SpanID: sp.ID()})
	if attempt == 1 {
		// Queue wait is submission-to-first-execution; retries wait on their
		// backoff timers, which the attempt history already records.
		obs.ObserveDuration(ctx, "service.queue.wait", time.Since(job.created))
		// The latency bar is captured before this job's own duration can
		// land in the histogram it is derived from (see slowThresholdNow).
		if s.slow != nil {
			job.slowThreshold.Store(int64(s.slowThresholdNow()))
		}
	}

	s.running.Add(1)
	start := time.Now()
	out, cache, err := s.engine.Run(ctx, job.req)
	s.running.Add(-1)
	sp.Str("cache", string(cache))

	rec := obs.Attempt{Stage: "job", Try: attempt, Outcome: obs.AttemptOK, Seconds: time.Since(start).Seconds()}
	if err != nil {
		sp.Str("error", err.Error())
		rec.Outcome = obs.AttemptError
		rec.Error = err.Error()
		var pe *PanicError
		if errors.As(err, &pe) {
			// The engine counted the panic where it recovered it, once
			// for all single-flight waiters.
			rec.Outcome = obs.AttemptPanic
			rec.Stack = pe.Stack
		}
	}
	obs.RecordAttempt(ctx, rec)
	sp.End()

	if err != nil && retryable(err) && attempt < s.cfg.MaxAttempts && s.baseCtx.Err() == nil {
		if s.scheduleRetry(job, err, attempt) {
			return
		}
	}
	s.finishJob(job, out, cache, err)
}

// finishJob publishes the terminal state exactly once, assembles the
// manifest from the job's accumulated collector and attempt history, and
// updates the health signals.
func (s *Server) finishJob(job *Job, out *Outcome, cache CacheState, err error) {
	m := job.collector.Manifest("secserved", []string{"job:" + job.id})
	m.Attempts = job.recorder.Attempts()
	if job.trace.Valid() {
		m.TraceID = job.trace.TraceID
	}
	if s.flight != nil && s.flightTriggered(err, m.Attempts) {
		// Dump the black box into the manifest while the failure is fresh:
		// the ring keeps rolling, so by the time an operator fetches the
		// manifest the live /debug/flight view may already have moved on.
		m.Flight = s.flight.Snapshot()
		m.FlightDropped = s.flight.Dropped()
	}
	finished := job.finish(out, cache, err, m, func() {
		if err != nil {
			s.tracer.Count("service.jobs.failed", 1)
			s.consecFailures.Add(1)
		} else {
			s.tracer.Count("service.jobs.completed", 1)
			s.consecFailures.Store(0)
		}
	})
	if !finished {
		return // already terminal: a panic raced a normal finish
	}
	if job.release != nil {
		job.release()
	}
	s.usage.record(job.tenant, job.elapsed().Seconds(), cache, err != nil)
	if err == nil {
		s.replicateOutcome(job, out, cache)
	}
	if s.cfg.Journal != nil {
		// Any terminal state — success, failure, cancellation — retires the
		// journal entry; replay is for work that never finished.
		if jerr := s.cfg.Journal.Done(job.id); jerr != nil {
			s.tracer.Count("service.journal.errors", 1)
		}
	}
	s.maybeLogSlow(job, m, cache, err)
	s.retire(job)
}

// flightTriggered decides whether this job's manifest should carry a flight
// dump: any recovered panic or injected solver divergence in the attempt
// history (even if a retry then succeeded), a terminal panic or deadline
// breach, or a failure that leaves the service at (or beyond) its
// degraded-health threshold.
func (s *Server) flightTriggered(err error, attempts []obs.Attempt) bool {
	for _, at := range attempts {
		if at.Outcome == obs.AttemptPanic || at.Outcome == obs.AttemptInjected {
			return true
		}
	}
	if err == nil {
		return false
	}
	var pe *PanicError
	if errors.As(err, &pe) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	// This failure is about to be counted; +1 anticipates the increment in
	// finishJob.
	return s.consecFailures.Load()+1 >= int64(s.cfg.DegradedAfter)
}

// scheduleRetry arms a backoff timer that re-enqueues the job, reporting
// false when the server is draining (the caller then fails the job). The
// pending retry joins the drain WaitGroup so Shutdown waits for — or
// cancels — it.
func (s *Server) scheduleRetry(job *Job, lastErr error, attempt int) bool {
	delay := retryDelay(s.cfg.RetryBaseDelay, s.cfg.RetryMaxDelay, attempt)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return false
	}
	s.wg.Add(1)
	// Status flips before the timer is armed: a near-zero backoff must not
	// re-begin the attempt and then have this stale write mask it.
	job.requeued()
	pr := &pendingRetry{job: job, err: lastErr}
	pr.timer = time.AfterFunc(delay, func() { s.requeue(job.id) })
	s.retries[job.id] = pr
	s.mu.Unlock()
	s.tracer.Count("service.jobs.retried", 1)
	return true
}

// requeue is the retry timer callback: it moves the due job back onto the
// queue, or fails it when the server started draining (or the queue
// refilled) during the backoff.
func (s *Server) requeue(id string) {
	defer s.wg.Done()
	s.mu.Lock()
	pr, ok := s.retries[id]
	if !ok {
		s.mu.Unlock()
		return // Shutdown took ownership and resolves the job
	}
	delete(s.retries, id)
	if s.draining {
		s.mu.Unlock()
		s.finishJob(pr.job, nil, "", pr.err)
		return
	}
	select {
	case s.queue <- pr.job:
		s.mu.Unlock()
	default:
		// The queue refilled while the job backed off; failing with the
		// original error beats waiting unboundedly for a slot.
		s.mu.Unlock()
		s.finishJob(pr.job, nil, "", pr.err)
	}
}

// cancelPendingRetries resolves every backoff-parked job during drain:
// each is failed with the error that put it there. Timers whose callback
// already fired resolve through requeue instead (it finds its map entry
// gone and leaves the job to us — entries are deleted here first).
func (s *Server) cancelPendingRetries() {
	s.mu.Lock()
	type cancelled struct {
		pr      *pendingRetry
		stopped bool
	}
	pending := make([]cancelled, 0, len(s.retries))
	for id, pr := range s.retries {
		delete(s.retries, id)
		pending = append(pending, cancelled{pr: pr, stopped: pr.timer.Stop()})
	}
	s.mu.Unlock()
	for _, c := range pending {
		s.finishJob(c.pr.job, nil, "", c.pr.err)
		if c.stopped {
			// The callback will never run; release its drain slot.
			s.wg.Done()
		}
	}
}

// retire records the finished job for retention accounting and drops the
// oldest finished jobs beyond the bound.
func (s *Server) retire(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, job.id)
	for len(s.finished) > s.cfg.RetainJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// Submit validates and enqueues a request, returning the job. It is the
// programmatic equivalent of POST /v1/analyses (the HTTP handler wraps
// it); tests and embedded uses drive it directly.
func (s *Server) Submit(req *AnalysisRequest) (*Job, error) {
	return s.submitMeta(req, obs.TraceContext{}, submitMeta{})
}

// submitMeta carries the submission-path context the HTTP handler binds to
// a job: admission identity and release, and the replication key/handoff
// target the routing layer determined.
type submitMeta struct {
	tenant       string
	key          string
	handoffOwner string
	release      func()
}

// submitMeta validates and enqueues req. The client trace context tc (zero
// for none) is bound at enqueue time so the worker cannot race the
// submission.
func (s *Server) submitMeta(req *AnalysisRequest, tc obs.TraceContext, meta submitMeta) (*Job, error) {
	if err := s.engine.Validate(req); err != nil {
		return nil, err
	}
	if meta.key == "" && s.replication() > 1 {
		// The routing layer skips the fingerprint for forwarded-in requests;
		// the owner still needs it to address its replica writes.
		meta.key, _ = s.engine.Fingerprint(req)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.seq++
	id := fmt.Sprintf("a%06d-%08x", s.seq, time.Now().UnixNano()&0xffffffff)
	if s.cfg.NodeID != "" {
		// Node-prefixed IDs let any peer route a poll to the owning node.
		id = s.cfg.NodeID + ":" + id
	}
	job := newJob(id, req, s.sinks)
	job.tenant = meta.tenant
	job.key = meta.key
	job.handoffOwner = meta.handoffOwner
	job.release = meta.release
	if tc.Valid() {
		job.trace = tc
	}
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		s.tracer.Count("service.jobs.rejected", 1)
		return nil, ErrQueueFull
	}
	s.jobs[id] = job
	s.mu.Unlock()
	s.tracer.Count("service.jobs.accepted", 1)
	s.journalSubmit(job)
	return job, nil
}

// journalSubmit durably records an accepted job. Journal trouble degrades
// crash recovery, never the submission: the job is already queued.
func (s *Server) journalSubmit(job *Job) {
	if s.cfg.Journal == nil {
		return
	}
	body, err := json.Marshal(job.req)
	if err == nil {
		err = s.cfg.Journal.Submit(job.id, body)
	}
	if err != nil {
		s.tracer.Count("service.journal.errors", 1)
	}
}

// ReplayJournal re-enqueues every job the journal recorded as accepted but
// not finished — the crash-recovery path. Call it once, after New and
// before serving traffic. Replayed jobs keep their original IDs (the
// sequence counter is advanced past them so fresh IDs cannot collide);
// entries whose requests no longer validate (for example a stored model
// that was deleted) are retired instead of replayed. Returns the number of
// jobs re-enqueued.
func (s *Server) ReplayJournal() int {
	j := s.cfg.Journal
	if j == nil {
		return 0
	}
	pending := j.Pending()
	if len(pending) == 0 {
		return 0
	}
	ctx, sp := s.tracer.StartSpan(s.baseCtx, "service.journal.replay")
	defer sp.End()
	replayed := 0
	var maxSeq uint64
	for _, ent := range pending {
		var req AnalysisRequest
		if err := json.Unmarshal(ent.Request, &req); err != nil {
			obs.LogAttrs(ctx, "journal.replay.dropped",
				obs.Attr{Key: "id", Kind: obs.KindString, Str: ent.ID},
				obs.Attr{Key: "error", Kind: obs.KindString, Str: err.Error()})
			_ = j.Done(ent.ID)
			continue
		}
		if err := s.engine.Validate(&req); err != nil {
			obs.LogAttrs(ctx, "journal.replay.dropped",
				obs.Attr{Key: "id", Kind: obs.KindString, Str: ent.ID},
				obs.Attr{Key: "error", Kind: obs.KindString, Str: err.Error()})
			_ = j.Done(ent.ID)
			continue
		}
		if seq, ok := seqOfID(ent.ID); ok && seq > maxSeq {
			maxSeq = seq
		}
		job := newJob(ent.ID, &req, s.sinks)
		if !s.enqueueReplayed(job) {
			break // draining: remaining entries stay pending for next start
		}
		replayed++
	}
	s.mu.Lock()
	if maxSeq > s.seq {
		s.seq = maxSeq
	}
	s.mu.Unlock()
	s.tracer.Count("service.jobs.accepted", int64(replayed))
	sp.Int("replayed", int64(replayed))
	s.tracer.Count("service.journal.replayed", int64(replayed))
	return replayed
}

// seqOfID recovers the sequence number from a job ID of the form
// "[node:]a%06d-%08x".
func seqOfID(id string) (uint64, bool) {
	if i := strings.LastIndexByte(id, ':'); i >= 0 {
		id = id[i+1:]
	}
	if len(id) < 7 || id[0] != 'a' {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:7], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// enqueueReplayed registers and queues one replayed job, waiting for queue
// space if the backlog exceeds the queue depth (the workers are already
// draining it). Reports false when the server started draining.
func (s *Server) enqueueReplayed(job *Job) bool {
	for {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return false
		}
		select {
		case s.queue <- job:
			s.jobs[job.id] = job
			s.mu.Unlock()
			return true
		default:
		}
		s.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
}

// Job returns a queryable job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Submission failure modes (both HTTP 503; only the full queue advertises
// a Retry-After, since draining is not a transient condition).
var (
	ErrDraining  = errors.New("service: server is draining")
	ErrQueueFull = errors.New("service: job queue is full")
)

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The body is read up front (rather than streamed into the decoder) so a
	// shard forward can relay the exact bytes the client sent.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	var req AnalysisRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	// Admission control charges the entry node only: a request that arrives
	// pre-routed from a peer was already admitted there. Health and metrics
	// endpoints never pass through here, so they are never shed.
	tenant := tenantOf(r)
	var release func()
	if s.admission != nil && r.Header.Get(shard.ForwardedHeader) == "" {
		rel, retryIn, reason := s.admission.admit(tenant, s.queuePressure())
		if rel == nil {
			s.usage.recordShed(tenant)
			obs.Count(r.Context(), "service.tenant.shed", 1)
			obs.LogAttrs(r.Context(), "tenant.shed",
				obs.Attr{Key: "tenant", Kind: obs.KindString, Str: tenant},
				obs.Attr{Key: "reason", Kind: obs.KindString, Str: reason})
			s.stampNode(w)
			w.Header().Set("Retry-After", strconv.Itoa(int(retryIn/time.Second)))
			writeErrorKind(w, http.StatusTooManyRequests, "tenant_"+reason,
				fmt.Errorf("tenant %q over budget (%s); retry after %s", tenant, reason, retryIn))
			return
		}
		release = rel
	}
	handled, key, handoffOwner := s.maybeForward(w, r, &req, body)
	if handled {
		if release != nil {
			// The owner answered; the work has left this node.
			release()
		}
		return
	}
	tc, ok := obs.RemoteFrom(r.Context())
	if !ok {
		tc, _ = obs.Extract(r.Header) // direct mux use, no Handler wrapper
	}
	job, err := s.submitMeta(&req, tc, submitMeta{
		tenant:       tenant,
		key:          key,
		handoffOwner: handoffOwner,
		release:      release,
	})
	if err != nil {
		if release != nil {
			release()
		}
		switch {
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrQueueFull):
			// Back-pressure, not failure: tell clients when to come back.
			w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrUnknownKind):
			// A model kind this node cannot resolve (e.g. an attack-tree
			// request landing on an older build): a typed 400 clients can
			// route on, never a generic failure.
			writeErrorKind(w, http.StatusBadRequest, errKindUnknownKind, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	obs.Gauge(r.Context(), "service.queue.depth", float64(len(s.queue)))

	wait := time.Duration(req.WaitSeconds * float64(time.Second))
	if wait > s.cfg.MaxWait {
		wait = s.cfg.MaxWait
	}
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-job.Done():
		case <-t.C:
		case <-r.Context().Done():
		}
	}
	view := job.View()
	view.Node = s.cfg.NodeID
	s.stampNode(w)
	w.Header().Set("Location", "/v1/analyses/"+job.id)
	status := http.StatusOK
	switch {
	case view.Finished == nil:
		status = http.StatusAccepted
	case view.ErrorKind == errKindBudget:
		// The architecture's state space exceeds the exploration budget:
		// the request is well-formed but unprocessable within limits.
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, view)
}

// queuePressure is the admission controller's load signal: queue depth
// over capacity.
func (s *Server) queuePressure() float64 {
	if s.cfg.QueueDepth <= 0 {
		return 0
	}
	return float64(len(s.queue)) / float64(s.cfg.QueueDepth)
}

// stampNode marks a locally-served response with this node's shard name.
func (s *Server) stampNode(w http.ResponseWriter) {
	if s.cfg.NodeID != "" {
		w.Header().Set(shard.ServedByHeader, s.cfg.NodeID)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		if s.proxyJobGet(w, r, id) {
			return
		}
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	view := job.View()
	view.Node = s.cfg.NodeID
	s.stampNode(w)
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		if s.proxyJobGet(w, r, id) {
			return
		}
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	m := job.Manifest()
	if m == nil {
		writeError(w, http.StatusConflict, errors.New("job has not finished"))
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// Health is the /v1/healthz body. Status is "ok", "degraded" (persistent
// job failures or near-saturated queue; still HTTP 200 so load balancers
// don't evict a recovering instance) or "draining" (HTTP 503).
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	JobsRunning   int64   `json:"jobs_running"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	// QueuePressure is QueueDepth/QueueCapacity; ≥ 0.9 degrades.
	QueuePressure float64 `json:"queue_pressure"`
	// ConsecutiveFailures counts job failures since the last success;
	// reaching the configured DegradedAfter threshold degrades.
	ConsecutiveFailures int64 `json:"consecutive_failures"`
	// PanicsRecovered counts panics recovered on the job path over the
	// server's lifetime; one panic shared by single-flight waiters counts
	// once.
	PanicsRecovered int64 `json:"panics_recovered"`
	// RetriesPending counts jobs currently waiting out a backoff.
	RetriesPending int `json:"retries_pending,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.healthSnapshot()
	status := http.StatusOK
	if h.Status == "draining" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// Metrics is the /v1/metrics body: worker-pool and job counters plus the
// engine's cache statistics. The full per-phase pipeline aggregate is
// served separately at /v1/metrics/pipeline (obs.MetricsHandler).
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	JobsAccepted  int64   `json:"jobs_accepted"`
	JobsCompleted int64   `json:"jobs_completed"`
	JobsFailed    int64   `json:"jobs_failed"`
	JobsRejected  int64   `json:"jobs_rejected"`
	JobsRunning   int64   `json:"jobs_running"`
	// JobsRetried counts transient-failure re-enqueues; PanicsRecovered
	// counts recovered panics, once per panic however many single-flight
	// waiters shared it.
	JobsRetried     int64       `json:"jobs_retried"`
	PanicsRecovered int64       `json:"panics_recovered"`
	RetriesPending  int         `json:"retries_pending"`
	Engine          EngineStats `json:"engine"`
	// Shard reports the peer-routing tier (nil when sharding is off).
	Shard *ShardMetrics `json:"shard,omitempty"`
	// Journal reports the crash-recovery journal (nil when none is mounted).
	Journal *JournalMetrics `json:"journal,omitempty"`
	// Replication reports the result-replication and hinted-handoff tier
	// (nil when replication is off).
	Replication *ReplicationMetrics `json:"replication,omitempty"`
	// Tenants reports per-tenant admission counters (nil when admission
	// control is off).
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// ShardMetrics is the /v1/metrics view of the consistent-hash peer tier.
type ShardMetrics struct {
	Node  string   `json:"node"`
	Nodes []string `json:"nodes"`
	// Owned counts submissions this node owned and ran; Forwarded counts
	// submissions proxied to their owner; ReceivedForwarded counts
	// submissions that arrived pre-routed from a peer; ForwardFailed counts
	// forwards that fell back to local compute.
	Owned             int64 `json:"owned"`
	Forwarded         int64 `json:"forwarded"`
	ReceivedForwarded int64 `json:"received_forwarded"`
	ForwardFailed     int64 `json:"forward_failed"`
	// Failovers counts submissions routed past an open-breaker owner to
	// the next healthy ring successor.
	Failovers int64 `json:"failovers"`
	// Breakers maps peer → circuit state ("closed", "half-open", "open");
	// BreakerTransitions counts state changes observed.
	Breakers           map[string]string `json:"breakers,omitempty"`
	BreakerTransitions int64             `json:"breaker_transitions"`
	// Probes / ProbeFailures count active health checks (zero when the
	// prober is off).
	Probes        int64 `json:"probes"`
	ProbeFailures int64 `json:"probe_failures"`
}

// ReplicationMetrics is the /v1/metrics view of result replication and
// hinted handoff.
type ReplicationMetrics struct {
	// Factor is the effective replication factor.
	Factor int `json:"factor"`
	// Pushed / Failed count replica writes delivered to peers and writes
	// that fell back to a hint; Received counts replica writes accepted
	// from peers.
	Pushed   int64 `json:"pushed"`
	Failed   int64 `json:"failed"`
	Received int64 `json:"received"`
	// HandoffPending is the current hint backlog; HandoffQueued /
	// HandoffDelivered / HandoffDropped are lifetime hint-queue counters.
	HandoffPending   int   `json:"handoff_pending"`
	HandoffQueued    int64 `json:"handoff_queued"`
	HandoffDelivered int64 `json:"handoff_delivered"`
	HandoffDropped   int64 `json:"handoff_dropped"`
}

// JournalMetrics is the /v1/metrics view of the job journal.
type JournalMetrics struct {
	// PendingAtOpen is the replay backlog found when the journal opened;
	// Replayed is how many of those were re-enqueued.
	PendingAtOpen int   `json:"pending_at_open"`
	Replayed      int64 `json:"replayed"`
	Appends       int64 `json:"appends"`
	// Errors counts failed journal appends (persistence degraded; requests
	// unaffected).
	Errors int64 `json:"errors"`
}

// Metrics snapshots the server counters. Every count is kept once, in the
// collector, and read back from it; only the running and failure-streak
// levels are atomics.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	pending := len(s.retries)
	s.mu.Unlock()
	m := Metrics{
		UptimeSeconds:   time.Since(s.started).Seconds(),
		Workers:         s.cfg.Workers,
		QueueDepth:      len(s.queue),
		QueueCapacity:   s.cfg.QueueDepth,
		JobsAccepted:    s.counted("service.jobs.accepted"),
		JobsCompleted:   s.counted("service.jobs.completed"),
		JobsFailed:      s.counted("service.jobs.failed"),
		JobsRejected:    s.counted("service.jobs.rejected"),
		JobsRunning:     s.running.Load(),
		JobsRetried:     s.counted("service.jobs.retried"),
		PanicsRecovered: s.counted("service.panic.recovered"),
		RetriesPending:  pending,
		Engine:          s.engine.Stats(),
	}
	if s.cfg.Shard != nil {
		m.Shard = &ShardMetrics{
			Node:               s.cfg.NodeID,
			Nodes:              s.cfg.Shard.Nodes(),
			Owned:              s.counted("service.shard.owned"),
			Forwarded:          s.counted("service.shard.forwarded"),
			ReceivedForwarded:  s.counted("service.shard.received_forwarded"),
			ForwardFailed:      s.counted("service.shard.forward_failed"),
			Failovers:          s.counted("service.shard.failover"),
			BreakerTransitions: s.counted("service.fleet.breaker.transition"),
		}
		states := s.cfg.Shard.Breakers.States()
		m.Shard.Breakers = make(map[string]string, len(states))
		for node, st := range states {
			m.Shard.Breakers[node] = st.String()
		}
		m.Shard.Probes, m.Shard.ProbeFailures = s.prober.Stats()
		if f := s.replication(); f > 1 {
			hs := s.cfg.Hints.Stats()
			m.Replication = &ReplicationMetrics{
				Factor:           f,
				Pushed:           s.counted("service.replica.pushed"),
				Failed:           s.counted("service.replica.failed"),
				Received:         s.counted("service.replica.received"),
				HandoffPending:   hs.Pending,
				HandoffQueued:    hs.Queued,
				HandoffDelivered: hs.Delivered,
				HandoffDropped:   hs.Dropped,
			}
		}
	}
	m.Tenants = s.admission.stats()
	if s.cfg.Journal != nil {
		js := s.cfg.Journal.Stats()
		m.Journal = &JournalMetrics{
			PendingAtOpen: js.PendingAtOpen,
			Replayed:      s.counted("service.journal.replayed"),
			Appends:       js.Appends,
			Errors:        s.counted("service.journal.errors"),
		}
	}
	return m
}

// counted reads a counter the server emitted through its tracer.
func (s *Server) counted(name string) int64 {
	return int64(s.collector.Counter(name))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
	// Kind is a machine-readable classification for errors a client routes
	// on (e.g. "owner_unavailable" for polls whose owning node is down, or
	// "tenant_rate" for admission rejections).
	Kind string `json:"kind,omitempty"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func writeErrorKind(w http.ResponseWriter, status int, kind string, err error) {
	writeJSON(w, status, errorBody{Error: err.Error(), Kind: kind})
}
