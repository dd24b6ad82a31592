package service

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// JobStatus is the lifecycle state of a queued analysis.
type JobStatus string

// Job lifecycle states.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// CacheState records how a finished job obtained its outcome.
type CacheState string

// Cache states.
const (
	// CacheMiss: this job executed the full pipeline.
	CacheMiss CacheState = "miss"
	// CacheHit: the outcome was served from the in-memory result cache.
	CacheHit CacheState = "hit"
	// CacheDisk: the outcome was read back from the persistent
	// content-addressed store (a previously-solved request answered after
	// a restart or memory eviction, without invoking the solver).
	CacheDisk CacheState = "disk"
	// CacheShared: the job joined a concurrent identical in-flight solve.
	CacheShared CacheState = "shared"
)

// AnalysisRequest is the body of POST /v1/analyses.
//
// The architecture is selected one of three ways: a built-in reference
// ("builtin:1" … "builtin:3"), the name of a model stored in the server's
// models directory ("architecture1" resolves models/architecture1.json), or
// a full inline document in Inline. Category and protection must be given
// together: they select one grid cell, and leaving both empty requests the
// full CIA × protection grid (Figure 5 for the given architecture).
// Property switches to CSL property checking against the transformed model;
// there, an omitted cell defaults to confidentiality/unencrypted (the model
// the property's labels address is built for that cell).
type AnalysisRequest struct {
	// Kind selects the model family: "" or "architecture" for the paper's
	// architecture models, "attack_tree" for attack-tree threat models
	// (Architecture/Inline then name or carry a tree document). Any other
	// value is rejected with error kind "unknown_model_kind", so new model
	// families fail cleanly on nodes that predate them.
	Kind         string          `json:"kind,omitempty"`
	Architecture string          `json:"architecture,omitempty"`
	Inline       json.RawMessage `json:"inline,omitempty"`
	// Countermeasures lists attack-tree countermeasures to apply (attack
	// tree requests only).
	Countermeasures []string `json:"countermeasures,omitempty"`
	Message         string   `json:"message,omitempty"` // default "m"
	NMax            int      `json:"nmax,omitempty"`    // default 2
	Horizon         float64  `json:"horizon,omitempty"` // years, default 1
	Category        string   `json:"category,omitempty"`
	Protection      string   `json:"protection,omitempty"`
	Property        string   `json:"property,omitempty"`
	// SkipSteadyState omits the long-run probability (faster; sweep-style
	// clients usually set it).
	SkipSteadyState bool `json:"skip_steady_state,omitempty"`
	// UseLumping solves the ordinary-lumping quotient instead of the full
	// chain.
	UseLumping bool `json:"use_lumping,omitempty"`
	// MaxStates / MaxTransitions bound exploration for this request; 0
	// inherits the server budget, larger values are clamped to it. A
	// violated budget fails the job with error kind "budget_exceeded"
	// (HTTP 422 on synchronous submission).
	MaxStates      int `json:"max_states,omitempty"`
	MaxTransitions int `json:"max_transitions,omitempty"`
	// TimeoutSeconds bounds the job's execution; 0 inherits the server's
	// job timeout, larger values are clamped to it.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// WaitSeconds asks the server to hold the POST open up to this long
	// waiting for the result; 0 returns 202 immediately for queued jobs.
	WaitSeconds float64 `json:"wait_seconds,omitempty"`
}

// AnalysisResult is one analysed combination, the JSON-safe projection of
// core.Result (a NaN steady state maps to null).
type AnalysisResult struct {
	Architecture    string   `json:"architecture"`
	Message         string   `json:"message"`
	Category        string   `json:"category"`
	Protection      string   `json:"protection"`
	ExploitableTime float64  `json:"exploitable_time"`
	SteadyState     *float64 `json:"steady_state,omitempty"`
	States          int      `json:"states"`
	Transitions     int      `json:"transitions"`
	LumpedStates    int      `json:"lumped_states,omitempty"`
	BuildSeconds    float64  `json:"build_seconds"`
	CheckSeconds    float64  `json:"check_seconds"`
}

// PropertyResult is the outcome of a CSL property check.
type PropertyResult struct {
	Property  string  `json:"property"`
	Value     float64 `json:"value"`
	Bounded   bool    `json:"bounded,omitempty"`
	Satisfied bool    `json:"satisfied,omitempty"`
}

// TreeResult is the outcome of an attack-tree analysis: the synthesized
// top-event queries answered over the compiled tree.
type TreeResult struct {
	Tree    string  `json:"tree"`
	Horizon float64 `json:"horizon"`
	// TopEventProbability is P=? [ F<=horizon "goal" ].
	TopEventProbability float64 `json:"top_event_probability"`
	// MTTAYears is the mean time to attack, R{"time"}=? [ F "goal" ] —
	// omitted when the top event is unreachable (expected time infinite).
	MTTAYears *float64 `json:"mtta_years,omitempty"`
	// Countermeasures and Cost echo the applied selection and its summed
	// cost, so ranking clients read risk and cost from one payload.
	Countermeasures []string `json:"countermeasures,omitempty"`
	Cost            float64  `json:"cost,omitempty"`
	States          int      `json:"states"`
	Transitions     int      `json:"transitions"`
	BuildSeconds    float64  `json:"build_seconds"`
	CheckSeconds    float64  `json:"check_seconds"`
}

// Outcome is the payload of a finished analysis — also the unit the result
// cache stores, so it is immutable once published.
type Outcome struct {
	Results  []AnalysisResult `json:"results,omitempty"`
	Property *PropertyResult  `json:"property,omitempty"`
	Tree     *TreeResult      `json:"tree,omitempty"`
}

// Job is one accepted analysis moving through the queue → worker → done
// lifecycle. All mutable state is guarded by mu; done closes when the job
// reaches a terminal status.
type Job struct {
	id      string
	req     *AnalysisRequest
	created time.Time
	// trace is the client's distributed-trace context when the submission
	// carried a traceparent header (zero otherwise): job spans parent to it
	// and the job manifest is stamped with its trace ID.
	trace obs.TraceContext

	// tracer feeds the server's sink chain plus the job's collector and
	// attempt recorder, which accumulate spans and retry/fallback attempts
	// across every execution of the job, so the manifest of a retried job
	// covers its whole history.
	tracer    *obs.Tracer
	collector *obs.Collector
	recorder  *obs.AttemptRecorder

	// tenant is the admission-control identity the job was charged to
	// (empty when admission is off or the job arrived pre-routed from a
	// peer — the entry node already charged it).
	tenant string
	// key is the request's canonical content address, computed at submit
	// when replication is on — the address replica writes go out under.
	key string
	// handoffOwner names the down primary owner this node computed on
	// behalf of (empty normally), so the result replicates to it —
	// immediately if it answers, via a hinted-handoff record otherwise.
	handoffOwner string
	// release returns the job's admission slot; finishJob invokes it once
	// when the job reaches a terminal state (nil when nothing was charged).
	release func()

	// slowThreshold (nanoseconds) is the slow-analysis latency bar captured
	// when the job first starts executing, so an auto-derived threshold is
	// judged against the histogram as it was *before* this job ran.
	slowThreshold atomic.Int64

	// selfTrace is the trace context of the job's own "service.job" span,
	// captured each attempt (guarded by mu — a drain-path finish can read it
	// from another goroutine). Replica pushes and hinted handoffs re-parent
	// under it, so the write fan-out appears inside the request's trace
	// instead of the server's background-machinery trace.
	selfTraceMu sync.Mutex
	selfTrace   obs.TraceContext

	mu       sync.Mutex
	status   JobStatus
	attempt  int
	started  time.Time
	finished time.Time
	outcome  *Outcome
	err      error
	cache    CacheState
	manifest *obs.Manifest

	done chan struct{}
}

// newJob returns a queued job whose tracer emits to sinks (the server's
// chain) and to the job's own collector and attempt recorder.
func newJob(id string, req *AnalysisRequest, sinks obs.Sink) *Job {
	j := &Job{
		id:        id,
		req:       req,
		created:   time.Now(),
		collector: obs.NewCollector(),
		recorder:  &obs.AttemptRecorder{},
		status:    StatusQueued,
		done:      make(chan struct{}),
	}
	j.tracer = obs.NewTracer(obs.MultiSink{sinks, j.collector, j.recorder}, false)
	return j
}

// Done returns a channel closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

// setSelfTrace records the job span's trace context for the replication
// fan-out; trace returns it (falling back to the client's context when the
// job never ran, e.g. a drain-path cancellation).
func (j *Job) setSelfTrace(tc obs.TraceContext) {
	j.selfTraceMu.Lock()
	j.selfTrace = tc
	j.selfTraceMu.Unlock()
}

func (j *Job) selfTraceContext() obs.TraceContext {
	j.selfTraceMu.Lock()
	defer j.selfTraceMu.Unlock()
	if j.selfTrace.Valid() {
		return j.selfTrace
	}
	return j.trace
}

// beginAttempt transitions the job to running and returns the 1-based
// attempt number.
func (j *Job) beginAttempt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = StatusRunning
	j.attempt++
	if j.started.IsZero() {
		j.started = time.Now()
	}
	return j.attempt
}

// requeued marks the job waiting for a retry.
func (j *Job) requeued() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = StatusQueued
}

// finish publishes the terminal state exactly once, reporting whether this
// call was the one that finished the job (false when it was already
// terminal — the last-resort panic recovery can race a normal finish).
// count runs only on that call, before the state is published, so a reader
// that sees the job finished also sees what count recorded.
func (j *Job) finish(out *Outcome, cache CacheState, err error, m *obs.Manifest, count func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusDone, StatusFailed, StatusCanceled:
		return false
	}
	count()
	j.finished = time.Now()
	j.outcome = out
	j.err = err
	j.cache = cache
	j.manifest = m
	switch {
	case err == nil:
		j.status = StatusDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.status = StatusCanceled
	default:
		j.status = StatusFailed
	}
	close(j.done)
	return true
}

// elapsed is the job's execution wall time — first start to finish,
// including any retry backoff but excluding queue wait. Zero until the job
// finishes.
func (j *Job) elapsed() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() || j.finished.IsZero() {
		return 0
	}
	return j.finished.Sub(j.started)
}

// Manifest returns the per-job run manifest (nil until the job finishes).
func (j *Job) Manifest() *obs.Manifest {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.manifest
}

// JobView is the wire representation of a job, returned by POST
// /v1/analyses and GET /v1/analyses/{id}.
type JobView struct {
	ID       string     `json:"id"`
	Status   JobStatus  `json:"status"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Node names the server that executed the job (set when the server has
	// a shard identity; forwarded submissions carry the owner's name).
	Node string `json:"node,omitempty"`
	// Cache reports how the outcome was obtained: "hit", "miss", "disk"
	// (read back from the persistent store) or "shared" (joined a
	// concurrent identical solve).
	Cache          CacheState `json:"cache,omitempty"`
	ElapsedSeconds float64    `json:"elapsed_seconds,omitempty"`
	// Attempts counts executions of the job (> 1 after transient-failure
	// retries).
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	// ErrorKind classifies a failure: "bad_request", "budget_exceeded",
	// "no_convergence", "panic", "timeout", "canceled" or "internal".
	ErrorKind string           `json:"error_kind,omitempty"`
	Results   []AnalysisResult `json:"results,omitempty"`
	Property  *PropertyResult  `json:"property,omitempty"`
	Tree      *TreeResult      `json:"tree,omitempty"`
}

// View snapshots the job for serialisation.
func (j *Job) View() *JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := &JobView{
		ID:       j.id,
		Status:   j.status,
		Created:  j.created,
		Cache:    j.cache,
		Attempts: j.attempt,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
		if !j.started.IsZero() {
			v.ElapsedSeconds = j.finished.Sub(j.started).Seconds()
		}
	}
	if j.err != nil {
		v.Error = j.err.Error()
		v.ErrorKind = errorKind(j.err)
	}
	if j.outcome != nil {
		v.Results = j.outcome.Results
		v.Property = j.outcome.Property
		v.Tree = j.outcome.Tree
	}
	return v
}
