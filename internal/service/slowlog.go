package service

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
)

// The slow-analysis log is the service's wide-event outlier record: one
// JSONL line per analysis that either exceeded the latency threshold or
// had to walk the solver fallback chain. Each line is self-contained — the
// canonical request fingerprint, model size, per-stage durations, cache
// state, trace ID and the full solver attempt history — so a production
// outlier can be understood (and re-run) from the log alone, without
// correlating across systems.

// Slow-log thresholds. With no explicit Config.SlowThreshold the threshold
// is derived from the live "service.job" duration histogram once it has
// enough samples: slowAutoMultiplier × p99, floored at slowAutoFloor so
// scheduler noise on fast jobs cannot spam the log. Until the histogram
// warms up, DefaultSlowThreshold applies.
const (
	DefaultSlowThreshold = 30 * time.Second
	slowAutoMinSamples   = 16
	slowAutoMultiplier   = 4
	slowAutoFloor        = 50 * time.Millisecond
)

// Slow-record reasons.
const (
	// SlowReasonLatency: the job's execution wall time crossed the threshold.
	SlowReasonLatency = "latency"
	// SlowReasonFallback: the solver left its first-choice method (or a job
	// attempt failed), regardless of latency.
	SlowReasonFallback = "fallback"
)

// SlowRecord is one line of the slow-analysis log.
type SlowRecord struct {
	Time  time.Time `json:"time"`
	JobID string    `json:"job_id"`
	// TraceID matches the job manifest's (and, for traced clients, the
	// client's) trace ID.
	TraceID string `json:"trace_id,omitempty"`
	// Fingerprint is the canonical request content address
	// (Engine.Fingerprint) — the stable identity for grouping outliers.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Reasons lists why the record was written (SlowReasonLatency,
	// SlowReasonFallback, or both).
	Reasons []string `json:"reasons"`
	// ElapsedSeconds is the job's execution wall time (first start to
	// finish, including retry backoff); ThresholdSeconds is the latency bar
	// in effect when the job started.
	ElapsedSeconds   float64 `json:"elapsed_seconds"`
	ThresholdSeconds float64 `json:"threshold_seconds"`
	// States/Transitions describe the explored model (zero on cache hits —
	// nothing was explored).
	States      int64 `json:"states,omitempty"`
	Transitions int64 `json:"transitions,omitempty"`
	// Cache is the job's cache disposition ("hit", "miss", "shared").
	Cache string `json:"cache,omitempty"`
	// Stages maps span name → cumulative seconds for the job, from the
	// per-job manifest phases.
	Stages map[string]float64 `json:"stages,omitempty"`
	// Attempts is the job's full retry/fallback history, each solver
	// attempt carrying its sampled convergence trace.
	Attempts []obs.Attempt `json:"attempts,omitempty"`
	// FinalResidual is the residual of the last solver attempt, when any
	// solver ran.
	FinalResidual float64 `json:"final_residual,omitempty"`
	// Error is the job's terminal error, when it failed.
	Error string `json:"error,omitempty"`
}

// slowLog serialises SlowRecords as JSONL onto one writer.
type slowLog struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func newSlowLog(w io.Writer) *slowLog {
	return &slowLog{enc: json.NewEncoder(w)}
}

func (l *slowLog) write(rec SlowRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_ = l.enc.Encode(rec)
}

// slowThresholdNow resolves the latency bar for a job starting now: the
// configured threshold, or — in auto mode — a multiple of the live p99 of
// job durations. It is captured at job start, before the job's own
// duration lands in the histogram, so one slow job cannot raise the bar
// that judges it.
func (s *Server) slowThresholdNow() time.Duration {
	if s.cfg.SlowThreshold > 0 {
		return s.cfg.SlowThreshold
	}
	snap, ok := s.collector.Histogram("service.job")
	if !ok || snap.Count < slowAutoMinSamples {
		return DefaultSlowThreshold
	}
	d := time.Duration(snap.P99() * slowAutoMultiplier * float64(time.Second))
	if d < slowAutoFloor {
		d = slowAutoFloor
	}
	return d
}

// maybeLogSlow writes the job to the slow-analysis log when it crossed its
// latency threshold or walked the fallback chain. Called after the job's
// terminal state is published.
func (s *Server) maybeLogSlow(job *Job, m *obs.Manifest, cache CacheState, err error) {
	if s.slow == nil {
		return
	}
	threshold := time.Duration(job.slowThreshold.Load())
	if threshold <= 0 {
		threshold = DefaultSlowThreshold
	}
	elapsed := job.elapsed()

	fellBack := false
	var finalResidual float64
	for _, at := range m.Attempts {
		switch {
		case at.Stage == "solver":
			finalResidual = at.Residual
			if at.Try > 1 || at.Outcome != obs.AttemptOK {
				fellBack = true
			}
		case at.Outcome != obs.AttemptOK:
			fellBack = true
		}
	}
	var reasons []string
	if elapsed >= threshold {
		reasons = append(reasons, SlowReasonLatency)
	}
	if fellBack {
		reasons = append(reasons, SlowReasonFallback)
	}
	if len(reasons) == 0 {
		return
	}

	rec := SlowRecord{
		Time:             time.Now(),
		JobID:            job.id,
		TraceID:          m.TraceID,
		Reasons:          reasons,
		ElapsedSeconds:   elapsed.Seconds(),
		ThresholdSeconds: threshold.Seconds(),
		States:           m.Model.States,
		Transitions:      m.Model.Transitions,
		Cache:            string(cache),
		Attempts:         m.Attempts,
		FinalResidual:    finalResidual,
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if fp, ferr := s.engine.Fingerprint(job.req); ferr == nil {
		rec.Fingerprint = fp
	}
	if len(m.Phases) > 0 {
		rec.Stages = make(map[string]float64, len(m.Phases))
		for _, ps := range m.Phases {
			rec.Stages[ps.Name] = ps.Seconds
		}
	}
	s.slow.write(rec)
	s.collector.Emit(&obs.Event{Kind: obs.EventCounter, Time: rec.Time, Name: "service.slowlog.records", Value: 1})
}
