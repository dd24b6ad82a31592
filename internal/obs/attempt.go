package obs

import (
	"context"
	"sync"
	"time"
)

// Attempt outcomes.
const (
	// AttemptOK: the attempt produced a result.
	AttemptOK = "ok"
	// AttemptError: the attempt failed with an error.
	AttemptError = "error"
	// AttemptPanic: the attempt panicked and was recovered.
	AttemptPanic = "panic"
	// AttemptInjected: the attempt failed because a fault-injection point
	// fired.
	AttemptInjected = "injected"
)

// Attempt is one try of a fault-tolerant stage — a solver in a fallback
// chain, or a job execution in a retry loop. The recovery machinery emits
// attempts as events (RecordAttempt) that reach the run manifest, so a chaos
// run's history (which methods were tried, what failed, what finally
// succeeded) is auditable after the fact.
type Attempt struct {
	// Stage names the retrying layer ("solver", "job").
	Stage string `json:"stage"`
	// Try is the 1-based attempt number within the stage.
	Try int `json:"try"`
	// Method identifies what was tried (solver name; empty for job retries).
	Method string `json:"method,omitempty"`
	// Outcome is one of the Attempt* constants.
	Outcome string `json:"outcome"`
	// Error carries the failure message for non-ok outcomes.
	Error string `json:"error,omitempty"`
	// Stack is the recovered panic's stack trace, when Outcome is "panic".
	Stack string `json:"stack,omitempty"`
	// Iterations reports solver sweeps, when the stage is a solver.
	Iterations int `json:"iterations,omitempty"`
	// Seconds is the attempt's wall time.
	Seconds float64 `json:"seconds,omitempty"`
	// Residual is the attempt's final residual, when the stage is a solver.
	// Its meaning depends on the method: for Gauss–Seidel it is the max-norm
	// change between the last two sweeps (what the stopping test reads), for
	// the dense step the true max-norm residual ‖b − A·x‖∞ of its answer.
	Residual float64 `json:"residual,omitempty"`
	// Trace is the attempt's sampled convergence curve (log-spaced residual
	// samples), when the stage is a solver. It is what turns "gauss-seidel
	// failed after 500000 sweeps" into "gauss-seidel plateaued at 1e-9 from
	// sweep 31000 on" in a post-mortem.
	Trace []ResidualPoint `json:"trace,omitempty"`
}

// ResidualPoint is one sampled (iteration, residual) pair of an iterative
// solve. It lives in obs rather than linalg so the manifest and attempt
// records can carry convergence curves without an import cycle.
type ResidualPoint struct {
	Iteration int     `json:"iteration"`
	Residual  float64 `json:"residual"`
}

// AttemptRecorder accumulates the attempt events of one job. It is a sink:
// installed in the job's tracer, it collects the history of every layer —
// the worker-level retry loop and the deep solver fallback chain alike —
// from the one event stream. Safe for concurrent use; a nil recorder
// ignores events.
type AttemptRecorder struct {
	mu       sync.Mutex
	attempts []Attempt
}

// Emit implements Sink, keeping attempt events and ignoring the rest.
func (r *AttemptRecorder) Emit(e *Event) {
	if r == nil || e.Kind != EventAttempt {
		return
	}
	r.mu.Lock()
	r.attempts = append(r.attempts, *e.Attempt)
	r.mu.Unlock()
}

// Attempts snapshots the recorded history.
func (r *AttemptRecorder) Attempts() []Attempt {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Attempt, len(r.attempts))
	copy(out, r.attempts)
	return out
}

// RecordAttempt emits one attempt event through the tracer resolved from ctx
// (or the default), reaching every sink: the job's AttemptRecorder, the
// flight ring, a JSON-lines trace. A no-op when observability is off.
func RecordAttempt(ctx context.Context, a Attempt) {
	if tr := resolve(ctx); tr != nil {
		// A copy declared here, not &a: taking the parameter's address would
		// move it to the heap on every call, disabled or not.
		rec := a
		tr.sink.Emit(&Event{Kind: EventAttempt, Time: time.Now(), Name: a.Stage, Attempt: &rec})
	}
}
