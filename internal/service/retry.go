package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/linalg"
	"repro/internal/modular"
)

// PanicError is a panic recovered on the solve path, converted into a job
// failure so the daemon survives. The stack is preserved for the job view
// and manifest.
type PanicError struct {
	// Value is the recovered panic value, stringified.
	Value string
	// Stack is the goroutine stack at recovery.
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("service: recovered panic: %s", e.Value)
}

// Error kinds classify job failures for clients (JobView.ErrorKind) and the
// retry policy. They are coarse on purpose: stable strings an operator can
// alert on.
const (
	errKindBadRequest  = "bad_request"
	errKindUnknownKind = "unknown_model_kind"
	errKindBudget      = "budget_exceeded"
	errKindConvergence = "no_convergence"
	errKindPanic       = "panic"
	errKindTimeout     = "timeout"
	errKindCanceled    = "canceled"
	errKindInternal    = "internal"
)

// errorKind maps a job error onto its kind, empty for nil.
func errorKind(err error) string {
	var pe *PanicError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &pe):
		return errKindPanic
	case errors.Is(err, modular.ErrBudgetExceeded):
		return errKindBudget
	case errors.Is(err, linalg.ErrNoConvergence):
		return errKindConvergence
	case errors.Is(err, context.DeadlineExceeded):
		return errKindTimeout
	case errors.Is(err, context.Canceled):
		return errKindCanceled
	case errors.Is(err, ErrUnknownKind):
		return errKindUnknownKind
	case errors.Is(err, ErrBadRequest):
		return errKindBadRequest
	default:
		return errKindInternal
	}
}

// retryable reports whether a failure is transient enough to re-enqueue:
// convergence exhaustion (a different cache/load state may take the dense
// fallback) and recovered panics. Budget violations and bad requests are
// deterministic, and context errors mean the job's own deadline or the
// server's shutdown — retrying those wastes the budget.
func retryable(err error) bool {
	switch errorKind(err) {
	case errKindConvergence, errKindPanic:
		return true
	}
	return false
}

// retryDelay computes the capped exponential backoff with full jitter for
// the given completed attempt count: base·2^(attempt−1) capped at max, then
// drawn uniformly from [d/2, d) so synchronized failures spread out.
func retryDelay(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rand.Int63n(int64(half)))
}
