package linalg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
)

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget before reaching the requested tolerance. Solvers wrap it
// in a *ConvergenceError carrying the iteration count and final residual.
var ErrNoConvergence = errors.New("linalg: iteration limit reached without convergence")

// ConvergenceError reports a failed iterative solve with enough context to
// act on it: which method ran, how many sweeps it used, and how far from
// the tolerance it stopped. It unwraps to ErrNoConvergence, so existing
// errors.Is checks keep working.
type ConvergenceError struct {
	// Method is the solver name ("jacobi", "gauss-seidel").
	Method string
	// Iterations is the number of sweeps performed (the MaxIter budget).
	Iterations int
	// Residual is the final max-norm change between successive iterates.
	Residual float64
	// Tol is the tolerance that was not reached.
	Tol float64
}

// Error implements error.
func (e *ConvergenceError) Error() string {
	return fmt.Sprintf("linalg: %s did not converge in %d iterations (residual %.3g, tol %.3g)",
		e.Method, e.Iterations, e.Residual, e.Tol)
}

// Unwrap makes errors.Is(err, ErrNoConvergence) succeed.
func (e *ConvergenceError) Unwrap() error { return ErrNoConvergence }

// IterStats reports what an iterative solve actually did. Point IterOpts at
// one to collect it; the solver fills it on both success and failure.
type IterStats struct {
	// Iterations is the number of sweeps performed.
	Iterations int
	// Residual is the final max-norm change between successive iterates.
	Residual float64
	// Converged records whether the tolerance was met.
	Converged bool
	// Trace is the sampled convergence curve (log-spaced, so a 10k-iteration
	// solve yields ~50 points), filled when IterOpts.CollectTrace is set.
	// The final iteration is always included.
	Trace []obs.ResidualPoint
}

// IterOpts configures the iterative solvers. The zero value selects the
// defaults below.
type IterOpts struct {
	// Tol is the termination tolerance on the max-norm change between
	// successive iterates, relative to the solution magnitude
	// (delta ≤ Tol·(1 + maxᵢ|xᵢ|)). Default 1e-12.
	Tol float64
	// MaxIter bounds the number of sweeps. Default 100000.
	MaxIter int
	// Stats, when non-nil, receives iteration count and final residual —
	// the instrumentation hook used by internal/ctmc spans.
	Stats *IterStats
	// CollectTrace samples the per-iteration residual into Stats.Trace
	// (requires Stats). Sampling is log-spaced: the interval grows ~25% per
	// sample, bounding the trace at O(log MaxIter) points.
	CollectTrace bool
}

func (o IterOpts) withDefaults() IterOpts {
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100000
	}
	return o
}

// Jacobi solves A·x = b for a split system A with nonzero diagonal using
// Jacobi iteration: x_i ← (b_i − Σ_{j≠i} a_ij x_j) / a_ii.
func Jacobi(a *Split, b Vector, opts IterOpts) (Vector, error) {
	if err := a.check("Jacobi", b); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	n := a.Off.Rows
	x := NewVector(n)
	next := NewVector(n)
	smp := opts.sampler()
	var lastDelta float64
	for iter := 0; iter < opts.MaxIter; iter++ {
		for i := 0; i < n; i++ {
			s := b[i]
			cols, vals := a.Off.Row(i)
			for k, j := range cols {
				s -= vals[k] * x[j]
			}
			next[i] = s / a.Diag[i]
		}
		d := x.MaxDiff(next)
		x, next = next, x
		lastDelta = d
		smp.observe(iter+1, d)
		if d <= opts.Tol*(1+x.NormInf()) {
			if !x.AllFinite() {
				return nil, ErrSingular
			}
			opts.report(iter+1, d, true, smp)
			return x, nil
		}
	}
	opts.report(opts.MaxIter, lastDelta, false, smp)
	return nil, &ConvergenceError{Method: "jacobi", Iterations: opts.MaxIter, Residual: lastDelta, Tol: opts.Tol}
}

// report fills the caller-provided stats block, if any, attaching the
// sampled convergence curve (with the final iteration appended if the
// sampler's stride skipped it).
func (o IterOpts) report(iterations int, residual float64, converged bool, smp *residualSampler) {
	if o.Stats == nil {
		return
	}
	st := IterStats{Iterations: iterations, Residual: residual, Converged: converged}
	if smp != nil {
		if n := len(smp.pts); n == 0 || smp.pts[n-1].Iteration != iterations {
			smp.pts = append(smp.pts, obs.ResidualPoint{Iteration: iterations, Residual: residual})
		}
		st.Trace = smp.pts
	}
	*o.Stats = st
}

// sampler returns a residual sampler when tracing is requested, else nil (a
// nil sampler's observe is a no-op, so the solver loops stay branch-cheap).
func (o IterOpts) sampler() *residualSampler {
	if !o.CollectTrace || o.Stats == nil {
		return nil
	}
	return &residualSampler{}
}

// residualSampler records (iteration, residual) pairs at log-spaced
// intervals: each recorded sample pushes the next sample point ~25% further
// out, so the trace grows with the log of the iteration count.
type residualSampler struct {
	pts  []obs.ResidualPoint
	next int // next 1-based iteration to record
}

func (s *residualSampler) observe(iter int, residual float64) {
	if s == nil || iter < s.next {
		return
	}
	s.pts = append(s.pts, obs.ResidualPoint{Iteration: iter, Residual: residual})
	s.next = iter + iter/4 + 1
}

// GaussSeidel solves A·x = b for a split system A with nonzero diagonal
// using Gauss–Seidel sweeps (in-place updates, typically ~2x faster than
// Jacobi on the diagonally dominant systems produced by Markov models).
// Each row subtracts its off-diagonal terms in column order and divides by
// its diagonal, so the split form needs no per-entry diagonal test.
func GaussSeidel(a *Split, b Vector, opts IterOpts) (Vector, error) {
	if err := a.check("GaussSeidel", b); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	n := a.Off.Rows
	x := NewVector(n)
	smp := opts.sampler()
	var lastDelta float64
	for iter := 0; iter < opts.MaxIter; iter++ {
		var maxDelta, maxAbs float64
		for i := 0; i < n; i++ {
			s := b[i]
			cols, vals := a.Off.Row(i)
			vals = vals[:len(cols)]
			for k, j := range cols {
				s -= vals[k] * x[j]
			}
			nv := s / a.Diag[i]
			if d := math.Abs(nv - x[i]); d > maxDelta {
				maxDelta = d
			}
			if a := math.Abs(nv); a > maxAbs {
				maxAbs = a
			}
			x[i] = nv
		}
		lastDelta = maxDelta
		smp.observe(iter+1, maxDelta)
		if maxDelta <= opts.Tol*(1+maxAbs) {
			if !x.AllFinite() {
				return nil, ErrSingular
			}
			opts.report(iter+1, maxDelta, true, smp)
			return x, nil
		}
	}
	opts.report(opts.MaxIter, lastDelta, false, smp)
	return nil, &ConvergenceError{Method: "gauss-seidel", Iterations: opts.MaxIter, Residual: lastDelta, Tol: opts.Tol}
}
