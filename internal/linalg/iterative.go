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
	// Method is the solver name (a Method* constant).
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

// IterStats reports what an iterative solve did, on success and failure
// alike.
type IterStats struct {
	// Iterations is the number of sweeps performed.
	Iterations int
	// Residual is the final max-norm change between successive iterates.
	Residual float64
	// Converged records whether the tolerance was met.
	Converged bool
	// Trace is the sampled convergence curve, log-spaced so that a
	// 10k-iteration solve yields ~50 points. The final iteration is always
	// included.
	Trace []obs.ResidualPoint
}

// IterOpts configures the iterative solver. The zero value selects the
// defaults below.
type IterOpts struct {
	// Tol is the termination tolerance on the max-norm change between
	// successive iterates, relative to the solution magnitude
	// (delta ≤ Tol·(1 + maxᵢ|xᵢ|)). Default 1e-12.
	Tol float64
	// MaxIter bounds the number of sweeps. Default 100000.
	MaxIter int
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

// residualSampler records (iteration, residual) pairs at log-spaced
// intervals: each recorded sample pushes the next sample point ~25% further
// out, so the trace grows with the log of the iteration count.
type residualSampler struct {
	pts  []obs.ResidualPoint
	next int // next 1-based iteration to record
}

func (s *residualSampler) observe(iter int, residual float64) {
	if iter < s.next {
		return
	}
	s.pts = append(s.pts, obs.ResidualPoint{Iteration: iter, Residual: residual})
	s.next = iter + iter/4 + 1
}

// stats returns the solve's stats with the sampled curve, the final
// iteration appended if the sampler's stride skipped it.
func (s *residualSampler) stats(iterations int, residual float64, converged bool) IterStats {
	if n := len(s.pts); n == 0 || s.pts[n-1].Iteration != iterations {
		s.pts = append(s.pts, obs.ResidualPoint{Iteration: iterations, Residual: residual})
	}
	return IterStats{Iterations: iterations, Residual: residual, Converged: converged, Trace: s.pts}
}

// GaussSeidel solves A·x = b for a split system A with nonzero diagonal
// using Gauss–Seidel sweeps (in-place updates) and returns the solve's
// stats, its sampled convergence curve included. Each row subtracts its
// off-diagonal terms in column order and divides by its diagonal, so the
// split form needs no per-entry diagonal test.
func GaussSeidel(a *Split, b Vector, opts IterOpts) (Vector, IterStats, error) {
	if err := a.check("GaussSeidel", b); err != nil {
		return nil, IterStats{}, err
	}
	opts = opts.withDefaults()
	n := a.Off.Rows
	x := NewVector(n)
	var smp residualSampler
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
				return nil, IterStats{}, ErrSingular
			}
			return x, smp.stats(iter+1, maxDelta, true), nil
		}
	}
	return nil, smp.stats(opts.MaxIter, lastDelta, false), &ConvergenceError{Method: MethodGaussSeidel, Iterations: opts.MaxIter, Residual: lastDelta, Tol: opts.Tol}
}
