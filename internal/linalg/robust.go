package linalg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Solver method names, as recorded in attempt records.
const (
	MethodGaussSeidel = "gauss-seidel"
	MethodDense       = "dense"
)

// DefaultDenseLimit bounds the system size eligible for the dense fallback
// (an n×n expansion; 1024² floats ≈ 8 MB).
const DefaultDenseLimit = 1024

// RobustSolve solves A·x = b by Gauss–Seidel under opts and, when that
// fails with a *ConvergenceError and A has at most DefaultDenseLimit rows,
// by dense Gaussian elimination, which does not iterate at all. Any other
// error (singular matrix, dimension mismatch) aborts at once, since no
// other method repairs it. The systems it receives — the pinned balance
// system and I − P_uu — have a positive diagonal and no positive
// off-diagonal entry, so by the Stein–Rosenberg theorem Jacobi would
// converge only where Gauss–Seidel does; the chain has no Jacobi step.
//
// RobustSolve returns the method of the last step that ran (the one that
// produced x when err is nil, "" when none ran) and that step's stats: a
// dense step reports no iterations and the residual ‖b − A·x‖∞ of its
// answer. Every step is emitted as an attempt event (obs.RecordAttempt),
// so run manifests, the flight ring and the slow log show which solvers
// were tried. The fault.PointSolverDiverge injection point, when armed,
// replaces a step's solve with a synthetic convergence failure.
func RobustSolve(ctx context.Context, a *Split, b Vector, opts IterOpts) (Vector, string, IterStats, error) {
	opts = opts.withDefaults()
	ctx, sp := obs.Start(ctx, "linalg.robust_solve")
	defer sp.End()
	steps := []string{MethodGaussSeidel, MethodDense}
	if a.Off.Rows > DefaultDenseLimit {
		steps = steps[:1]
	}
	var (
		method  string
		stats   IterStats
		lastErr error
	)
	for i, step := range steps {
		if err := ctx.Err(); err != nil {
			return nil, method, stats, err
		}
		method, stats = step, IterStats{}
		start := time.Now()
		var (
			x        Vector
			err      error
			injected = fault.Should(fault.PointSolverDiverge)
		)
		switch {
		case injected:
			err = &ConvergenceError{Method: step, Iterations: opts.MaxIter, Residual: math.Inf(1), Tol: opts.Tol}
		case step == MethodGaussSeidel:
			x, stats, err = GaussSeidel(a, b, opts)
		default:
			if x, err = SolveDense(a.ToDense(), b); err == nil {
				stats = IterStats{Residual: a.residual(x, b), Converged: true}
			}
		}
		// Diagnose a failed iterative attempt before anything else reacts to
		// it: a residual plateau (or divergence) in the trace becomes a
		// structured event ahead of the attempt record and the fallback that
		// follows, so a trace reader sees "stagnated at 3e-9 from sweep 41"
		// before "escalated to dense".
		if err != nil && !injected {
			if sg, ok := detectStagnation(stats.Trace); ok {
				obs.Count(ctx, "solver.stagnation", 1)
				obs.LogAttrs(ctx, "solver.stagnation",
					obs.Attr{Key: "method", Kind: obs.KindString, Str: step},
					obs.Attr{Key: "from_iteration", Kind: obs.KindInt, Int: int64(sg.fromIteration)},
					obs.Attr{Key: "to_iteration", Kind: obs.KindInt, Int: int64(sg.toIteration)},
					obs.Attr{Key: "residual", Kind: obs.KindFloat, Flt: sg.toResidual},
					obs.Attr{Key: "improvement", Kind: obs.KindFloat, Flt: sg.improvement},
				)
			}
		}
		rec := obs.Attempt{
			Stage:      "solver",
			Try:        i + 1,
			Method:     step,
			Outcome:    obs.AttemptOK,
			Iterations: stats.Iterations,
			Seconds:    time.Since(start).Seconds(),
			Residual:   stats.Residual,
			Trace:      stats.Trace,
		}
		if err != nil {
			rec.Outcome = obs.AttemptError
			if injected {
				rec.Outcome = obs.AttemptInjected
			}
			rec.Error = err.Error()
		}
		obs.RecordAttempt(ctx, rec)
		if err == nil {
			sp.Str("method", step)
			sp.Int("attempts", int64(i+1))
			sp.Int("iterations", int64(stats.Iterations))
			sp.Float("residual", stats.Residual)
			sp.Int("trace_points", int64(len(stats.Trace)))
			return x, step, stats, nil
		}
		var ce *ConvergenceError
		if !errors.As(err, &ce) {
			return nil, method, stats, err
		}
		lastErr = err
	}
	return nil, method, stats, fmt.Errorf("linalg: fallback chain exhausted after %d attempts: %w", len(steps), lastErr)
}
