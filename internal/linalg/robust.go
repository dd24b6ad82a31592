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
	MethodJacobi      = "jacobi"
	MethodDense       = "dense"
)

// DefaultDenseLimit bounds the system size eligible for the dense fallback
// (an n×n expansion; 1024² floats ≈ 8 MB).
const DefaultDenseLimit = 1024

// fallbackChain is RobustSolve's escalation: the fast sweep first, then
// Jacobi with a doubled iteration budget and a relaxed tolerance (Jacobi
// converges on some systems where the Gauss–Seidel sweep order cycles), and
// finally dense Gaussian elimination, which does not iterate at all but only
// fits systems up to DefaultDenseLimit.
var fallbackChain = []struct {
	method     string
	iterFactor int     // multiplies the base MaxIter
	tolFactor  float64 // multiplies the base Tol
	solve      func(*Split, Vector, IterOpts) (Vector, error)
}{
	{MethodGaussSeidel, 1, 1, GaussSeidel},
	{MethodJacobi, 2, 10, Jacobi},
	{MethodDense, 1, 1, func(a *Split, b Vector, _ IterOpts) (Vector, error) { return SolveDense(a.ToDense(), b) }},
}

// RobustOpts configures RobustSolve.
type RobustOpts struct {
	// Opts is the base iterative budget; chain steps relax it.
	Opts IterOpts
	// Stats, when non-nil, receives the attempt history.
	Stats *RobustStats
}

// SolveAttempt reports one executed step of a fallback chain.
type SolveAttempt struct {
	// Method is the solver that ran.
	Method string
	// Iterations and Residual report what the iterative solver did (zero
	// for the dense method).
	Iterations int
	Residual   float64
	// Trace is the attempt's sampled convergence curve (empty for the dense
	// method and for injected failures, which never run a solver).
	Trace []obs.ResidualPoint
	// Stagnation is the detected residual plateau, when the attempt failed
	// and its trace shows one.
	Stagnation *Stagnation
	// Err is the step's failure, nil on success.
	Err error
	// Injected marks a failure synthesised by fault injection
	// (fault.PointSolverDiverge) rather than a real solve.
	Injected bool
}

// RobustStats is RobustSolve's attempt history.
type RobustStats struct {
	// Attempts lists the executed steps in order.
	Attempts []SolveAttempt
	// Method is the step that produced the returned solution (empty on
	// failure).
	Method string
}

// RobustSolve solves A·x = b through a fixed fallback chain: each step
// runs its method under (possibly relaxed) budgets, and a step failing with
// a *ConvergenceError escalates to the next; any other error (singular
// matrix, dimension mismatch) aborts immediately since no amount of
// escalation repairs it. The dense step is skipped for systems larger than
// DefaultDenseLimit. Every executed step is recorded in opts.Stats and
// emitted as an attempt event (obs.RecordAttempt), so run manifests and the
// flight ring show which solvers were tried. The fault.PointSolverDiverge injection point, when armed,
// replaces a step's real solve with a synthetic convergence failure.
func RobustSolve(ctx context.Context, a *Split, b Vector, opts RobustOpts) (Vector, error) {
	base := opts.Opts.withDefaults()
	ctx, sp := obs.Start(ctx, "linalg.robust_solve")
	defer sp.End()
	var lastErr error
	try := 0
	for _, step := range fallbackChain {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if step.method == MethodDense && a.Off.Rows > DefaultDenseLimit {
			continue
		}
		try++
		stepOpts := base
		stepOpts.MaxIter = base.MaxIter * step.iterFactor
		stepOpts.Tol = base.Tol * step.tolFactor
		var stats IterStats
		stepOpts.Stats = &stats
		// Convergence curves are always collected here: the chain only runs
		// once per analysis and the log-spaced trace is O(log MaxIter) points,
		// so the post-mortem value outweighs the cost.
		stepOpts.CollectTrace = true
		start := time.Now()
		var (
			x        Vector
			err      error
			injected bool
		)
		if fault.Should(fault.PointSolverDiverge) {
			injected = true
			err = &ConvergenceError{Method: step.method, Iterations: stepOpts.MaxIter, Residual: math.Inf(1), Tol: stepOpts.Tol}
		} else {
			x, err = step.solve(a, b, stepOpts)
		}
		attempt := SolveAttempt{
			Method:     step.method,
			Iterations: stats.Iterations,
			Residual:   stats.Residual,
			Trace:      stats.Trace,
			Err:        err,
			Injected:   injected,
		}
		// Diagnose a failed iterative attempt before anything else reacts to
		// it: a residual plateau (or divergence) in the trace becomes a
		// structured event ahead of the attempt record and the fallback that
		// follows, so a trace reader sees "stagnated at 3e-9 from sweep 41"
		// before "escalated to jacobi".
		if err != nil && !injected {
			if sg, ok := DetectStagnation(stats.Trace, 0, 0); ok {
				attempt.Stagnation = &sg
				obs.Count(ctx, "solver.stagnation", 1)
				obs.LogAttrs(ctx, "solver.stagnation",
					obs.Attr{Key: "method", Kind: obs.KindString, Str: step.method},
					obs.Attr{Key: "from_iteration", Kind: obs.KindInt, Int: int64(sg.FromIteration)},
					obs.Attr{Key: "to_iteration", Kind: obs.KindInt, Int: int64(sg.ToIteration)},
					obs.Attr{Key: "residual", Kind: obs.KindFloat, Flt: sg.ToResidual},
					obs.Attr{Key: "improvement", Kind: obs.KindFloat, Flt: sg.Improvement},
				)
			}
		}
		if opts.Stats != nil {
			opts.Stats.Attempts = append(opts.Stats.Attempts, attempt)
		}
		rec := obs.Attempt{
			Stage:      "solver",
			Try:        try,
			Method:     step.method,
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
			if opts.Stats != nil {
				opts.Stats.Method = step.method
			}
			sp.Str("method", step.method)
			sp.Int("attempts", int64(try))
			sp.Int("iterations", int64(stats.Iterations))
			sp.Float("residual", stats.Residual)
			sp.Int("trace_points", int64(len(stats.Trace)))
			return x, nil
		}
		var ce *ConvergenceError
		if !errors.As(err, &ce) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("linalg: fallback chain exhausted after %d attempts: %w", try, lastErr)
}
