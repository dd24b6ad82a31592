package linalg

import "repro/internal/obs"

// Stagnation detection turns a sampled convergence curve into an early,
// structured diagnosis: "the residual stopped improving at sweep N" is
// actionable (escalate now, report the plateau level), whereas the
// eventual ConvergenceError only says the budget ran out. RobustSolve runs
// the detector on every failed iterative attempt and emits the result as a
// structured event before the fallback fires.

// stagnation describes a residual plateau (or divergence) over the tail of
// a convergence trace.
type stagnation struct {
	// fromIteration..toIteration is the sampled window that shows no
	// meaningful progress.
	fromIteration, toIteration int
	// toResidual is the residual at the window's end.
	toResidual float64
	// improvement is the residual at the window's start over toResidual: ~1 means a
	// plateau, < 1 means the solve is diverging, NaN means the residual
	// degenerated (overflow).
	improvement float64
}

// The stagnation window is in sampled points (the sampler's ~1.25× stride
// makes 6 points span roughly a 3× range of iterations), and a healthy
// solve should improve its residual by at least the minimum factor across
// that span.
const (
	StagnationWindow         = 6
	StagnationMinImprovement = 2.0
)

// detectStagnation reports whether the tail of trace shows a residual
// plateau: across the last StagnationWindow sampled points the residual
// improved by less than StagnationMinImprovement. Divergence (growing,
// infinite or NaN residuals) counts as stagnation — in both cases the
// iterations are no longer buying accuracy.
func detectStagnation(trace []obs.ResidualPoint) (stagnation, bool) {
	if len(trace) < StagnationWindow {
		return stagnation{}, false
	}
	first := trace[len(trace)-StagnationWindow]
	last := trace[len(trace)-1]
	sg := stagnation{
		fromIteration: first.Iteration,
		toIteration:   last.Iteration,
		toResidual:    last.Residual,
		improvement:   first.Residual / last.Residual,
	}
	// A NaN improvement (0/0 or Inf/Inf residuals) fails this comparison and
	// is therefore reported as stagnation, as is any ratio below the bar.
	if sg.improvement >= StagnationMinImprovement {
		return stagnation{}, false
	}
	return sg, true
}
