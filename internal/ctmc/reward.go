package ctmc

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// ReachabilityRewardContext computes the expected reward accumulated until
// first reaching a target state, E[∫₀^{T_target} r(X_s) ds], following PRISM's
// semantics: states from which the target is reached with probability < 1
// (and initial distributions touching them) yield +Inf.
//
// For non-target states the expectation satisfies
//
//	x_i = r_i/E_i + Σ_j R(i,j)/E_i · x_j
//
// (the mean sojourn time 1/E_i weights the state reward), which is solved
// as a sparse linear system over the states that reach the target almost
// surely, on a "ctmc.reachability_reward" span.
func (c *Chain) ReachabilityRewardContext(ctx context.Context, init linalg.Vector, reward linalg.Vector, target []bool) (float64, error) {
	if err := c.checkInit(init); err != nil {
		return 0, err
	}
	x, err := c.reachabilityRewardAll(ctx, reward, target)
	if err != nil {
		return 0, err
	}
	var total float64
	for i, p := range init {
		if p == 0 {
			continue
		}
		if math.IsInf(x[i], 1) {
			return math.Inf(1), nil
		}
		total += p * x[i]
	}
	return total, nil
}

// reachabilityRewardAll solves the expected-reward-to-target system for
// every state at once.
func (c *Chain) reachabilityRewardAll(ctx context.Context, reward linalg.Vector, target []bool) (linalg.Vector, error) {
	_, sp := obs.Start(ctx, "ctmc.reachability_reward")
	defer sp.End()
	n := c.N()
	if len(reward) != n {
		return nil, fmt.Errorf("ctmc: reward vector length %d, want %d", len(reward), n)
	}
	if len(target) != n {
		return nil, fmt.Errorf("ctmc: target mask length %d, want %d", len(target), n)
	}
	sp.Int("states", int64(n))
	// Classify qualitatively: a state reaches the target with probability
	// one iff no path avoiding the target leads to a state that cannot
	// reach it. However rare the escape, such a path makes the expectation
	// infinite.
	var targets, never []int
	for i, t := range target {
		if t {
			targets = append(targets, i)
		}
	}
	for i, can := range graph.CanReach(c.Rates, targets, nil) {
		if !can {
			never = append(never, i)
		}
	}
	infinite := graph.CanReach(c.Rates, never, target)
	idx := make([]int, n)
	var unknowns []int
	x := linalg.NewVector(n)
	for i := 0; i < n; i++ {
		idx[i] = -1
		switch {
		case infinite[i]:
			x[i] = math.Inf(1)
		case !target[i]:
			idx[i] = len(unknowns)
			unknowns = append(unknowns, i)
		}
	}
	sp.Int("unknowns", int64(len(unknowns)))
	if len(unknowns) == 0 {
		return x, nil
	}
	a, b := c.rewardSystem(reward, target, unknowns, idx)
	// Slow-mixing chains (rare escapes out of a strongly recurrent secure
	// region) need generous sweep budgets; the relative tolerance keeps the
	// criterion meaningful for large expected rewards.
	var rstats linalg.RobustStats
	y, err := linalg.RobustSolve(ctx, a, b, linalg.RobustOpts{
		Opts:  linalg.IterOpts{Tol: 1e-10, MaxIter: 2_000_000},
		Stats: &rstats,
	})
	sp.Str("method", rstats.Method)
	if n := len(rstats.Attempts); n > 0 {
		last := rstats.Attempts[n-1]
		sp.Int("iterations", int64(last.Iterations))
		sp.Float("residual", last.Residual)
		sp.Int("trace_points", int64(len(last.Trace)))
	}
	if err != nil {
		return nil, fmt.Errorf("ctmc: reachability-reward solve: %w", err)
	}
	for ui, i := range unknowns {
		x[i] = y[ui]
	}
	return x, nil
}

// rewardSystem builds x_u − Σ_j P(u,j)·x_j = r_u/E_u in split form over
// the finite non-target states u (idx maps a state to its unknown index),
// with P(i,j) = R(i,j)/E_i and x_j = 0 on target states. Every state a
// finite state moves to is finite or a target. Unknowns keep the state
// order, so each row comes out sorted, and a stored self-rate sums into
// the diagonal as 1 − P(u,u).
func (c *Chain) rewardSystem(reward linalg.Vector, target []bool, unknowns, idx []int) (*linalg.Split, linalg.Vector) {
	a := linalg.NewSplitBuilder(len(unknowns), 0)
	b := linalg.NewVector(len(unknowns))
	for ui, i := range unknowns {
		e := c.Exit[i]
		a.Diagonal(1)
		b[ui] = reward[i] / e
		cols, vals := c.Rates.Row(i)
		for k, j := range cols {
			if p := vals[k] / e; !target[j] && p != 0 {
				a.Add(idx[j], -p)
			}
		}
		a.EndRow()
	}
	return a.Split(), b
}

// ExpectedTimeFractionContext returns the expected fraction of the
// interval [0, t] spent in the masked states — the paper's "percentage of
// time the message is exploitable within 1 year" metric. It is the one-mask
// case of ExpectedTimeFractionsContext (the cumulative-reward solve appears
// as a child span).
func (c *Chain) ExpectedTimeFractionContext(ctx context.Context, init linalg.Vector, mask []bool, t, accuracy float64) (float64, error) {
	fracs, err := c.ExpectedTimeFractionsContext(ctx, init, [][]bool{mask}, t, accuracy)
	if err != nil {
		return 0, err
	}
	return fracs[0], nil
}

// ExpectedTimeFractionsContext returns the expected time fraction of every mask
// from one fresh pass over the masks' indicator rewards; each fraction is
// bit-identical to a one-mask call.
func (c *Chain) ExpectedTimeFractionsContext(ctx context.Context, init linalg.Vector, masks [][]bool, t, accuracy float64) ([]float64, error) {
	return c.fractions(ctx, init, masks, t, accuracy, func(ctx context.Context, right int) ([][]float64, int, int, error) {
		return c.freshTerms(ctx, init, indicators(masks), right)
	})
}
