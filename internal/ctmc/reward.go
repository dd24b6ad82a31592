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
	ctx, sp := obs.Start(ctx, "ctmc.reachability_reward")
	defer sp.End()
	if len(reward) != c.N() {
		return nil, fmt.Errorf("ctmc: reward vector length %d, want %d", len(reward), c.N())
	}
	sp.Int("states", int64(c.N()))
	// Slow-mixing chains (rare escapes out of a strongly recurrent secure
	// region) need generous sweep budgets; the relative tolerance keeps the
	// criterion meaningful for large expected rewards.
	return c.untilTarget(ctx, sp, reward, target, linalg.IterOpts{Tol: 1e-10, MaxIter: 2_000_000})
}

// untilTarget is the one solve behind unbounded reachability and the
// reachability reward. With a nil reward it returns P_i[F target] for
// every state i: 1 on the target and on the states that reach it almost
// surely, 0 on those that cannot reach it. With a reward it returns the
// expected reward accumulated until the target: 0 on the target and +Inf
// where the target is reached with probability < 1. The remaining states
// are solved for on the embedded chain (see solveUnknowns).
func (c *Chain) untilTarget(ctx context.Context, sp *obs.Span, reward linalg.Vector, target []bool, opts linalg.IterOpts) (linalg.Vector, error) {
	n := c.N()
	if len(target) != n {
		return nil, fmt.Errorf("ctmc: target mask length %d, want %d", len(target), n)
	}
	// Classify qualitatively: a state reaches the target with probability
	// one iff no path avoiding the target leads to a state that cannot
	// reach it. However rare the escape, such a path puts the probability
	// below 1 and makes the expected reward infinite, which no iterative
	// solve could tell apart.
	var targets, never []int
	for i, t := range target {
		if t {
			targets = append(targets, i)
		}
	}
	canReach := graph.CanReach(c.Rates, targets, nil)
	for i, can := range canReach {
		if !can {
			never = append(never, i)
		}
	}
	below1 := graph.CanReach(c.Rates, never, target)
	x := linalg.NewVector(n)
	idx := make([]int, n) // state -> unknown index, -1 if known
	var unknowns []int
	for i := range n {
		idx[i] = -1
		switch {
		case reward == nil && !below1[i]: // the target, or reached almost surely
			x[i] = 1
		case reward == nil && !canReach[i]: // probability 0
		case reward != nil && below1[i]:
			x[i] = math.Inf(1)
		case !target[i]:
			idx[i] = len(unknowns)
			unknowns = append(unknowns, i)
		}
	}
	return c.solveUnknowns(ctx, sp, reward, x, unknowns, idx, opts)
}

// solveUnknowns fills in x, whose known entries are set, on the unknown
// states (idx maps a state to its unknown index, -1 if known): it solves
// splitSystem's system through robustSolve under opts and clamps a
// probability (nil reward) to [0, 1]. The unknowns and the solve go on sp.
func (c *Chain) solveUnknowns(ctx context.Context, sp *obs.Span, reward, x linalg.Vector, unknowns, idx []int, opts linalg.IterOpts) (linalg.Vector, error) {
	sp.Int("unknowns", int64(len(unknowns)))
	a, b, err := c.splitSystem(reward, x, unknowns, idx)
	if err != nil {
		return nil, err
	}
	if len(unknowns) == 0 {
		return x, nil
	}
	y, err := robustSolve(ctx, sp, a, b, opts)
	if err != nil {
		return nil, fmt.Errorf("ctmc: reachability solve (%d unknowns): %w", len(unknowns), err)
	}
	for ui, i := range unknowns {
		if reward == nil {
			y[ui] = clampUnit(y[ui])
		}
		x[i] = y[ui]
	}
	return x, nil
}

// robustSolve solves A·x = b through linalg.RobustSolve and puts the
// outcome on sp: the method that solved it ("" on failure), the attempts
// made and the last attempt's iterations, residual and trace length.
func robustSolve(ctx context.Context, sp *obs.Span, a *linalg.Split, b linalg.Vector, opts linalg.IterOpts) (linalg.Vector, error) {
	y, method, st, err := linalg.RobustSolve(ctx, a, b, opts)
	attempts := 0
	switch method {
	case linalg.MethodGaussSeidel:
		attempts = 1
	case linalg.MethodDense: // only after Gauss–Seidel failed
		attempts = 2
	}
	if err != nil {
		method = ""
	}
	sp.Str("method", method)
	sp.Int("attempts", int64(attempts))
	if attempts > 0 {
		sp.Int("iterations", int64(st.Iterations))
		sp.Float("residual", st.Residual)
		sp.Int("trace_points", int64(len(st.Trace)))
	}
	return y, err
}

// splitSystem builds, in split form over the unknown states u (idx maps a
// state to its unknown index, -1 if known),
//
//	x_u − Σ_{j unknown} P(u,j)·x_j = r_u/E_u + Σ_{j known} P(u,j)·x_j
//
// on the embedded chain P(i,j) = R(i,j)/E_i, with r = 0 when reward is
// nil; a known x_j of 0 adds nothing. Unknowns keep the state order, so
// each row comes out sorted, and a stored self-rate sums into the diagonal
// as 1 − P(u,u). The walk covers every row of P, an absorbing state's row
// being its self-loop, and checks that P is stochastic (see
// stochasticRows), so a chain whose Exit disagrees with its rates fails.
func (c *Chain) splitSystem(reward, x linalg.Vector, unknowns, idx []int) (*linalg.Split, linalg.Vector, error) {
	a := linalg.NewSplitBuilder(len(unknowns), 0)
	b := linalg.NewVector(len(unknowns))
	rows := newStochasticRows()
	for i := range c.N() {
		e, ui := c.Exit[i], idx[i]
		if e == 0 {
			rows.entry(1) // any rate out of an absorbing state breaks the sum
			e = 1
		}
		if ui >= 0 {
			a.Diagonal(1)
			if reward != nil {
				b[ui] = reward[i] / e
			}
		}
		cols, vals := c.Rates.Row(i)
		for k, j := range cols {
			p := vals[k] / e
			rows.entry(p)
			switch uj := idx[j]; {
			case ui < 0 || p == 0:
			case uj >= 0:
				a.Add(uj, -p)
			case x[j] != 0:
				b[ui] += p * x[j]
			}
		}
		if ui >= 0 {
			a.EndRow()
		}
		rows.endRow(i)
	}
	if err := rows.err(); err != nil {
		return nil, nil, fmt.Errorf("ctmc: embedded chain invalid: %w", err)
	}
	return a.Split(), b, nil
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
