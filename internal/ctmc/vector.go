package ctmc

import (
	"context"
	"fmt"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// NextVector computes P_i[X φ] for every state: the probability that the
// first jump lands in φ (0 for absorbing states).
func (c *Chain) NextVector(phi []bool) (linalg.Vector, error) {
	n := c.N()
	if len(phi) != n {
		return nil, fmt.Errorf("ctmc: formula mask length %d, want %d", len(phi), n)
	}
	out := linalg.NewVector(n)
	for i := 0; i < n; i++ {
		if c.Exit[i] == 0 {
			continue
		}
		cols, vals := c.Rates.Row(i)
		var p float64
		for k, j := range cols {
			if phi[j] {
				p += vals[k]
			}
		}
		out[i] = p / c.Exit[i]
	}
	return out, nil
}

// UnboundedReachabilityVectorContext computes P_i[F target] for every state
// on a "ctmc.unbounded_reach" span (unknowns, solver method, attempts,
// iterations and residual).
func (c *Chain) UnboundedReachabilityVectorContext(ctx context.Context, target []bool) (linalg.Vector, error) {
	ctx, sp := obs.Start(ctx, "ctmc.unbounded_reach")
	defer sp.End()
	sp.Int("states", int64(c.N()))
	return c.untilTarget(ctx, sp, nil, target, linalg.IterOpts{})
}

// SteadyStateVectorContext computes, for every state i, the long-run
// probability of being in the masked set when starting from i: the BSCC
// decomposition value_i = Σ_B P_i[absorb into B] · π_B(mask), from at
// most one reachability solve (see longRun.fold), each entry in [0, 1].
func (c *Chain) SteadyStateVectorContext(ctx context.Context, mask []bool) (linalg.Vector, error) {
	ctx, sp := obs.Start(ctx, "ctmc.steadystate_vec")
	defer sp.End()
	n := c.N()
	if len(mask) != n {
		return nil, fmt.Errorf("ctmc: mask length %d, want %d", len(mask), n)
	}
	lr, err := c.longRun(ctx, sp)
	if err != nil {
		return nil, err
	}
	v, x, err := lr.fold(ctx, mask)
	if x == nil && err == nil {
		x = linalg.NewVector(n)
		x.Fill(v)
	}
	return x, err
}

// ReachabilityRewardVectorContext computes, for every state, the expected
// reward accumulated until first reaching a target state (+Inf where the
// target is reached with probability < 1). One linear solve covers all
// states.
func (c *Chain) ReachabilityRewardVectorContext(ctx context.Context, reward linalg.Vector, target []bool) (linalg.Vector, error) {
	return c.reachabilityRewardAll(ctx, reward, target)
}
