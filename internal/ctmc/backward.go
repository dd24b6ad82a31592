package ctmc

import (
	"context"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// BackwardTransientContext computes u(t) = e^{Qt}·v for a value vector v:
// component i is the expected value of v at the state occupied at time t,
// given start in state i. One backward pass yields the result for every
// initial state simultaneously (the dual of TransientContext, using
// matrix–vector instead of vector–matrix products), which is what per-state
// property evaluation and interval-until checking need. The
// "ctmc.backward_transient" span records q, the Fox–Glynn window and the
// matvec count.
func (c *Chain) BackwardTransientContext(ctx context.Context, values linalg.Vector, t, accuracy float64) (linalg.Vector, error) {
	_, sp := obs.Start(ctx, "ctmc.backward_transient")
	defer sp.End()
	if err := c.checkValues("value", values); err != nil {
		return nil, err
	}
	if err := checkTime(t); err != nil {
		return nil, err
	}
	if t == 0 {
		return values.Clone(), nil
	}
	out := linalg.NewVector(c.N())
	err := c.uniformise(ctx, sp, values, t, accuracy, true, func(w, _, _ float64, cur linalg.Vector) {
		if w > 0 {
			out.AddScaled(w, cur)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TimeBoundedReachabilityVectorContext computes, for every state
// simultaneously, P_i[reach target within t]: BoundedUntilVectorContext with
// φ1 = true and φ2 = target.
func (c *Chain) TimeBoundedReachabilityVectorContext(ctx context.Context, target []bool, t, accuracy float64) (linalg.Vector, error) {
	if len(target) != c.N() {
		return nil, fmt.Errorf("ctmc: target mask length %d, want %d", len(target), c.N())
	}
	return c.boundedUntilVector(ctx, target, target, t, accuracy)
}

// BoundedUntilVectorContext computes P_i[φ1 U≤t φ2] for every state i: the
// probability of reaching a φ2 state within t along a path that stays in φ1
// states until then. φ2 states and ¬φ1∧¬φ2 states are made absorbing, and
// one backward pass runs from the φ2 indicator.
func (c *Chain) BoundedUntilVectorContext(ctx context.Context, phi1, phi2 []bool, t, accuracy float64) (linalg.Vector, error) {
	absorb, err := untilAbsorbing(c.N(), phi1, phi2)
	if err != nil {
		return nil, err
	}
	return c.boundedUntilVector(ctx, absorb, phi2, t, accuracy)
}

// boundedUntilVector makes the absorb states absorbing and runs one
// backward pass from the goal indicator.
func (c *Chain) boundedUntilVector(ctx context.Context, absorb, goal []bool, t, accuracy float64) (linalg.Vector, error) {
	mod, err := c.Absorbing(absorb)
	if err != nil {
		return nil, err
	}
	v := linalg.NewVector(c.N())
	for i, in := range goal {
		if in {
			v[i] = 1
		}
	}
	out, err := mod.BackwardTransientContext(ctx, v, t, accuracy)
	if err != nil {
		return nil, err
	}
	for i := range out {
		if goal[i] {
			out[i] = 1 // absorbing goal: exact, independent of truncation
		} else {
			out[i] = clampUnit(out[i])
		}
	}
	return out, nil
}

// IntervalUntilVectorContext computes P_i[φ1 U[t1,t2] φ2] for every state i
// and 0 ≤ t1 ≤ t2: the probability that φ2 is witnessed at some time in
// [t1, t2] with φ1 holding continuously before the witness. The standard
// two-phase construction (Baier, Haverkort, Hermanns, Katoen) applies:
//
//  1. y = per-state probabilities of φ1 U≤(t2−t1) φ2;
//  2. result = E_i[ 1(φ1 holds on [0,t1]) · y(X_{t1}) ], computed as one
//     backward pass over the chain with ¬φ1 states absorbing and y masked
//     to φ1 states.
//
// Both backward passes appear as child spans.
func (c *Chain) IntervalUntilVectorContext(ctx context.Context, phi1, phi2 []bool, t1, t2, accuracy float64) (linalg.Vector, error) {
	if n := c.N(); len(phi1) != n || len(phi2) != n {
		return nil, fmt.Errorf("ctmc: formula mask length mismatch (want %d)", n)
	}
	if t1 < 0 || t2 < t1 {
		return nil, fmt.Errorf("%w: interval [%v, %v]", ErrBadTime, t1, t2)
	}
	if t1 == 0 {
		return c.BoundedUntilVectorContext(ctx, phi1, phi2, t2, accuracy)
	}
	y, err := c.BoundedUntilVectorContext(ctx, phi1, phi2, t2-t1, accuracy)
	if err != nil {
		return nil, err
	}
	n := c.N()
	notPhi1 := make([]bool, n)
	masked := linalg.NewVector(n)
	for i := 0; i < n; i++ {
		notPhi1[i] = !phi1[i]
		if phi1[i] {
			masked[i] = y[i]
		}
	}
	mod, err := c.Absorbing(notPhi1)
	if err != nil {
		return nil, err
	}
	u, err := mod.BackwardTransientContext(ctx, masked, t1, accuracy)
	if err != nil {
		return nil, err
	}
	for i := range u {
		u[i] = clampUnit(u[i])
	}
	return u, nil
}

// CumulativeRewardVectorContext computes, for every state simultaneously,
// the expected reward accumulated over [0, t] when starting there. Backward
// counterpart of CumulativeRewardContext:
// u = Σ_k (1/q)(1 − Σ_{i≤k} γ_i) · Pᵏ·r, on a "ctmc.cumulative_reward_vec"
// span.
func (c *Chain) CumulativeRewardVectorContext(ctx context.Context, reward linalg.Vector, t, accuracy float64) (linalg.Vector, error) {
	_, sp := obs.Start(ctx, "ctmc.cumulative_reward_vec")
	defer sp.End()
	n := c.N()
	if err := c.checkValues("reward", reward); err != nil {
		return nil, err
	}
	if err := checkTime(t); err != nil {
		return nil, err
	}
	out := linalg.NewVector(n)
	if t == 0 {
		return out, nil
	}
	err := c.uniformise(ctx, sp, reward, t, accuracy, true, func(_, tail, q float64, cur linalg.Vector) {
		if w := tail / q; w > 0 {
			out.AddScaled(w, cur)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkValues rejects a backward pass's input vector of the wrong length
// or with an entry beyond ±MaxFloat64/2 (NaN and ±Inf included). Every
// iterate Pᵏ·v then stays finite: P's rows are non-negative and sum to at
// most 1 + 1e-9, so |Pᵏ·v|∞ ≤ (1+1e-9)ᵏ·|v|∞, which stays below
// MaxFloat64 for k < 6.9·10⁸ products. That keeps the padding of the
// sliced operator exact (see uniformised).
func (c *Chain) checkValues(what string, v linalg.Vector) error {
	if len(v) != c.N() {
		return fmt.Errorf("ctmc: %s vector length %d, want %d", what, len(v), c.N())
	}
	for i, x := range v {
		if !(math.Abs(x) <= math.MaxFloat64/2) {
			return fmt.Errorf("ctmc: %s vector entry %d is %v, want a finite value within ±MaxFloat64/2", what, i, x)
		}
	}
	return nil
}

func clampUnit(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
