package ctmc

import (
	"context"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// BackwardTransient computes u(t) = e^{Qt}·v for a value vector v: component
// i is the expected value of v at the state occupied at time t, given start
// in state i. One backward pass yields the result for every initial state
// simultaneously (the dual of Transient, using matrix–vector instead of
// vector–matrix products), which is what per-state property evaluation and
// interval-until checking need.
func (c *Chain) BackwardTransient(values linalg.Vector, t, accuracy float64) (linalg.Vector, error) {
	return c.BackwardTransientContext(context.Background(), values, t, accuracy)
}

// BackwardTransientContext is BackwardTransient with span propagation
// ("ctmc.backward_transient": q, Fox–Glynn window, matvec count).
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

// TimeBoundedReachabilityVector computes, for every state simultaneously,
// P_i[reach target within t]: BoundedUntilVector with φ1 = true and
// φ2 = target.
func (c *Chain) TimeBoundedReachabilityVector(target []bool, t, accuracy float64) (linalg.Vector, error) {
	return c.TimeBoundedReachabilityVectorContext(context.Background(), target, t, accuracy)
}

// TimeBoundedReachabilityVectorContext is TimeBoundedReachabilityVector with
// span propagation.
func (c *Chain) TimeBoundedReachabilityVectorContext(ctx context.Context, target []bool, t, accuracy float64) (linalg.Vector, error) {
	if len(target) != c.N() {
		return nil, fmt.Errorf("ctmc: target mask length %d, want %d", len(target), c.N())
	}
	return c.boundedUntilVector(ctx, target, target, t, accuracy)
}

// BoundedUntilVector computes P_i[φ1 U≤t φ2] for every state i.
func (c *Chain) BoundedUntilVector(phi1, phi2 []bool, t, accuracy float64) (linalg.Vector, error) {
	return c.BoundedUntilVectorContext(context.Background(), phi1, phi2, t, accuracy)
}

// BoundedUntilVectorContext is BoundedUntilVector with span propagation.
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

// IntervalUntil computes P[φ1 U[t1,t2] φ2] from init for 0 ≤ t1 ≤ t2: the
// probability that φ2 is witnessed at some time in [t1, t2] with φ1 holding
// continuously before the witness. The standard two-phase construction
// (Baier, Haverkort, Hermanns, Katoen) applies:
//
//  1. y = per-state probabilities of φ1 U≤(t2−t1) φ2;
//  2. result = E_init[ 1(φ1 holds on [0,t1]) · y(X_{t1}) ], computed as one
//     backward pass over the chain with ¬φ1 states absorbing and y masked
//     to φ1 states.
func (c *Chain) IntervalUntil(init linalg.Vector, phi1, phi2 []bool, t1, t2, accuracy float64) (float64, error) {
	return c.IntervalUntilContext(context.Background(), init, phi1, phi2, t1, t2, accuracy)
}

// IntervalUntilContext is IntervalUntil with span propagation (both backward
// passes appear as child spans).
func (c *Chain) IntervalUntilContext(ctx context.Context, init linalg.Vector, phi1, phi2 []bool, t1, t2, accuracy float64) (float64, error) {
	if err := c.checkInit(init); err != nil {
		return 0, err
	}
	if err := c.checkInterval(phi1, phi2, t1, t2); err != nil {
		return 0, err
	}
	if t1 == 0 {
		return c.BoundedUntilContext(ctx, init, phi1, phi2, t2, accuracy)
	}
	u, err := c.intervalUntil(ctx, phi1, phi2, t1, t2, accuracy)
	if err != nil {
		return 0, err
	}
	return clampUnit(init.Dot(u)), nil
}

// IntervalUntilVector computes P_i[φ1 U[t1,t2] φ2] for every state i (the
// per-state form of IntervalUntil; see there for the construction).
func (c *Chain) IntervalUntilVector(phi1, phi2 []bool, t1, t2, accuracy float64) (linalg.Vector, error) {
	return c.IntervalUntilVectorContext(context.Background(), phi1, phi2, t1, t2, accuracy)
}

// IntervalUntilVectorContext is IntervalUntilVector with span propagation.
func (c *Chain) IntervalUntilVectorContext(ctx context.Context, phi1, phi2 []bool, t1, t2, accuracy float64) (linalg.Vector, error) {
	if err := c.checkInterval(phi1, phi2, t1, t2); err != nil {
		return nil, err
	}
	if t1 == 0 {
		return c.BoundedUntilVectorContext(ctx, phi1, phi2, t2, accuracy)
	}
	u, err := c.intervalUntil(ctx, phi1, phi2, t1, t2, accuracy)
	if err != nil {
		return nil, err
	}
	for i := range u {
		u[i] = clampUnit(u[i])
	}
	return u, nil
}

func (c *Chain) checkInterval(phi1, phi2 []bool, t1, t2 float64) error {
	if n := c.N(); len(phi1) != n || len(phi2) != n {
		return fmt.Errorf("ctmc: formula mask length mismatch (want %d)", n)
	}
	if t1 < 0 || t2 < t1 {
		return fmt.Errorf("%w: interval [%v, %v]", ErrBadTime, t1, t2)
	}
	return nil
}

// intervalUntil is the t1 > 0 half of the interval-until construction: the
// unclamped per-state values u = e^{Q'·t1}·(y masked to φ1), with Q' the
// generator with ¬φ1 states absorbing.
func (c *Chain) intervalUntil(ctx context.Context, phi1, phi2 []bool, t1, t2, accuracy float64) (linalg.Vector, error) {
	n := c.N()
	y, err := c.BoundedUntilVectorContext(ctx, phi1, phi2, t2-t1, accuracy)
	if err != nil {
		return nil, err
	}
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
	return mod.BackwardTransientContext(ctx, masked, t1, accuracy)
}

// CumulativeRewardVector computes, for every state simultaneously, the
// expected reward accumulated over [0, t] when starting there. Backward
// counterpart of CumulativeReward:
// u = Σ_k (1/q)(1 − Σ_{i≤k} γ_i) · Pᵏ·r.
func (c *Chain) CumulativeRewardVector(reward linalg.Vector, t, accuracy float64) (linalg.Vector, error) {
	return c.CumulativeRewardVectorContext(context.Background(), reward, t, accuracy)
}

// CumulativeRewardVectorContext is CumulativeRewardVector with span
// propagation ("ctmc.cumulative_reward_vec").
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
