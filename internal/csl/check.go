package csl

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/modular"
	"repro/internal/obs"
)

// ErrCheck wraps property-checking failures.
var ErrCheck = errors.New("csl: check error")

// Checker evaluates properties over an explored model.
type Checker struct {
	Ex *modular.Explored
	// Accuracy is the uniformisation truncation accuracy (0 selects the
	// engine default).
	Accuracy float64
}

// NewChecker returns a checker over an explored model.
func NewChecker(ex *modular.Explored) *Checker {
	return &Checker{Ex: ex}
}

// CheckContext evaluates the property from the model's initial state.
// Internally every query is evaluated for all states at once (backward
// algorithms), so nested probabilistic operators inside state formulas come
// for free. Every property evaluation opens a "csl.check" span (attributed
// with the property source text), and the numerical sub-analyses —
// transient passes, steady-state solves, reachability rewards — nest
// beneath it in the trace.
func (c *Checker) CheckContext(ctx context.Context, p *Property) (Result, error) {
	ctx, sp := obs.Start(ctx, "csl.check")
	defer sp.End()
	if sp != nil && p.Source != "" {
		sp.Str("property", p.Source)
	}
	vec, err := c.vector(ctx, p)
	if err != nil {
		return Result{}, err
	}
	init := c.Ex.InitDistribution()
	var value float64
	for i, w := range init {
		if w == 0 {
			continue
		}
		if math.IsInf(vec[i], 1) {
			value = math.Inf(1)
			break
		}
		value += w * vec[i]
	}
	res := Result{Value: value}
	if p.Op != CmpNone {
		res.Bounded = true
		res.Satisfied = compare(p.Op, value, p.Bound)
	}
	return res, nil
}

func compare(op CmpOp, value, bound float64) bool {
	switch op {
	case CmpLt:
		return value < bound
	case CmpLe:
		return value <= bound
	case CmpGt:
		return value > bound
	case CmpGe:
		return value >= bound
	default:
		return false
	}
}

// vector computes the quantitative per-state answer of a query.
func (c *Checker) vector(ctx context.Context, p *Property) (linalg.Vector, error) {
	switch p.Kind {
	case KindProb:
		return c.pathVector(ctx, p)
	case KindSteady:
		phi, err := c.mask(ctx, p.State)
		if err != nil {
			return nil, err
		}
		return c.Ex.Chain.SteadyStateVectorContext(ctx, phi)
	case KindReward:
		return c.rewardVectorQuery(ctx, p)
	default:
		return nil, fmt.Errorf("%w: unknown property kind %d", ErrCheck, p.Kind)
	}
}

// mask evaluates a state formula in every state, preparing nested
// probabilistic operators first.
func (c *Checker) mask(ctx context.Context, e modular.Expr) ([]bool, error) {
	if err := c.prepare(ctx, e); err != nil {
		return nil, err
	}
	m, err := c.Ex.ExprMask(e)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheck, err)
	}
	return m, nil
}

// prepare recursively evaluates every nested P/S/R node inside a state
// formula, storing per-state results for Eval-time lookup.
func (c *Checker) prepare(ctx context.Context, e modular.Expr) error {
	return walkNested(e, func(n *nestedExpr) error {
		if n.prepared() {
			return nil
		}
		vec, err := c.vector(ctx, n.Prop) // recurses through nested levels
		if err != nil {
			return err
		}
		n.fill(c.Ex, vec)
		return nil
	})
}

func walkNested(e modular.Expr, fn func(*nestedExpr) error) error {
	switch x := e.(type) {
	case *nestedExpr:
		// Prepare inner levels first so that fn can evaluate x's formulas.
		for _, sub := range x.Prop.stateExprs() {
			if sub == nil {
				continue
			}
			if err := walkNested(sub, fn); err != nil {
				return err
			}
		}
		return fn(x)
	case modular.Binary:
		if err := walkNested(x.L, fn); err != nil {
			return err
		}
		return walkNested(x.R, fn)
	case modular.Unary:
		return walkNested(x.X, fn)
	case modular.ITE:
		if err := walkNested(x.Cond, fn); err != nil {
			return err
		}
		if err := walkNested(x.Then, fn); err != nil {
			return err
		}
		return walkNested(x.Else, fn)
	case modular.Call:
		for _, a := range x.Args {
			if err := walkNested(a, fn); err != nil {
				return err
			}
		}
		return nil
	default:
		return nil
	}
}

// stateExprs lists the state formulas embedded in a property.
func (p *Property) stateExprs() []modular.Expr {
	return []modular.Expr{p.Left, p.Right, p.State, p.RTarget}
}

func (c *Checker) pathVector(ctx context.Context, p *Property) (linalg.Vector, error) {
	chain := c.Ex.Chain
	switch p.Path {
	case PathNext:
		phi, err := c.mask(ctx, p.Right)
		if err != nil {
			return nil, err
		}
		return chain.NextVector(phi)
	case PathFinally:
		phi, err := c.mask(ctx, p.Right)
		if err != nil {
			return nil, err
		}
		switch {
		case p.TimeLow > 0:
			all := trueMask(chain.N())
			return chain.IntervalUntilVectorContext(ctx, all, phi, p.TimeLow, p.TimeBound, c.Accuracy)
		case p.TimeBound > 0:
			return chain.TimeBoundedReachabilityVectorContext(ctx, phi, p.TimeBound, c.Accuracy)
		default:
			return chain.UnboundedReachabilityVectorContext(ctx, phi)
		}
	case PathGlobally:
		notPhi, err := c.mask(ctx, modular.Not(p.Right))
		if err != nil {
			return nil, err
		}
		var q linalg.Vector
		switch {
		case p.TimeLow > 0:
			all := trueMask(chain.N())
			q, err = chain.IntervalUntilVectorContext(ctx, all, notPhi, p.TimeLow, p.TimeBound, c.Accuracy)
		case p.TimeBound > 0:
			q, err = chain.TimeBoundedReachabilityVectorContext(ctx, notPhi, p.TimeBound, c.Accuracy)
		default:
			q, err = chain.UnboundedReachabilityVectorContext(ctx, notPhi)
		}
		if err != nil {
			return nil, err
		}
		for i := range q {
			q[i] = 1 - q[i]
		}
		return q, nil
	case PathUntil:
		phi1, err := c.mask(ctx, p.Left)
		if err != nil {
			return nil, err
		}
		phi2, err := c.mask(ctx, p.Right)
		if err != nil {
			return nil, err
		}
		switch {
		case p.TimeLow > 0:
			return chain.IntervalUntilVectorContext(ctx, phi1, phi2, p.TimeLow, p.TimeBound, c.Accuracy)
		case p.TimeBound > 0:
			return chain.BoundedUntilVectorContext(ctx, phi1, phi2, p.TimeBound, c.Accuracy)
		default:
			// Unbounded until: ¬φ1 ∧ ¬φ2 absorbing, then unbounded reach.
			absorb := make([]bool, chain.N())
			for i := range absorb {
				absorb[i] = !phi1[i] && !phi2[i]
			}
			mod, err := chain.Absorbing(absorb)
			if err != nil {
				return nil, err
			}
			return mod.UnboundedReachabilityVectorContext(ctx, phi2)
		}
	default:
		return nil, fmt.Errorf("%w: unknown path kind %d", ErrCheck, p.Path)
	}
}

func (c *Checker) rewardVectorQuery(ctx context.Context, p *Property) (linalg.Vector, error) {
	reward, err := c.rewardStructure(p.Structure)
	if err != nil {
		return nil, err
	}
	chain := c.Ex.Chain
	switch p.RKind {
	case RewardCumulative:
		return chain.CumulativeRewardVectorContext(ctx, reward, p.RTime, c.Accuracy)
	case RewardInstantaneous:
		return chain.BackwardTransientContext(ctx, reward, p.RTime, c.Accuracy)
	case RewardReachability:
		target, err := c.mask(ctx, p.RTarget)
		if err != nil {
			return nil, err
		}
		return chain.ReachabilityRewardVectorContext(ctx, reward, target)
	default:
		return nil, fmt.Errorf("%w: unknown reward kind %d", ErrCheck, p.RKind)
	}
}

// rewardStructure resolves the named (or sole) reward structure.
func (c *Checker) rewardStructure(name string) (linalg.Vector, error) {
	rewards := c.Ex.Model.Rewards
	if name == "" {
		switch len(rewards) {
		case 0:
			return nil, fmt.Errorf("%w: model declares no reward structure", ErrCheck)
		case 1:
			for n := range rewards {
				name = n
			}
		default:
			return nil, fmt.Errorf("%w: model declares %d reward structures; name one with R{\"...\"}", ErrCheck, len(rewards))
		}
	}
	r, err := c.Ex.RewardVector(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheck, err)
	}
	return r, nil
}

func trueMask(n int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = true
	}
	return m
}
