// Package dtmc implements discrete-time Markov chains: one transient step
// and unbounded reachability probabilities. The CTMC engine reduces its
// computations to these primitives via uniformisation and the embedded
// chain.
package dtmc

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/linalg"
)

// ErrNotStochastic reports a transition matrix whose rows do not sum to one.
var ErrNotStochastic = errors.New("dtmc: transition matrix rows must sum to 1")

// Chain is a finite DTMC with transition matrix P (row-stochastic CSR).
type Chain struct {
	P *linalg.CSR
}

// New validates P and wraps it in a Chain. Rows must sum to 1 within tol
// (absorbing states must carry an explicit self-loop).
func New(p *linalg.CSR, tol float64) (*Chain, error) {
	if p.Rows != p.Cols {
		return nil, fmt.Errorf("dtmc: transition matrix must be square, got %dx%d", p.Rows, p.Cols)
	}
	if tol <= 0 {
		tol = 1e-9
	}
	for i, s := range p.RowSums() {
		if math.Abs(s-1) > tol {
			return nil, fmt.Errorf("%w: row %d sums to %v", ErrNotStochastic, i, s)
		}
	}
	for _, v := range p.Val {
		if v < 0 {
			return nil, fmt.Errorf("%w: negative transition probability %v", ErrNotStochastic, v)
		}
	}
	return &Chain{P: p}, nil
}

// N returns the number of states.
func (c *Chain) N() int { return c.P.Rows }

// Step advances a distribution one step: dst = pi·P.
func (c *Chain) Step(pi, dst linalg.Vector) (linalg.Vector, error) {
	return c.P.VecMul(pi, dst)
}

// Reachability computes, for every state, the probability of eventually
// reaching the target set. It performs the standard qualitative
// precomputations first — prob-0 states via backward reachability, prob-1
// states via bottom-SCC analysis (a DTMC reaches the target almost surely
// iff it cannot reach a BSCC disjoint from the target) — and then solves
// the linear system x = P·x + b restricted to the genuinely fractional
// states with Gauss–Seidel. Without the prob-1 step, probabilities
// converging to 1 through rare escapes would need iteration counts inverse
// in the escape probability.
func (c *Chain) Reachability(target []bool, opts linalg.IterOpts) (linalg.Vector, error) {
	n := c.N()
	if len(target) != n {
		return nil, fmt.Errorf("dtmc: target mask length %d, want %d", len(target), n)
	}
	var targets []int
	for i, t := range target {
		if t {
			targets = append(targets, i)
		}
	}
	x := linalg.NewVector(n)
	if len(targets) == 0 {
		return x, nil
	}
	canReach := graph.CanReach(c.P, targets, nil)
	// Prob-1: states that can reach the target but cannot reach any "bad"
	// BSCC (one containing no target state) hit the target almost surely.
	_, bsccs := graph.BSCCs(c.P)
	var badStates []int
	for _, b := range bsccs {
		bad := true
		for _, s := range b {
			if target[s] {
				bad = false
				break
			}
		}
		if bad {
			badStates = append(badStates, b...)
		}
	}
	var canReachBad []bool
	if len(badStates) > 0 {
		canReachBad = graph.CanReach(c.P, badStates, nil)
	} else {
		canReachBad = make([]bool, n)
	}
	idx := make([]int, n) // state -> unknown index, -1 if known
	var unknowns []int
	for i := 0; i < n; i++ {
		switch {
		case target[i]:
			x[i] = 1
			idx[i] = -1
		case !canReach[i]:
			idx[i] = -1
		case !canReachBad[i]:
			x[i] = 1 // almost-sure: no escape route exists
			idx[i] = -1
		default:
			idx[i] = len(unknowns)
			unknowns = append(unknowns, i)
		}
	}
	if len(unknowns) == 0 {
		return x, nil
	}
	a, b := c.fractionalSystem(unknowns, idx, x)
	y, err := linalg.GaussSeidel(a, b, opts)
	if err != nil {
		return nil, fmt.Errorf("dtmc: reachability solve: %w", err)
	}
	for ui, i := range unknowns {
		x[i] = clamp01(y[ui])
	}
	return x, nil
}

// fractionalSystem builds (I − P_uu)·y = P_u·x_known in split form, where
// u are the unknowns (idx maps a state to its unknown index, -1 if known)
// and x_known is 1 on target and almost-sure states. Unknowns keep the
// state order, so each row comes out sorted, and a self-loop sums into the
// diagonal as 1 − p.
func (c *Chain) fractionalSystem(unknowns, idx []int, x linalg.Vector) (*linalg.Split, linalg.Vector) {
	a := linalg.NewSplitBuilder(len(unknowns), 0)
	b := linalg.NewVector(len(unknowns))
	for ui, i := range unknowns {
		a.Diagonal(1)
		cols, vals := c.P.Row(i)
		for k, j := range cols {
			p := vals[k]
			if p == 0 {
				continue
			}
			if uj := idx[j]; uj >= 0 {
				a.Add(uj, -p)
			} else if x[j] == 1 {
				b[ui] += p
			}
		}
		a.EndRow()
	}
	return a.Split(), b
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
