// Package ctmc implements finite continuous-time Markov chains and the
// numerical analyses the paper's security methodology needs: transient
// distributions and time-bounded reachability via uniformisation with
// Fox–Glynn Poisson weights, expected cumulative rewards, steady-state
// distributions (with bottom-SCC decomposition for reducible chains), and
// unbounded reachability and expected reachability rewards, solved on the
// rate matrix as linear systems over the embedded jump chain.
//
// Every analysis has one entry point, its Context form (TransientContext,
// CumulativeRewardContext, …), which honours cancellation and participates
// in the internal/obs span tree. Callers without a context pass
// context.Background(); with observability disabled the no-op span path
// allocates nothing (pinned by a test in obs_test.go).
package ctmc

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/foxglynn"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// ErrBadRate reports a negative, NaN or infinite transition rate.
var ErrBadRate = errors.New("ctmc: transition rates must be finite and non-negative")

// ErrBadTime reports a negative or non-finite time bound.
var ErrBadTime = errors.New("ctmc: time bound must be finite and non-negative")

// ErrBadInit reports an invalid initial distribution.
var ErrBadInit = errors.New("ctmc: initial distribution invalid")

// ErrNotStochastic reports a derived transition matrix — the uniformised
// chain or the embedded jump chain — whose rows do not sum to one or that
// has a negative entry.
var ErrNotStochastic = errors.New("ctmc: transition matrix rows must sum to 1")

// DefaultAccuracy is the truncation accuracy used for uniformisation when
// the caller passes 0.
const DefaultAccuracy = 1e-10

// Chain is a finite CTMC. Rates holds the off-diagonal transition rates
// R(i,j); the generator is Q = R − diag(exit) with exit_i = Σ_j R(i,j).
type Chain struct {
	Rates *linalg.CSR
	Exit  linalg.Vector
}

// Builder incrementally assembles a CTMC from individual transitions.
type Builder struct {
	n   int
	coo *linalg.COO
	err error
}

// NewBuilder returns a builder for a chain with n states.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, coo: linalg.NewCOO(n, n)}
}

// Add records a transition i→j with the given rate. Self-loops are ignored
// (they are unobservable in a CTMC). Duplicate (i,j) pairs accumulate.
func (b *Builder) Add(i, j int, rate float64) {
	if b.err != nil {
		return
	}
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		b.err = fmt.Errorf("%w: rate(%d→%d) = %v", ErrBadRate, i, j, rate)
		return
	}
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		b.err = fmt.Errorf("ctmc: transition (%d→%d) outside state space of size %d", i, j, b.n)
		return
	}
	if i == j {
		return
	}
	b.coo.Add(i, j, rate)
}

// Build finalises the chain.
func (b *Builder) Build() (*Chain, error) {
	if b.err != nil {
		return nil, b.err
	}
	rates := b.coo.ToCSR()
	return &Chain{Rates: rates, Exit: rates.RowSums()}, nil
}

// N returns the number of states.
func (c *Chain) N() int { return c.Rates.Rows }

// MaxExitRate returns the largest total exit rate, the uniformisation
// constant's lower bound.
func (c *Chain) MaxExitRate() float64 {
	var q float64
	for _, e := range c.Exit {
		if e > q {
			q = e
		}
	}
	return q
}

// uniformised is the uniformised DTMC P = I + Q/q as a gather operator:
// P is stored once, in the sliced layout of linalg.Sliced with one output
// per state. A forward operator slices the columns of P, so output j sums
// v[i]·P(i,j) over the rows i in ascending order; a backward operator
// slices the rows, so output i sums P(i,j)·v[j] in column order. Either
// way the diagonal term 1 − exit_i/q sits at its own position, with a
// stored self-rate folded in as (R(i,i)/q) + (1 − exit_i/q), so every sum
// takes the terms, in the order, that a product with the materialised P
// took. The extra terms of the gather form (padding, and rows with
// v[i] = 0) are ±0, which is exact for finite v: checkInit keeps forward
// inputs finite and checkValues backward ones (see DESIGN.md, "Sliced and
// split kernels").
type uniformised struct {
	p linalg.Sliced
	q float64
}

// uniformisationRate returns q = 1.02 × the largest exit rate (a strictly
// larger q guarantees aperiodicity via self-loops), or q = 1 for a chain
// with no transitions, so P = I.
func (c *Chain) uniformisationRate() float64 {
	q := c.MaxExitRate() * 1.02
	if q == 0 {
		q = 1
	}
	return q
}

// uniformised returns the forward (v·P) or backward (P·v) operator for
// the uniformisation rate.
func (c *Chain) uniformised(backward bool) (uniformised, error) {
	return c.uniformisedAt(c.uniformisationRate(), backward)
}

// uniformisedAt returns the operator for rate q after checking that P is
// stochastic (see stochasticRows). The slices are filled straight from
// Rates: a first walk over the rows of P checks them and counts the entries
// of each output, a second places them, so each output receives its
// entries in the order it sums them.
func (c *Chain) uniformisedAt(q float64, backward bool) (uniformised, error) {
	p := linalg.NewSlicedBuilder(c.N(), c.N())
	// orient maps entry (i, j) of P to its output and input: column j
	// gathers from row i going forward, row i from column j going backward.
	orient := func(i, j int) (out, in int) {
		if backward {
			return i, j
		}
		return j, i
	}
	rows := newStochasticRows()
	c.rowsOfP(q, func(i, j int, v float64) {
		out, _ := orient(i, j)
		p.Count(out)
		rows.entry(v)
	}, rows.endRow)
	if err := rows.err(); err != nil {
		return uniformised{}, fmt.Errorf("ctmc: uniformisation produced invalid DTMC: %w", err)
	}
	if err := p.Alloc(); err != nil {
		return uniformised{}, fmt.Errorf("ctmc: uniformised operator: %w", err)
	}
	c.rowsOfP(q, func(i, j int, v float64) {
		out, in := orient(i, j)
		p.Append(out, in, v)
	}, nil)
	return uniformised{p: p.Sliced(), q: q}, nil
}

// stochasticRows checks a transition matrix walked row by row: it keeps
// the first row whose entries sum to more than 1e-9 away from 1 and the
// first negative entry in row-major order.
type stochasticRows struct {
	sum, badSum, neg float64
	badRow           int
}

func newStochasticRows() *stochasticRows {
	return &stochasticRows{badRow: -1, neg: math.NaN()}
}

// entry adds v to the current row.
func (s *stochasticRows) entry(v float64) {
	s.sum += v
	if v < 0 && math.IsNaN(s.neg) {
		s.neg = v
	}
}

// endRow closes row i.
func (s *stochasticRows) endRow(i int) {
	if math.Abs(s.sum-1) > 1e-9 && s.badRow < 0 {
		s.badRow, s.badSum = i, s.sum
	}
	s.sum = 0
}

// err reports the first bad row sum, else the first negative entry, as a
// wrapped ErrNotStochastic; nil if every row passed.
func (s *stochasticRows) err() error {
	switch {
	case s.badRow >= 0:
		return fmt.Errorf("%w: row %d sums to %v", ErrNotStochastic, s.badRow, s.badSum)
	case !math.IsNaN(s.neg):
		return fmt.Errorf("%w: negative transition probability %v", ErrNotStochastic, s.neg)
	}
	return nil
}

// rowsOfP calls entry(i, j, P(i,j)) for every entry of P = I + Q/q, row
// by row and within a row in column order, the diagonal (with any stored
// self-rate folded in) at its own position, and end(i), unless end is nil,
// after row i.
func (c *Chain) rowsOfP(q float64, entry func(i, j int, v float64), end func(i int)) {
	rp, ci, vals := c.Rates.RowPtr, c.Rates.ColIdx, c.Rates.Val
	for i := range c.N() {
		d := 1 - c.Exit[i]/q
		k, hi := int(rp[i]), int(rp[i+1])
		for ; k < hi && int(ci[k]) < i; k++ {
			entry(i, int(ci[k]), vals[k]/q)
		}
		if k < hi && int(ci[k]) == i {
			d = vals[k]/q + d
			k++
		}
		entry(i, i, d)
		for ; k < hi; k++ {
			entry(i, int(ci[k]), vals[k]/q)
		}
		if end != nil {
			end(i)
		}
	}
}

func (c *Chain) checkInit(init linalg.Vector) error {
	if len(init) != c.N() {
		return fmt.Errorf("%w: length %d, want %d", ErrBadInit, len(init), c.N())
	}
	var sum float64
	for _, p := range init {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("%w: negative or NaN mass", ErrBadInit)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("%w: mass sums to %v", ErrBadInit, sum)
	}
	return nil
}

func checkTime(t float64) error {
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("%w: %v", ErrBadTime, t)
	}
	return nil
}

// uniSetup records the uniformisation parameters common to all transient
// spans: the rate q and the Fox–Glynn truncation window.
func uniSetup(sp *obs.Span, n int, t, q float64, fg *foxglynn.Result) {
	st := fg.Stats()
	sp.Int("states", int64(n))
	sp.Float("t", t)
	sp.Float("q", q)
	sp.Int("fg_left", int64(st.Left))
	sp.Int("fg_right", int64(st.Right))
	sp.Int("fg_terms", int64(st.Terms))
}

// uniformise runs the uniformisation series the transient analyses and
// the per-state cumulative reward share (the scalar cumulative reward
// records its terms instead; see series.go). With P = I + Q/q and the
// Fox–Glynn Poisson(qt) weights γ_k, it walks the iterates v·Pᵏ (or Pᵏ·v
// when backward) for k = 0 … R and hands each to term with γ_k (0 left of
// the window), the tail 1 − Σ_{i≤k} γ_i and q. The uniformisation
// parameters and the matrix–vector product count go on sp. accuracy ≤ 0
// selects DefaultAccuracy. A done ctx stops the walk before the next
// product and its error is returned.
func (c *Chain) uniformise(ctx context.Context, sp *obs.Span, v linalg.Vector, t, accuracy float64, backward bool, term func(weight, tail, q float64, cur linalg.Vector)) error {
	if accuracy <= 0 {
		accuracy = DefaultAccuracy
	}
	uni, err := c.uniformised(backward)
	if err != nil {
		return err
	}
	q := uni.q
	fg, err := foxglynn.Compute(q*t, accuracy)
	if err != nil {
		return err
	}
	uniSetup(sp, c.N(), t, q, fg)
	cur := v.Clone()
	next := linalg.NewVector(c.N())
	var cum float64 // Σ_{i≤k} γ_i so far
	matvecs := 0
	for k := 0; ; k++ {
		var w float64
		if k >= fg.Left {
			w = fg.Weights[k-fg.Left]
			cum += w
		}
		term(w, 1-cum, q, cur)
		if k == fg.Right {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		uni.p.MulVec(cur, next)
		matvecs++
		cur, next = next, cur
	}
	sp.Int("matvecs", int64(matvecs))
	return nil
}

// TransientContext computes the state distribution at time t from init
// using uniformisation: π(t) = Σ_k Poisson(qt, k) · init·Pᵏ. accuracy ≤ 0
// selects DefaultAccuracy. It records the uniformisation rate, the
// Fox–Glynn window and the matrix–vector product count on a
// "ctmc.transient" span.
func (c *Chain) TransientContext(ctx context.Context, init linalg.Vector, t, accuracy float64) (linalg.Vector, error) {
	_, sp := obs.Start(ctx, "ctmc.transient")
	defer sp.End()
	if err := c.checkInit(init); err != nil {
		return nil, err
	}
	if err := checkTime(t); err != nil {
		return nil, err
	}
	if t == 0 {
		return init.Clone(), nil
	}
	out := linalg.NewVector(c.N())
	err := c.uniformise(ctx, sp, init, t, accuracy, false, func(w, _, _ float64, cur linalg.Vector) {
		if w > 0 {
			out.AddScaled(w, cur)
		}
	})
	if err != nil {
		return nil, err
	}
	// Guard against truncation drift.
	out.Normalize1()
	return out, nil
}

// CumulativeRewardContext computes the expected reward accumulated over
// [0, t]: E[∫₀ᵗ r(X_s) ds] = Σ_k (1/q)(1 − Σ_{i≤k} γ_i) · (π_k · r), where
// π_k is the distribution of the uniformised DTMC after k steps and γ the
// Poisson(qt) weights. With an indicator reward this is the expected time
// spent in the indicated states — the paper's headline metric. The
// "ctmc.cumulative_reward" span records q, the Fox–Glynn window and the
// matvec count.
func (c *Chain) CumulativeRewardContext(ctx context.Context, init linalg.Vector, reward linalg.Vector, t, accuracy float64) (float64, error) {
	if len(reward) != c.N() {
		return 0, fmt.Errorf("ctmc: reward vector length %d, want %d", len(reward), c.N())
	}
	var total [1]float64
	err := c.cumulative(ctx, init, t, accuracy, total[:], func(ctx context.Context, right int) ([][]float64, int, int, error) {
		return c.freshTerms(ctx, init, []linalg.Vector{reward}, right)
	})
	if err != nil {
		return 0, err
	}
	return total[0], nil
}

// TimeBoundedReachabilityContext computes P[reach a target state within t]
// from init: the target states are made absorbing, and the probability is
// the transient mass in them at time t (the transient solve appears as a
// child span).
func (c *Chain) TimeBoundedReachabilityContext(ctx context.Context, init linalg.Vector, target []bool, t, accuracy float64) (float64, error) {
	if len(target) != c.N() {
		return 0, fmt.Errorf("ctmc: target mask length %d, want %d", len(target), c.N())
	}
	mod, err := c.Absorbing(target)
	if err != nil {
		return 0, err
	}
	pi, err := mod.TransientContext(ctx, init, t, accuracy)
	if err != nil {
		return 0, err
	}
	var p float64
	for i, in := range target {
		if in {
			p += pi[i]
		}
	}
	if p > 1 {
		p = 1
	}
	return p, nil
}

// untilAbsorbing returns the states φ1 U φ2 stops in: φ2 ∨ ¬φ1.
func untilAbsorbing(n int, phi1, phi2 []bool) ([]bool, error) {
	if len(phi1) != n || len(phi2) != n {
		return nil, fmt.Errorf("ctmc: formula mask length mismatch (want %d)", n)
	}
	absorb := make([]bool, n)
	for i := 0; i < n; i++ {
		absorb[i] = phi2[i] || !phi1[i]
	}
	return absorb, nil
}

// Absorbing returns a copy of the chain in which every state in mask has all
// outgoing transitions removed. Like Builder, the copy drops self-loops and
// zero rates.
func (c *Chain) Absorbing(mask []bool) (*Chain, error) {
	n := c.N()
	if len(mask) != n {
		return nil, fmt.Errorf("ctmc: mask length %d, want %d", len(mask), n)
	}
	b := linalg.NewRowBuilder(n, n, c.Rates.NNZ())
	for i := 0; i < n; i++ {
		if !mask[i] {
			cols, vals := c.Rates.Row(i)
			for k, j := range cols {
				if int(j) != i {
					b.Add(int(j), vals[k])
				}
			}
		}
		b.EndRow()
	}
	rates := b.CSR()
	return &Chain{Rates: rates, Exit: rates.RowSums()}, nil
}
