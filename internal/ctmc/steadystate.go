package ctmc

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// directSolveThreshold is the BSCC size below which the stationary
// distribution is computed by dense Gaussian elimination instead of the
// iterative balance-equation solve.
const directSolveThreshold = 256

// SteadyStateContext computes the long-run state distribution from the
// given initial distribution. For an irreducible chain this is the
// classical solution of πQ = 0, Σπ = 1; for a reducible chain the
// distribution decomposes over the bottom strongly connected components:
// π∞(s) = Σ_B P[absorb into B | init] · π_B(s). A "ctmc.steadystate" span
// records state and BSCC counts, with one child span per iterative
// balance-equation solve carrying the solver's iteration count and final
// residual.
func (c *Chain) SteadyStateContext(ctx context.Context, init linalg.Vector) (linalg.Vector, error) {
	ctx, sp := obs.Start(ctx, "ctmc.steadystate")
	defer sp.End()
	if err := c.checkInit(init); err != nil {
		return nil, err
	}
	lr := c.longRun(sp)
	out := linalg.NewVector(c.N())
	if len(lr.bsccs) == 1 {
		// Irreducible, or a single BSCC that absorbs all probability mass
		// regardless of the initial distribution: the (potentially
		// ill-conditioned) reachability solve is only needed when the mass
		// splits between several BSCCs.
		pi, err := lr.stationary(ctx, 0)
		if err != nil {
			return nil, err
		}
		for k, s := range lr.bsccs[0] {
			out[s] = pi[k]
		}
		return out, nil
	}
	for b, set := range lr.bsccs {
		reach, err := lr.absorption(ctx, b)
		if err != nil {
			return nil, err
		}
		pAbsorb := init.Dot(reach)
		if pAbsorb == 0 {
			continue
		}
		pi, err := lr.stationary(ctx, b)
		if err != nil {
			return nil, err
		}
		for k, s := range set {
			out[s] += pAbsorb * pi[k]
		}
	}
	// Numerical cleanup: the BSCC absorption probabilities sum to 1.
	out.Normalize1()
	return out, nil
}

// longRun is the bottom-SCC decomposition the long-run analyses share:
// π∞ folds each BSCC's stationary distribution π_B with the probability of
// being absorbed into B.
type longRun struct {
	c     *Chain
	bsccs [][]int
	pos   []int // state -> position in its BSCC, -1 for transient states
}

// longRun decomposes the chain and records the state and BSCC counts on sp.
func (c *Chain) longRun(sp *obs.Span) *longRun {
	n := c.N()
	_, bsccs := graph.BSCCs(c.Rates)
	sp.Int("states", int64(n))
	sp.Int("bsccs", int64(len(bsccs)))
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for _, set := range bsccs {
		for k, s := range set {
			pos[s] = k
		}
	}
	return &longRun{c: c, bsccs: bsccs, pos: pos}
}

// stationary returns π_B of BSCC b, indexed like its member slice.
func (l *longRun) stationary(ctx context.Context, b int) (linalg.Vector, error) {
	set := l.bsccs[b]
	if len(set) == 1 {
		return linalg.Vector{1}, nil
	}
	if len(set) <= directSolveThreshold {
		return l.c.stationaryDirect(set, l.pos)
	}
	return l.c.stationaryIterative(ctx, set, l.pos)
}

// absorption returns, for every state, the probability of eventually
// being absorbed into BSCC b: of reaching any of its states.
func (l *longRun) absorption(ctx context.Context, b int) (linalg.Vector, error) {
	target := make([]bool, l.c.N())
	for _, s := range l.bsccs[b] {
		target[s] = true
	}
	return l.c.untilTarget(ctx, nil, nil, target, linalg.IterOpts{Tol: 1e-10, MaxIter: 500000})
}

// inSet returns the position of state j in set, given pos (state ->
// position in its BSCC), or an error naming the transition s→j that leaves
// the set.
func inSet(set, pos []int, s, j int) (int, error) {
	if k := pos[j]; k >= 0 && set[k] == j {
		return k, nil
	}
	return 0, fmt.Errorf("ctmc: state set not closed: %d → %d leaves the set", s, j)
}

// stationaryDirect solves πQᵀ = 0 with the normalisation Σπ = 1 replacing
// the last (redundant) balance equation.
func (c *Chain) stationaryDirect(set, pos []int) (linalg.Vector, error) {
	m := len(set)
	a := linalg.NewDense(m, m)
	for k, s := range set {
		cols, vals := c.Rates.Row(s)
		for ci, j := range cols {
			kj, err := inSet(set, pos, s, int(j))
			if err != nil {
				return nil, err
			}
			// Column k of Qᵀ is row k of Q: balance equation for state kj
			// receives rate from state k.
			a.Add(kj, k, vals[ci])
		}
		a.Add(k, k, -c.Exit[s])
	}
	// Replace the last balance equation by Σπ = 1.
	for k := 0; k < m; k++ {
		a.Set(m-1, k, 1)
	}
	b := linalg.NewVector(m)
	b[m-1] = 1
	pi, err := linalg.SolveDense(a, b)
	if err != nil {
		return nil, fmt.Errorf("ctmc: direct stationary solve: %w", err)
	}
	for i := range pi {
		if pi[i] < 0 {
			pi[i] = 0 // tiny negative round-off
		}
	}
	pi.Normalize1()
	return pi, nil
}

// stationaryIterative solves the balance equations with a fixed reference
// state: set π_ref = 1, solve the remaining n−1 balance equations
// Σ_i π_i Q(i,j) = 0 (j ≠ ref) by Gauss–Seidel, then normalise. Unlike
// power iteration on the uniformised chain, this stays fast on stiff chains
// whose rates span many orders of magnitude (the Figure-6 sweeps go from
// 0.1 to 8760 per year).
func (c *Chain) stationaryIterative(ctx context.Context, set, pos []int) (linalg.Vector, error) {
	ctx, sp := obs.Start(ctx, "ctmc.steadystate.solve")
	defer sp.End()
	m := len(set)
	if m == 0 {
		return nil, fmt.Errorf("ctmc: empty state set")
	}
	sp.Int("unknowns", int64(m-1))
	// Reference: any state in the (closed, strongly connected) set is
	// correct. The state with the smallest exit rate has the longest mean
	// sojourn and hence tends to carry large stationary mass, which keeps
	// the unnormalised solution values ≲ 1 and the absolute convergence
	// test meaningful.
	ref := 0
	for k, s := range set {
		if c.Exit[s] < c.Exit[set[ref]] {
			ref = k
		}
	}
	a, b, err := c.balanceSystem(set, pos, ref)
	if err != nil {
		return nil, err
	}
	// The fallback chain escalates gauss-seidel → jacobi → dense on
	// *ConvergenceError; each attempt lands in the run manifest.
	var rstats linalg.RobustStats
	y, err := linalg.RobustSolve(ctx, a, b, linalg.RobustOpts{
		Opts:  linalg.IterOpts{Tol: 1e-11, MaxIter: 500000},
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
		// On exhausted fallback chains err still unwraps to the final
		// *linalg.ConvergenceError carrying the sweep count and residual;
		// preserve it through the wrap so callers can errors.As for details.
		return nil, fmt.Errorf("ctmc: iterative stationary solve (%d unknowns): %w", m-1, err)
	}
	pi := linalg.NewVector(m)
	pi[ref] = 1
	for k := range set {
		if k == ref {
			continue
		}
		v := y[unknown(k, ref)]
		if v < 0 {
			v = 0
		}
		pi[k] = v
	}
	pi.Normalize1()
	return pi, nil
}

// unknown is the index of set position k ≠ ref among the balance system's
// unknowns: every set position except ref, in set order.
func unknown(k, ref int) int {
	if k > ref {
		return k - 1
	}
	return k
}

// balanceSystem builds A·x = b over the unknowns (see unknown) from the
// balance equation of each state j ≠ ref (column j of Q):
//
//	Σ_i π_i R(i,j) − π_j·exit_j = 0,
//
// with π_ref = 1 moved to b. Column u of A holds the negated rates out of
// the state with unknown index u and, on the diagonal, its exit rate less
// any stored self-rate; zero entries are dropped. A is built directly in
// split form: one pass counts the off-diagonal entries of each row, a
// second fills them visiting the sources in set order, so each row's
// columns come out ascending. Each source adds at most one entry to a row.
func (c *Chain) balanceSystem(set, pos []int, ref int) (*linalg.Split, linalg.Vector, error) {
	m := len(set)
	a := &linalg.Split{Off: linalg.CSR{Rows: m - 1, Cols: m - 1, RowPtr: make([]int32, m)}, Diag: linalg.NewVector(m - 1)}
	off := &a.Off
	b := linalg.NewVector(m - 1)
	// visit calls add(row, value) for each off-diagonal entry source k
	// contributes to A, in column order of the rates, and sets its
	// diagonal.
	visit := func(k int, add func(row int, v float64)) error {
		s := set[k]
		cols, vals := c.Rates.Row(s)
		d := c.Exit[s]
		for ci, j := range cols {
			kj, err := inSet(set, pos, s, int(j))
			if err != nil {
				return err
			}
			switch {
			case kj == ref:
				// The balance equation of ref is dropped (redundant).
			case k == ref:
				b[unknown(kj, ref)] += vals[ci] // π_ref·R(ref,j) with π_ref = 1
			case kj == k:
				d -= vals[ci] // a stored self-rate sums into the diagonal
			case vals[ci] != 0:
				add(unknown(kj, ref), -vals[ci])
			}
		}
		if k != ref {
			a.Diag[unknown(k, ref)] = d
		}
		return nil
	}
	count := func(row int, _ float64) { off.RowPtr[row+1]++ }
	for k := range set {
		if err := visit(k, count); err != nil {
			return nil, nil, err
		}
	}
	for u := 0; u < m-1; u++ {
		off.RowPtr[u+1] += off.RowPtr[u]
	}
	nnz := off.RowPtr[m-1]
	off.ColIdx, off.Val = make([]int32, nnz), make([]float64, nnz)
	next := slices.Clone(off.RowPtr[:m-1])
	for k := range set {
		if k == ref {
			continue // contributes to b only, summed by the counting pass
		}
		u := int32(unknown(k, ref))
		visit(k, func(row int, v float64) {
			off.ColIdx[next[row]], off.Val[next[row]] = u, v
			next[row]++
		})
	}
	return a, b, nil
}

// SteadyStateProbabilityContext returns the long-run probability of being
// in the masked states: the one-mask case of
// SteadyStateProbabilitiesContext.
func (c *Chain) SteadyStateProbabilityContext(ctx context.Context, init linalg.Vector, mask []bool) (float64, error) {
	ps, err := c.SteadyStateProbabilitiesContext(ctx, init, [][]bool{mask})
	if err != nil {
		return 0, err
	}
	return ps[0], nil
}

// SteadyStateProbabilitiesContext returns the long-run probability of
// every mask from one steady-state solve.
func (c *Chain) SteadyStateProbabilitiesContext(ctx context.Context, init linalg.Vector, masks [][]bool) ([]float64, error) {
	for _, mask := range masks {
		if len(mask) != c.N() {
			return nil, fmt.Errorf("ctmc: mask length %d, want %d", len(mask), c.N())
		}
	}
	pi, err := c.SteadyStateContext(ctx, init)
	if err != nil {
		return nil, err
	}
	ps := make([]float64, len(masks))
	for j, mask := range masks {
		for i, in := range mask {
			if in {
				ps[j] += pi[i]
			}
		}
	}
	return ps, nil
}
