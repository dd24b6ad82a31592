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

// longRun is the bottom-SCC decomposition the long-run analyses share:
// every BSCC's stationary distribution π_B, solved once. The long-run
// probability of a mask from state s is π_B(mask) on the states of a BSCC
// B and, on a transient state, Σ_B P_s[absorb into B]·π_B(mask).
type longRun struct {
	c     *Chain
	bscc  []int         // state -> its BSCC, -1 for transient states
	pi    linalg.Vector // state -> π_B(s) in its BSCC B, 0 if transient
	count int           // number of BSCCs
}

// longRun decomposes the chain, records the state and BSCC counts on sp
// and solves every BSCC's stationary distribution.
func (c *Chain) longRun(ctx context.Context, sp *obs.Span) (*longRun, error) {
	n := c.N()
	_, bsccs := graph.BSCCs(c.Rates)
	sp.Int("states", int64(n))
	sp.Int("bsccs", int64(len(bsccs)))
	l := &longRun{c: c, bscc: make([]int, n), pi: linalg.NewVector(n), count: len(bsccs)}
	pos := make([]int, n) // state -> position in its BSCC, -1 if transient
	for i := range pos {
		pos[i], l.bscc[i] = -1, -1
	}
	for b, set := range bsccs {
		for k, s := range set {
			pos[s], l.bscc[s] = k, b
		}
	}
	for _, set := range bsccs {
		pi, err := linalg.Vector{1}, error(nil) // a one-state BSCC
		switch {
		case len(set) > directSolveThreshold:
			pi, err = c.stationaryIterative(ctx, set, pos)
		case len(set) > 1:
			pi, err = c.stationaryDirect(set, pos)
		}
		if err != nil {
			return nil, err
		}
		for k, s := range set {
			l.pi[s] = pi[k]
		}
	}
	return l, nil
}

// values returns π_B(mask) of every BSCC B, summed over its states in
// state order and clamped to [0, 1]; a chain without states has one
// value, 0.
func (l *longRun) values(mask []bool) []float64 {
	v := make([]float64, max(l.count, 1))
	for s, in := range mask {
		if b := l.bscc[s]; in && b >= 0 {
			v[b] += l.pi[s]
		}
	}
	for b := range v {
		v[b] = clampUnit(v[b])
	}
	return v
}

// fold returns the long-run probability of mask from every state. When
// every BSCC has the same value, that value is every state's answer: fold
// returns it and a nil vector without solving. Otherwise one reachability
// solve over the transient states, with every BSCC state fixed at its
// BSCC's value, gives the vector, each entry in [0, 1].
func (l *longRun) fold(ctx context.Context, mask []bool) (float64, linalg.Vector, error) {
	v := l.values(mask)
	if !slices.ContainsFunc(v, func(w float64) bool { return w != v[0] }) {
		return v[0], nil, nil
	}
	n := l.c.N()
	x := linalg.NewVector(n)
	idx := make([]int, n) // state -> unknown index, -1 on BSCC states
	var unknowns []int
	for s, b := range l.bscc {
		idx[s] = -1
		if b >= 0 {
			x[s] = v[b]
		} else {
			idx[s] = len(unknowns)
			unknowns = append(unknowns, s)
		}
	}
	x, err := l.c.solveUnknowns(ctx, nil, nil, x, unknowns, idx, linalg.IterOpts{Tol: 1e-10, MaxIter: 500000})
	return 0, x, err
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
	// The fallback chain escalates gauss-seidel → dense on
	// *ConvergenceError; each attempt lands in the run manifest.
	y, err := robustSolve(ctx, sp, a, b, linalg.IterOpts{Tol: 1e-11, MaxIter: 500000})
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
// every mask from the given initial distribution. For an irreducible chain
// this is the classical solution of πQ = 0, Σπ = 1 summed over the mask;
// for a reducible chain it folds each bottom SCC's stationary
// distribution with the probability of being absorbed into it, from one
// BSCC decomposition and at most one reachability solve per mask (none
// when every BSCC gives the mask the same value). A "ctmc.steadystate"
// span records state and BSCC counts, with one child span per iterative
// balance-equation solve carrying the solver's iteration count and final
// residual.
func (c *Chain) SteadyStateProbabilitiesContext(ctx context.Context, init linalg.Vector, masks [][]bool) ([]float64, error) {
	ctx, sp := obs.Start(ctx, "ctmc.steadystate")
	defer sp.End()
	if err := c.checkInit(init); err != nil {
		return nil, err
	}
	for _, mask := range masks {
		if len(mask) != c.N() {
			return nil, fmt.Errorf("ctmc: mask length %d, want %d", len(mask), c.N())
		}
	}
	lr, err := c.longRun(ctx, sp)
	if err != nil {
		return nil, err
	}
	ps := make([]float64, len(masks))
	for j, mask := range masks {
		p, x, err := lr.fold(ctx, mask)
		if err != nil {
			return nil, err
		}
		if x != nil {
			p = clampUnit(init.Dot(x))
		}
		ps[j] = p
	}
	return ps, nil
}
