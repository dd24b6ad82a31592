package ctmc

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/foxglynn"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// The cumulative reward over [0, t] is Σ_k (1/q)(1 − Σ_{i≤k} γ_i(qt))·d_k
// with d_k = π_k·r and π_k = init·Pᵏ the iterates of the uniformised
// chain. Only the Poisson weights γ depend on t: the terms d_k depend on
// the chain, init and r alone. A pass records the terms; weigh combines
// them with one horizon's weights. Every cumulative-reward entry point
// records a fresh pass and weighs it once; a Series keeps its pass to
// serve many horizons.

// pass records the terms d_k of several rewards: column j holds d_k of
// rewards[j] for k < len(cols[j]), and cur is π_{terms−1}.
type pass struct {
	c       *Chain
	init    linalg.Vector
	rewards []linalg.Vector
	cols    [][]float64
	terms   int
	cur     linalg.Vector
}

// record appends the terms of iterate k = terms to every column that does
// not hold them yet.
func (p *pass) record() {
	for j, col := range p.cols {
		if len(col) == p.terms {
			p.cols[j] = append(col, p.cur.Dot(p.rewards[j]))
		}
	}
	p.terms++
}

// indicators returns the indicator reward of each mask, built afresh for
// each pass so that a Series keeps only the masks.
func indicators(masks [][]bool) []linalg.Vector {
	rewards := make([]linalg.Vector, len(masks))
	for j, mask := range masks {
		rewards[j] = linalg.NewVector(len(mask))
		for i, in := range mask {
			if in {
				rewards[j][i] = 1
			}
		}
	}
	return rewards
}

// run records the terms up to and including right, resuming from cur (or
// from init when no term is recorded yet) with one product per term on a
// freshly built uniformised operator. A done ctx stops it before the next
// product, with every term recorded so far kept, and its error is
// returned. It returns the number of products run.
func (p *pass) run(ctx context.Context, right int) (int, error) {
	uni, err := p.c.uniformised(false)
	if err != nil {
		return 0, err
	}
	if p.terms == 0 {
		p.cur = p.init.Clone()
		p.record()
	}
	next := linalg.NewVector(p.c.N())
	matvecs := 0
	for p.terms <= right {
		if err := ctx.Err(); err != nil {
			return matvecs, err
		}
		uni.p.MulVec(p.cur, next)
		p.cur, next = next, p.cur
		matvecs++
		p.record()
	}
	return matvecs, nil
}

// weigh adds to total[j], for k = 0 … fg.Right in ascending order, the
// weight (1/q)(1 − Σ_{i≤k} γ_i) times d_k of column j whenever that weight
// is positive.
func weigh(cols [][]float64, fg *foxglynn.Result, q float64, total []float64) {
	var cum float64 // Σ_{i≤k} γ_i so far
	for k := 0; k <= fg.Right; k++ {
		if k >= fg.Left {
			cum += fg.Weights[k-fg.Left]
		}
		if w := (1 - cum) / q; w > 0 {
			for j, col := range cols {
				total[j] += w * col[k]
			}
		}
	}
}

// termsFunc returns columns holding at least right+1 terms of each reward,
// the products it ran for them and the number of terms it took from a
// record instead.
type termsFunc func(ctx context.Context, right int) (cols [][]float64, matvecs, reused int, err error)

// cumulative adds to total the cumulative reward over [0, t] of each
// reward whose terms terms supplies, on a "ctmc.cumulative_reward" span
// that records q, the Fox–Glynn window, the products run and, when
// non-zero, the terms reused. accuracy ≤ 0 selects DefaultAccuracy.
func (c *Chain) cumulative(ctx context.Context, init linalg.Vector, t, accuracy float64, total []float64, terms termsFunc) error {
	_, sp := obs.Start(ctx, "ctmc.cumulative_reward")
	defer sp.End()
	if len(total) > 1 {
		sp.Int("rewards", int64(len(total)))
	}
	if err := c.checkInit(init); err != nil {
		return err
	}
	if err := checkTime(t); err != nil {
		return err
	}
	if t == 0 {
		return nil
	}
	if accuracy <= 0 {
		accuracy = DefaultAccuracy
	}
	q := c.uniformisationRate()
	fg, err := foxglynn.Compute(q*t, accuracy)
	if err != nil {
		return err
	}
	uniSetup(sp, c.N(), t, q, fg)
	cols, matvecs, reused, err := terms(ctx, fg.Right)
	if err != nil {
		return err
	}
	sp.Int("matvecs", int64(matvecs))
	if reused > 0 {
		sp.Int("reused", int64(reused))
	}
	weigh(cols, fg, q, total)
	return nil
}

// freshTerms records a fresh pass of the rewards up to term right, in
// columns cut from one array: the termsFunc of every cumulative reward
// solved once.
func (c *Chain) freshTerms(ctx context.Context, init linalg.Vector, rewards []linalg.Vector, right int) ([][]float64, int, int, error) {
	p := pass{c: c, init: init, rewards: rewards, cols: make([][]float64, len(rewards))}
	backing := make([]float64, 0, len(p.cols)*(right+1))
	for j := range p.cols {
		p.cols[j] = backing[j*(right+1) : j*(right+1) : (j+1)*(right+1)]
	}
	matvecs, err := p.run(ctx, right)
	return p.cols, matvecs, 0, err
}

// fractions returns the cumulative reward of each mask over [0, t]
// divided by t.
func (c *Chain) fractions(ctx context.Context, init linalg.Vector, masks [][]bool, t, accuracy float64, terms termsFunc) ([]float64, error) {
	for _, mask := range masks {
		if len(mask) != c.N() {
			return nil, fmt.Errorf("ctmc: mask length %d, want %d", len(mask), c.N())
		}
	}
	if t <= 0 {
		return nil, fmt.Errorf("%w: horizon must be positive, got %v", ErrBadTime, t)
	}
	fracs := make([]float64, len(masks))
	if err := c.cumulative(ctx, init, t, accuracy, fracs, terms); err != nil {
		return nil, err
	}
	for j := range fracs {
		fracs[j] /= t
	}
	return fracs, nil
}

// Series memoises the horizon-independent half of
// ExpectedTimeFractionsContext on one chain from one initial distribution,
// for solves at many horizons and accuracies. For every named mask solved
// so far it records the terms d_k of the masks' indicator rewards, all up
// to the same k, and it keeps the last iterate to resume from. A solve
// computes the Fox–Glynn window of its horizon, extends the record only
// when the window's right point lies beyond it, and weighs the recorded
// terms as a fresh pass would, so every fraction is bit-identical to
// ExpectedTimeFractionsContext. A new name restarts the pass from init,
// recording only the new masks' terms up to the recorded ones.
//
// The record holds at most the chain's transition count of floats (names ×
// terms); a solve that would need more runs a fresh pass that records
// nothing here. So a Series retains at most one state vector besides that.
//
// A Series is safe for concurrent use. One caller at a time extends it and
// readers of the recorded prefix never wait for it; a cancelled extension
// keeps the terms it recorded, and errors are never recorded.
type Series struct {
	c    *Chain
	init linalg.Vector
	lock chan struct{} // held by the one extender

	mu    sync.Mutex // guards the record below; cur is the extender's alone
	col   map[string]int
	masks [][]bool
	cols  [][]float64
	terms int
	cur   linalg.Vector
}

// NewSeries returns an empty Series of c from init.
func (c *Chain) NewSeries(init linalg.Vector) *Series {
	return &Series{c: c, init: init, lock: make(chan struct{}, 1), col: make(map[string]int)}
}

// FractionsContext returns ExpectedTimeFractionsContext of the masks at
// horizon t, served from the record where it reaches. names[j] names
// masks[j]: a name must always carry the same mask. Its
// "ctmc.cumulative_reward" span counts only the products this call ran,
// and the terms it took from the record as "reused".
func (s *Series) FractionsContext(ctx context.Context, names []string, masks [][]bool, t, accuracy float64) ([]float64, error) {
	if len(names) != len(masks) {
		return nil, fmt.Errorf("ctmc: %d names for %d masks", len(names), len(masks))
	}
	return s.c.fractions(ctx, s.init, masks, t, accuracy, func(ctx context.Context, right int) ([][]float64, int, int, error) {
		return s.recorded(ctx, names, masks, right)
	})
}

// lookup returns the recorded columns of names when every name has one
// holding at least right+1 terms, else nil.
func (s *Series) lookup(names []string, right int) [][]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if right >= s.terms {
		return nil
	}
	cols := make([][]float64, len(names))
	for j, name := range names {
		i, ok := s.col[name]
		if !ok {
			return nil
		}
		cols[j] = s.cols[i]
	}
	return cols
}

// recorded is the termsFunc of the record: it returns the recorded columns
// when they reach right, and otherwise extends the record, one extender at
// a time, unless that would pass the record's bound.
func (s *Series) recorded(ctx context.Context, names []string, masks [][]bool, right int) ([][]float64, int, int, error) {
	if cols := s.lookup(names, right); cols != nil {
		return cols, 0, right + 1, nil
	}
	select {
	case s.lock <- struct{}{}:
	default:
		select {
		case s.lock <- struct{}{}:
		case <-ctx.Done():
			return nil, 0, 0, ctx.Err()
		}
	}
	release := func() { <-s.lock }
	if cols := s.lookup(names, right); cols != nil {
		release() // extended while this caller waited
		return cols, 0, right + 1, nil
	}
	x := s.plan(names, masks, right)
	if x == nil {
		// Beyond the record's bound: a fresh pass, recorded nowhere.
		release()
		return s.c.freshTerms(ctx, s.init, indicators(masks), right)
	}
	defer release()
	p := x.pass
	reused := p.terms
	matvecs, err := p.run(ctx, x.last)
	if p.terms > 0 && p.terms >= s.terms {
		// Every mask holds p.terms terms: publish, also after a cancelled
		// run, whose terms are as valid as a finished one's.
		s.mu.Lock()
		for j, name := range names {
			s.col[name] = x.at[j]
		}
		s.masks, s.cols, s.terms, s.cur = x.masks, p.cols, p.terms, p.cur
		s.mu.Unlock()
	}
	if err != nil {
		return nil, matvecs, reused, err
	}
	cols := make([][]float64, len(names))
	for j := range names {
		cols[j] = p.cols[x.at[j]]
	}
	return cols, matvecs, reused, nil
}

// extension is a planned extension of the record: the pass that runs it,
// the mask of each of its columns, the column of each requested name and
// the last term to record.
type extension struct {
	pass  *pass
	masks [][]bool
	at    []int
	last  int
}

// plan returns the extension that covers names up to right. Its last
// term is right, or the last recorded term when a new name restarts the
// pass from init (the old masks' terms are then recorded only beyond the
// recorded ones). It returns nil when the extended record would hold more
// floats than the chain has transitions. The caller holds the lock.
func (s *Series) plan(names []string, masks [][]bool, right int) *extension {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := &pass{c: s.c, init: s.init, cols: slices.Clone(s.cols), terms: s.terms, cur: s.cur}
	x := &extension{pass: p, masks: slices.Clone(s.masks), at: make([]int, len(names)), last: max(right, s.terms-1)}
	for j, name := range names {
		i, ok := s.col[name]
		if !ok {
			if k := slices.Index(names[:j], name); k >= 0 {
				i = x.at[k]
			} else {
				i = len(p.cols)
				x.masks = append(x.masks, masks[j])
				p.cols = append(p.cols, nil)
				p.terms, p.cur = 0, nil
			}
		}
		x.at[j] = i
	}
	if len(p.cols)*(x.last+1) > s.c.Rates.NNZ() {
		return nil
	}
	for j, col := range p.cols {
		if cap(col) < x.last+1 {
			p.cols[j] = append(make([]float64, 0, x.last+1), col...)
		}
	}
	p.rewards = indicators(x.masks)
	return x
}
