package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/ctmc"
	"repro/internal/linalg"
	"repro/internal/modular"
	"repro/internal/obs"
	"repro/internal/transform"
)

// Prepared is the reusable prefix of one analysis cell: the cell's labelled
// model, its explored state space, and the violated-label artefacts the
// solvers consume. The state space belongs to a chain shared by every cell
// with the same transform.Options.StructureKey: category and protection
// only change the chain through the message-protection variable, so the
// 27 Figure-5 cells explore 6 chains, and preparing several cells at once
// explores each chain once. Preparation (transform + exploration) dominates
// the cost of small-horizon queries, and the result depends only on the
// architecture, the message and the model-side Options — not on horizon or
// accuracy — so a resident service can cache Prepared values by content
// address and re-solve the same chain under many solver settings.
//
// The chain also memoises what its solves share at every horizon and
// accuracy: per violated label, the uniformisation series' terms π_k·r
// with the last iterate to resume from (ctmc.Series), and the long-run
// probability. A solve at a horizon whose Fox–Glynn window the record
// covers runs no matrix–vector product, and the steady state is solved
// once per chain, for every label of the cells prepared with it. Results
// stay bit-identical to a cold solve. The memo holds at most one state
// vector plus, per label, as many floats as it has terms, never more
// floats in all than the chain has transitions.
//
// A Prepared value is safe for concurrent AnalyzePreparedContext calls:
// one of them at a time extends the memo or solves the steady state, and
// the others read what it has recorded.
type Prepared struct {
	// Transform carries the cell's labelled model and its variable
	// references (property checks parse against Transform.Model).
	Transform *transform.Result
	// Explored is the compiled state space of the chain, viewed through the
	// cell's model so labels and rewards resolve to the cell's.
	Explored *modular.Explored

	chain   *chain
	message string
	label   string // the violated predicate; cells with equal labels share a mask
	mask    []bool
}

// chain is one explored structure, the cells prepared on it and the memo
// of its solves: the reward series of the labels solved so far, and the
// long-run probability of each label once the steady state is solved.
type chain struct {
	arch      *arch.Architecture
	structure *transform.Structure
	explored  *modular.Explored
	init      linalg.Vector
	buildTime time.Duration
	cells     []*Prepared

	series     *ctmc.Series
	steadyLock chan struct{} // held by the one steady-state solver
	steady     atomic.Pointer[map[string]float64]
}

// cell names one message × category × protection analysis.
type cell struct {
	msg  string
	cat  transform.Category
	prot transform.Protection
}

// States returns the explored state count.
func (p *Prepared) States() int { return p.Explored.N() }

// Transitions returns the explored transition count.
func (p *Prepared) Transitions() int { return p.Explored.Chain.Rates.NNZ() }

// BuildTime returns the wall time of the transform + exploration phase of
// the chain, shared by every cell prepared on it.
func (p *Prepared) BuildTime() time.Duration { return p.chain.buildTime }

// PrepareContext runs the model-construction half of AnalyzeContext —
// transform, exploration, label mask and initial distribution — and returns
// it in a form that AnalyzePreparedContext can solve repeatedly. Only the
// model-side Analyzer options (NMax, patch-guard flags, reliability) affect
// the result; they are captured in Transform.Options.
func (a Analyzer) PrepareContext(ctx context.Context, ar *arch.Architecture, msgName string, cat transform.Category, prot transform.Protection) (*Prepared, error) {
	ps, err := a.prepare(ctx, ar, []cell{{msgName, cat, prot}})
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// PrepareChainContext is PrepareContext that also labels every other
// category × protection cell of the message sharing the chain, so Cell
// returns them without evaluating a label over the state space.
func (a Analyzer) PrepareChainContext(ctx context.Context, ar *arch.Architecture, msgName string, cat transform.Category, prot transform.Protection) (*Prepared, error) {
	cells := []cell{{msgName, cat, prot}}
	key := a.TransformOptions(cat, prot).StructureKey(msgName)
	for _, c := range Categories {
		for _, pr := range Protections {
			if (c != cat || pr != prot) && a.TransformOptions(c, pr).StructureKey(msgName) == key {
				cells = append(cells, cell{msgName, c, pr})
			}
		}
	}
	ps, err := a.prepare(ctx, ar, cells)
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// Cell returns cell (cat, prot) of p's message on p's chain: the one
// prepared with the chain, or one labelled now. A cell whose structure
// differs is reported with transform.ErrStructureMismatch.
func (p *Prepared) Cell(cat transform.Category, prot transform.Protection) (*Prepared, error) {
	for _, q := range p.chain.cells {
		if o := q.Transform.Options; q.message == p.message && o.Category == cat && o.Protection == prot {
			return q, nil
		}
	}
	res, err := p.chain.structure.Label(p.message, cat, prot)
	if err != nil {
		return nil, err
	}
	masks := make(map[string][]bool, len(p.chain.cells))
	for _, q := range p.chain.cells {
		masks[q.label] = q.mask
	}
	return p.chain.newCell(res, p.message, masks)
}

// prepare builds the structure of cells[0] once, labels every cell on it,
// explores it once and evaluates each distinct violated label once. The
// cells must share one structure key.
func (a Analyzer) prepare(ctx context.Context, ar *arch.Architecture, cells []cell) ([]*Prepared, error) {
	a = a.withDefaults()
	start := time.Now()
	_, tsp := obs.Start(ctx, "transform.build")
	s, err := transform.BuildStructure(ar, cells[0].msg, a.options(cells[0].cat, cells[0].prot))
	labelled := make([]*transform.Result, len(cells))
	for i := 0; err == nil && i < len(cells); i++ {
		labelled[i], err = s.Label(cells[i].msg, cells[i].cat, cells[i].prot)
	}
	tsp.End()
	if err != nil {
		return nil, err
	}
	ex, err := s.Model.ExploreContext(ctx, modular.ExploreOpts{MaxStates: a.MaxStates, MaxTransitions: a.MaxTransitions})
	if err != nil {
		return nil, err
	}
	init := ex.InitDistribution()
	ch := &chain{arch: ar, structure: s, explored: ex, init: init, series: ex.Chain.NewSeries(init), steadyLock: make(chan struct{}, 1)}
	masks := make(map[string][]bool)
	ps := make([]*Prepared, len(cells))
	for i, res := range labelled {
		if ps[i], err = ch.newCell(res, cells[i].msg, masks); err != nil {
			return nil, err
		}
	}
	ch.cells = ps
	ch.buildTime = time.Since(start)
	return ps, nil
}

// newCell wraps one labelled model on the chain, evaluating its violated
// label unless masks already holds the same predicate (and recording it
// there when it did not).
func (ch *chain) newCell(res *transform.Result, msg string, masks map[string][]bool) (*Prepared, error) {
	violated := res.Model.Labels[transform.LabelViolated]
	label := violated.String()
	mask, ok := masks[label]
	if !ok {
		var err error
		if mask, err = ch.explored.ExprMask(violated); err != nil {
			return nil, err
		}
		masks[label] = mask
	}
	return &Prepared{
		Transform: res,
		Explored:  ch.explored.WithModel(res.Model),
		chain:     ch,
		message:   msg,
		label:     label,
		mask:      mask,
	}, nil
}

// AnalyzePreparedContext runs the numerical half of AnalyzeContext on a
// prepared model: the exploitable-time reward, optionally the steady-state
// probability, under the solver-side options of a (Horizon, Accuracy,
// SkipSteadyState, UseLumping). It is the one-cell case of
// AnalyzeCellsContext. The model-side options must match those used at
// Prepare time; callers that key a cache by Options.Canonical get this by
// construction. Result.BuildTime reports the original preparation cost, so
// cached re-solves surface it unchanged.
func (a Analyzer) AnalyzePreparedContext(ctx context.Context, p *Prepared) (*Result, error) {
	rs, err := a.AnalyzeCellsContext(ctx, []*Prepared{p})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// errMixedChains reports cells from different chains passed to one solve.
var errMixedChains = errors.New("core: cells do not share one chain")

// AnalyzeCellsContext solves several cells of one chain together: one
// uniformisation pass and one steady-state solve serve every distinct
// violated label among them (with UseLumping, each distinct label is solved
// on its own quotient). Every cell's numbers are bit-identical to solving
// it alone; its CheckTime is the shared solve's.
func (a Analyzer) AnalyzeCellsContext(ctx context.Context, ps []*Prepared) ([]*Result, error) {
	if len(ps) == 0 {
		return nil, nil
	}
	a = a.withDefaults()
	start := time.Now()
	ch := ps[0].chain
	labels, masks, labelOf := distinctLabels(ps)
	for _, p := range ps {
		if p.chain != ch {
			return nil, errMixedChains
		}
	}
	fracs, steady, lumped, err := a.solve(ctx, ch, labels, masks)
	if err != nil {
		return nil, fmt.Errorf("core: %s/%s: %w", ch.arch.Name, ps[0].message, err)
	}
	check := time.Since(start)
	out := make([]*Result, len(ps))
	for i, p := range ps {
		j, opts := labelOf[i], p.Transform.Options
		out[i] = &Result{
			Architecture: ch.arch.Name,
			Message:      p.message,
			Category:     opts.Category,
			Protection:   opts.Protection,
			TimeFraction: fracs[j],
			SteadyState:  steady[j],
			States:       p.States(),
			Transitions:  p.Transitions(),
			LumpedStates: lumped[j],
			BuildTime:    ch.buildTime,
			CheckTime:    check,
		}
	}
	return out, nil
}

// distinctLabels lists the cells' distinct violated labels and their
// masks in first-use order, and for each cell the index of its label.
func distinctLabels(ps []*Prepared) ([]string, [][]bool, []int) {
	var (
		labels []string
		masks  [][]bool
	)
	labelOf := make([]int, len(ps))
	seen := make(map[string]int, len(ps))
	for i, p := range ps {
		j, ok := seen[p.label]
		if !ok {
			j = len(labels)
			seen[p.label] = j
			labels = append(labels, p.label)
			masks = append(masks, p.mask)
		}
		labelOf[i] = j
	}
	return labels, masks, labelOf
}

// solve returns, per label, the expected time fraction, the steady-state
// probability (NaN under SkipSteadyState) and the lumped state count (0
// without UseLumping). Without UseLumping both come from the chain's memo;
// with it, each label is solved afresh on its own quotient.
func (a Analyzer) solve(ctx context.Context, ch *chain, labels []string, masks [][]bool) (fracs, steady []float64, lumped []int, err error) {
	lumped = make([]int, len(masks))
	c := ch.explored.Chain
	if !a.UseLumping {
		fracs, steady, err = a.solveOn(len(masks), func() ([]float64, error) {
			return ch.series.FractionsContext(ctx, labels, masks, a.Horizon, a.Accuracy)
		}, func() ([]float64, error) {
			return ch.steadyState(ctx, labels, masks)
		})
		return fracs, steady, lumped, err
	}
	fracs = make([]float64, len(masks))
	steady = make([]float64, len(masks))
	for j, mask := range masks {
		q, qmask, qinit, err := lumpOn(c, mask, ch.init)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("lumping: %w", err)
		}
		lumped[j] = q.N()
		qmasks := [][]bool{qmask}
		f, s, err := a.solveOn(1, func() ([]float64, error) {
			return q.ExpectedTimeFractionsContext(ctx, qinit, qmasks, a.Horizon, a.Accuracy)
		}, func() ([]float64, error) {
			return q.SteadyStateProbabilitiesContext(ctx, qinit, qmasks)
		})
		if err != nil {
			return nil, nil, nil, err
		}
		fracs[j], steady[j] = f[0], s[0]
	}
	return fracs, steady, lumped, nil
}

// solveOn returns reward's fractions of n labels and, unless
// SkipSteadyState (steady is then all NaN), steady's probabilities,
// computed at the same time: reward on a new goroutine, steady on the
// caller, so the spans of both are children of the caller's. Both finish
// before it returns; when both fail, reward's error is returned, as when
// they ran in turn.
func (a Analyzer) solveOn(n int, reward, steady func() ([]float64, error)) (fracs, probs []float64, err error) {
	if a.SkipSteadyState {
		probs = make([]float64, n)
		for j := range probs {
			probs[j] = math.NaN()
		}
		fracs, err = reward()
		return fracs, probs, err
	}
	err = overlap(func() (err error) {
		fracs, err = reward()
		return err
	}, func() (err error) {
		if probs, err = steady(); err != nil {
			return fmt.Errorf("steady state: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return fracs, probs, nil
}

// steadyState returns the long-run probability of each label from the
// memo, after solving the steady state if a label lacks one. A solve
// covers the labels of every cell prepared with the chain too, so each is
// solved once; a memo hit opens no span and sets "steady_reused" on the
// caller's. One caller at a time solves, and errors are never memoised.
func (ch *chain) steadyState(ctx context.Context, labels []string, masks [][]bool) ([]float64, error) {
	if ps := ch.steadyOf(labels); ps != nil {
		obs.FromContext(ctx).Int("steady_reused", 1)
		return ps, nil
	}
	select {
	case ch.steadyLock <- struct{}{}:
	default:
		select {
		case ch.steadyLock <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer func() { <-ch.steadyLock }()
	if ps := ch.steadyOf(labels); ps != nil {
		obs.FromContext(ctx).Int("steady_reused", 1)
		return ps, nil
	}
	all, allMasks := labels, masks
	for _, p := range ch.cells {
		if !slices.Contains(all, p.label) {
			all = append(all[:len(all):len(all)], p.label)
			allMasks = append(allMasks[:len(allMasks):len(allMasks)], p.mask)
		}
	}
	probs, err := ch.explored.Chain.SteadyStateProbabilitiesContext(ctx, ch.init, allMasks)
	if err != nil {
		return nil, err
	}
	memo := make(map[string]float64)
	if old := ch.steady.Load(); old != nil {
		maps.Copy(memo, *old)
	}
	for j, label := range all {
		memo[label] = probs[j]
	}
	ch.steady.Store(&memo)
	return probs[:len(labels)], nil
}

// steadyOf returns the memoised long-run probability of each label, or
// nil unless every label has one.
func (ch *chain) steadyOf(labels []string) []float64 {
	memo := ch.steady.Load()
	if memo == nil {
		return nil
	}
	ps := make([]float64, len(labels))
	for j, label := range labels {
		p, ok := (*memo)[label]
		if !ok {
			return nil
		}
		ps[j] = p
	}
	return ps
}

// overlap runs reward on a new goroutine and steady on the caller, and
// returns once both have: reward's error if it failed, else steady's. A
// panic in either is re-raised on the caller after the join.
func overlap(reward, steady func() error) error {
	var (
		g          group
		rerr, serr error
	)
	g.Go(func() { rerr = reward() })
	g.Run(func() { serr = steady() })
	g.Wait()
	if rerr != nil {
		return rerr
	}
	return serr
}

// lumpOn returns the ordinary-lumping quotient of c that respects mask,
// with the mask and initial distribution carried over.
func lumpOn(c *ctmc.Chain, mask []bool, init linalg.Vector) (*ctmc.Chain, []bool, linalg.Vector, error) {
	sig := make([]int, len(mask))
	for i, m := range mask {
		if m {
			sig[i] = 1
		}
	}
	l, err := c.Lump(sig)
	if err != nil {
		return nil, nil, nil, err
	}
	lmask, err := l.LumpMask(mask)
	if err != nil {
		return nil, nil, nil, err
	}
	linit, err := l.LumpDistribution(init)
	if err != nil {
		return nil, nil, nil, err
	}
	return l.Quotient, lmask, linit, nil
}

// analyzeChain prepares cells sharing one structure key and solves them
// together under one "core.analyze" span.
func (a Analyzer) analyzeChain(ctx context.Context, ar *arch.Architecture, cells []cell) ([]*Result, error) {
	ctx, sp := obs.Start(ctx, "core.analyze")
	defer sp.End()
	if sp != nil {
		var msgs []string
		for _, c := range cells {
			if len(msgs) == 0 || msgs[len(msgs)-1] != c.msg {
				msgs = append(msgs, c.msg)
			}
		}
		sp.Str("arch", ar.Name)
		sp.Str("message", strings.Join(msgs, ","))
		sp.Int("cells", int64(len(cells)))
	}
	ps, err := a.prepare(ctx, ar, cells)
	if err != nil {
		return nil, err
	}
	if sp != nil {
		labels, _, _ := distinctLabels(ps)
		sp.Int("labels", int64(len(labels)))
	}
	return a.AnalyzeCellsContext(ctx, ps)
}

// analyzeGrouped analyses cells grouped by structure key, one chain per
// group, on up to GOMAXPROCS workers, and returns the results in cell
// order. Progress on sp counts finished cells; it is emitted under the
// lock that counts them, so sinks see the count rise.
func (a Analyzer) analyzeGrouped(ctx context.Context, ar *arch.Architecture, cells []cell, sp *obs.Span) ([]*Result, error) {
	var groups [][]int
	byKey := make(map[string]int)
	for i, c := range cells {
		key := a.TransformOptions(c.cat, c.prot).StructureKey(c.msg)
		g, ok := byKey[key]
		if !ok {
			g = len(groups)
			byKey[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	out := make([]*Result, len(cells))
	var (
		mu   sync.Mutex
		done int64
	)
	run := func(ctx context.Context, g int) error {
		group := make([]cell, len(groups[g]))
		for k, i := range groups[g] {
			group[k] = cells[i]
		}
		rs, err := a.analyzeChain(ctx, ar, group)
		if err != nil {
			return err
		}
		for k, i := range groups[g] {
			out[i] = rs[k]
		}
		mu.Lock()
		defer mu.Unlock()
		done += int64(len(group))
		sp.Progress(done, int64(len(cells)))
		return nil
	}
	if err := forEach(ctx, len(groups), runtime.GOMAXPROCS(0), run); err != nil {
		return nil, err
	}
	return out, nil
}
