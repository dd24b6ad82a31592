package service

import (
	"context"
	"errors"
	"math"
	"time"

	"repro/internal/attacktree"
	"repro/internal/core"
	"repro/internal/csl"
	"repro/internal/modular"
	"repro/internal/obs"
)

// Model kinds accepted in AnalysisRequest.Kind.
const (
	KindArchitecture = "architecture"
	KindAttackTree   = "attack_tree"
)

// treePrepared is the cacheable compile+explore prefix of an attack-tree
// analysis — the tree-side analogue of core.Prepared.
type treePrepared struct {
	compiled  *attacktree.Compiled
	explored  *modular.Explored
	buildTime time.Duration
}

// resolveTree validates and canonicalises an attack-tree request. The tree
// arrives inline or as a stored model name (resolved against the same
// models directory as architectures, parsed as a tree document).
func (e *Engine) resolveTree(req *AnalysisRequest) (*resolvedRequest, error) {
	t, err := loadModel(e, req, "attack tree", "attack tree", attacktree.Parse, attacktree.LoadFile)
	if err != nil {
		return nil, err
	}
	canon, err := t.CanonicalJSON()
	if err != nil {
		return nil, badRequestf("attack tree: %v", err)
	}
	applied, err := t.NormalizeApplied(req.Countermeasures)
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	if req.Message != "" || req.Category != "" || req.Protection != "" {
		return nil, badRequestf("message, category and protection do not apply to attack-tree requests")
	}
	if req.NMax != 0 {
		return nil, badRequestf("nmax does not apply to attack-tree requests")
	}
	if err := checkBounds(req); err != nil {
		return nil, err
	}
	horizon := req.Horizon
	if horizon == 0 {
		horizon = 1
	}
	rr := &resolvedRequest{
		archCanon: canon,
		mode:      modeTree,
		tree:      t,
		treeOpts:  attacktree.CompileOptions{Applied: applied},
		property:  req.Property,
		an:        e.budgeted(req, core.Analyzer{Horizon: horizon, SkipSteadyState: true}), // no steady-state leg on the tree path
	}
	if req.Property != "" {
		if err := csl.CheckSyntax(req.Property); err != nil {
			return nil, badRequestf("property: %v", err)
		}
	}
	return rr, nil
}

// preparedTree returns the cached compile+explore prefix for a tree
// request, building it on a miss.
func (e *Engine) preparedTree(ctx context.Context, rr *resolvedRequest) (*treePrepared, error) {
	v, err := e.model(ctx, rr.an, treeModelKey(rr.archCanon, rr.treeOpts), func() (any, error) {
		start := time.Now()
		compiled, err := attacktree.Compile(rr.tree, rr.treeOpts)
		if err != nil {
			return nil, badRequestf("attack tree: %v", err)
		}
		ex, err := compiled.Model.ExploreContext(ctx, modular.ExploreOpts{
			MaxStates:      rr.an.MaxStates,
			MaxTransitions: rr.an.MaxTransitions,
		})
		if err != nil {
			return nil, err
		}
		return &treePrepared{compiled: compiled, explored: ex, buildTime: time.Since(start)}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*treePrepared), nil
}

// analyzeTree answers an attack-tree request: an explicit CSL property when
// given, else the synthesized top-event probability and MTTA queries.
func (e *Engine) analyzeTree(ctx context.Context, rr *resolvedRequest) (*Outcome, error) {
	ctx, sp := obs.Start(ctx, "service.tree")
	defer sp.End()
	p, err := e.preparedTree(ctx, rr)
	if err != nil {
		return nil, err
	}
	if rr.property != "" {
		return checkProperty(ctx, p.compiled.Model, p.explored, rr)
	}
	start := time.Now()
	top, err := checkCSL(ctx, p.compiled.Model, p.explored, rr.an, attacktree.TopEventQuery(rr.an.Horizon))
	if err != nil {
		return nil, err
	}
	tr := &TreeResult{
		Tree:                rr.tree.Name,
		Horizon:             rr.an.Horizon,
		TopEventProbability: top.Value,
		Countermeasures:     rr.treeOpts.Applied,
		Cost:                p.compiled.Cost,
		States:              p.explored.N(),
		Transitions:         p.explored.Chain.Rates.NNZ(),
		BuildSeconds:        p.buildTime.Seconds(),
	}
	// MTTA is infinite when the top event is unreachable (a countermeasure
	// that kills every path, or zero-rate leaves); the reward solve may
	// fail to converge or return a non-finite value — either way the MTTA
	// is simply omitted, not an error.
	if mtta, err := checkCSL(ctx, p.compiled.Model, p.explored, rr.an, attacktree.MTTAQuery()); err == nil && !math.IsInf(mtta.Value, 0) && !math.IsNaN(mtta.Value) {
		tr.MTTAYears = &mtta.Value
	} else if err != nil && (isContextErr(err) || errors.Is(err, modular.ErrBudgetExceeded)) {
		return nil, err
	}
	tr.CheckSeconds = time.Since(start).Seconds()
	sp.Int("states", int64(tr.States))
	return &Outcome{Tree: tr}, nil
}
