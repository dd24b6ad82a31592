// Package service turns the one-shot analysis pipeline into a resident,
// concurrent system: an Engine that executes analysis requests behind a
// two-level content-addressed cache (explored state spaces and solved
// results, both LRU-bounded and single-flight-deduplicated), and a Server
// that fronts the engine with an HTTP/JSON job API, a bounded worker pool,
// per-job run manifests and graceful shutdown. The cache keys are hashes of
// the canonical encodings the pipeline layers expose (arch.CanonicalJSON,
// transform.Options.Canonical and StructureKey, core.Analyzer.Canonical), so
// sweep-style traffic — many requests differing only in solver settings, or
// in cells that share a chain — re-solves a shared in-memory state space
// instead of re-exploring it.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/attacktree"
	"repro/internal/core"
	"repro/internal/csl"
	"repro/internal/fault"
	"repro/internal/modular"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/transform"
)

// requestMode is the shape of an analysis request.
type requestMode string

const (
	modeGrid     requestMode = "grid"     // full CIA × protection grid
	modeSingle   requestMode = "single"   // one category × protection cell
	modeProperty requestMode = "property" // CSL property check
	modeTree     requestMode = "tree"     // attack-tree analysis
)

// ErrBadRequest wraps all request validation failures (HTTP 400).
var ErrBadRequest = errors.New("service: bad request")

// ErrUnknownKind reports a request whose model kind this node cannot
// resolve — a typed 400 (error kind "unknown_model_kind"), so requests for
// model families introduced after this build fail cleanly instead of being
// misread as architecture analyses.
var ErrUnknownKind = errors.New("unknown model kind")

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// resolvedRequest is a validated, canonicalised AnalysisRequest.
type resolvedRequest struct {
	arch      *arch.Architecture
	archCanon []byte
	msg       string
	an        core.Analyzer
	mode      requestMode
	cat       transform.Category
	prot      transform.Protection
	property  string

	// Attack-tree requests (mode == modeTree); archCanon then holds the
	// tree's canonical JSON.
	tree     *attacktree.Tree
	treeOpts attacktree.CompileOptions
}

// key is the request's result-cache address, per mode.
func (rr *resolvedRequest) key() string {
	if rr.mode == modeTree {
		return treeResultKey(rr.archCanon, rr.treeOpts, rr.an, rr.property)
	}
	return resultKey(rr.archCanon, rr.msg, rr.an, rr.mode, rr.cat, rr.prot, rr.property)
}

// EngineOptions configures an Engine.
type EngineOptions struct {
	// ModelCacheSize bounds the explored-state-space cache (default 64
	// entries; these dominate memory). An entry also holds its chain's
	// solve memo (core.Prepared): at most one state vector, no more floats
	// of recorded terms than the chain has transitions, and one long-run
	// probability per label, so a fresh horizon on a cached model runs no
	// uniformisation products it has run before and no steady-state solve.
	ModelCacheSize int
	// ResultCacheSize bounds the solved-outcome cache (default 1024
	// entries; outcomes are small).
	ResultCacheSize int
	// ModelsDir resolves stored-model architecture references; empty
	// disables them.
	ModelsDir string
	// MaxStates / MaxTransitions cap the per-request exploration budgets: a
	// request may lower them but not raise or disable them (0 = the
	// library defaults, 5M states / 20M transitions). Violations surface as
	// modular.ErrBudgetExceeded, which the HTTP layer maps to 422.
	MaxStates      int
	MaxTransitions int
	// Store, when non-nil, is the disk-backed content-addressed result
	// store mounted write-through beneath the in-memory result cache:
	// every solved outcome is persisted, and a result-cache miss consults
	// the disk before invoking the solver — so a restarted engine answers
	// previously-seen requests without recomputing them.
	Store *store.Store
}

// Engine executes analysis requests against the core pipeline with
// content-addressed caching and single-flight deduplication. It is safe for
// concurrent use; the Server runs one Engine under its worker pool, and
// benchmarks drive it directly.
type Engine struct {
	models         *tier // modelKey → *core.Prepared (PrepareChainContext), treeModelKey → *treePrepared
	results        *tier // resultKey → *Outcome
	modelsDir      string
	maxStates      int
	maxTransitions int
	store          *store.Store // nil = no persistence tier

	// solves counts pipeline executions; diskHits and shared (with the
	// result cache's own hit counter) count requests served without one.
	// solves+misses in the result cache differ only when single-flight
	// collapses concurrent identical requests or the disk tier answers a
	// miss.
	solves   int64
	diskHits int64
	shared   int64

	// run executes one resolved request; tests substitute it to model slow
	// or blocking jobs without heavy computation.
	run func(ctx context.Context, rr *resolvedRequest) (*Outcome, error)
}

// NewEngine returns a ready engine.
func NewEngine(opts EngineOptions) *Engine {
	if opts.ModelCacheSize <= 0 {
		opts.ModelCacheSize = 64
	}
	if opts.ResultCacheSize <= 0 {
		opts.ResultCacheSize = 1024
	}
	e := &Engine{
		models:         newTier("model", opts.ModelCacheSize),
		results:        newTier("result", opts.ResultCacheSize),
		modelsDir:      opts.ModelsDir,
		maxStates:      opts.MaxStates,
		maxTransitions: opts.MaxTransitions,
		store:          opts.Store,
	}
	e.run = e.analyze
	return e
}

// EngineStats is the engine's /v1/metrics contribution.
type EngineStats struct {
	// Solves is the number of full pipeline executions; Hits were served
	// from the result cache, DiskHits from the persistent store, and
	// Shared joined an in-flight identical solve.
	Solves      int64      `json:"solves"`
	Hits        int64      `json:"hits"`
	DiskHits    int64      `json:"disk_hits,omitempty"`
	Shared      int64      `json:"shared"`
	ModelCache  CacheStats `json:"model_cache"`
	ResultCache CacheStats `json:"result_cache"`
	// Store reports the persistent tier (nil when no store is mounted).
	Store *store.Stats `json:"store,omitempty"`
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() EngineStats {
	rc := e.results.Stats()
	s := EngineStats{
		Solves:      atomic.LoadInt64(&e.solves),
		Hits:        rc.Hits,
		DiskHits:    atomic.LoadInt64(&e.diskHits),
		Shared:      atomic.LoadInt64(&e.shared),
		ModelCache:  e.models.Stats(),
		ResultCache: rc,
	}
	if e.store != nil {
		st := e.store.Stats()
		s.Store = &st
	}
	return s
}

// Validate resolves the request without executing it, returning
// ErrBadRequest-wrapped errors suitable for HTTP 400 responses.
func (e *Engine) Validate(req *AnalysisRequest) error {
	_, err := e.resolve(req)
	return err
}

// Run resolves and executes one request: result-cache lookup first, then a
// single-flight disk-store probe, then the solve. The returned CacheState
// reports which path served the outcome.
func (e *Engine) Run(ctx context.Context, req *AnalysisRequest) (*Outcome, CacheState, error) {
	rr, err := e.resolve(req)
	if err != nil {
		return nil, "", err
	}
	if fault.Should(fault.PointCacheEvictAll) {
		e.models.Purge()
		e.results.Purge()
		obs.Count(ctx, "service.cache.evicted_all", 1)
	}
	rkey := rr.key()
	disk := false
	v, state, err := e.results.get(ctx, rkey, func() (any, error) {
		// The disk probe happens inside the flight so concurrent identical
		// requests share one read — and one solve if it misses.
		if out, ok := e.storeGet(ctx, rkey); ok {
			atomic.AddInt64(&e.diskHits, 1)
			disk = true
			return out, nil
		}
		atomic.AddInt64(&e.solves, 1)
		return e.safeRun(ctx, rr)
	})
	if state == CacheShared {
		atomic.AddInt64(&e.shared, 1)
		obs.Count(ctx, "service.singleflight.shared", 1)
	}
	if err != nil {
		return nil, state, err
	}
	out := v.(*Outcome)
	switch {
	case disk:
		state = CacheDisk
	case state == CacheMiss:
		e.storePut(ctx, rkey, out)
	}
	return out, state, nil
}

// storeGet consults the persistent tier for a previously-solved outcome. A
// checksum-valid envelope whose payload no longer decodes as an Outcome
// (schema drift between releases) is quarantined and treated as a miss.
func (e *Engine) storeGet(ctx context.Context, key string) (*Outcome, bool) {
	if e.store == nil {
		return nil, false
	}
	payload, ok := e.store.Get(key)
	if !ok {
		obs.Count(ctx, "service.store.miss", 1)
		return nil, false
	}
	var out Outcome
	if err := json.Unmarshal(payload, &out); err != nil {
		e.store.Quarantine(key, "payload does not decode as service.Outcome: "+err.Error())
		obs.Count(ctx, "service.store.miss", 1)
		return nil, false
	}
	obs.Count(ctx, "service.store.hit", 1)
	return &out, true
}

// storePut writes a solved outcome through to the persistent tier. Disk
// trouble degrades persistence, never the request: the outcome was already
// published to the in-memory cache.
func (e *Engine) storePut(ctx context.Context, key string, out *Outcome) {
	if e.store == nil {
		return
	}
	payload, err := json.Marshal(out)
	if err != nil {
		obs.Count(ctx, "service.store.put_error", 1)
		return
	}
	if err := e.store.Put(key, payload); err != nil {
		obs.Count(ctx, "service.store.put_error", 1)
		obs.LogAttrs(ctx, "store.put.failed",
			obs.Attr{Key: "error", Kind: obs.KindString, Str: err.Error()})
		return
	}
	obs.Count(ctx, "service.store.put", 1)
}

// Fingerprint returns the request's canonical content address: the hex
// result-cache key over the canonical encodings of the architecture,
// message, solver settings and request shape. Two requests with the same
// fingerprint are the same analysis regardless of field order or defaulted
// fields — the identity the slow-analysis log records so outliers can be
// grouped and replayed.
func (e *Engine) Fingerprint(req *AnalysisRequest) (string, error) {
	rr, err := e.resolve(req)
	if err != nil {
		return "", err
	}
	return rr.key(), nil
}

// safeRun wraps the substitutable run hook with the solve-path fault
// points and panic recovery. Recovering here — inside the single-flight
// leader — matters twice over: the worker goroutine survives, and a panic
// escaping the flight function would otherwise leave every waiter parked
// on the flight's done channel forever.
func (e *Engine) safeRun(ctx context.Context, rr *resolvedRequest) (out *Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			obs.Count(ctx, "service.panic.recovered", 1)
			out = nil
			err = &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	fault.Crash(fault.PointWorkerPanic)
	if fault.Sleep(ctx, fault.PointSolveSlow) {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
	}
	return e.run(ctx, rr)
}

// analyze is the real pipeline execution behind Run.
func (e *Engine) analyze(ctx context.Context, rr *resolvedRequest) (*Outcome, error) {
	switch rr.mode {
	case modeTree:
		return e.analyzeTree(ctx, rr)
	case modeProperty, modeSingle:
		p, err := e.prepared(ctx, rr, rr.cat, rr.prot)
		if err != nil {
			return nil, err
		}
		if rr.mode == modeProperty {
			return checkProperty(ctx, p.Transform.Model, p.Explored, rr)
		}
		r, err := rr.an.AnalyzePreparedContext(ctx, p)
		if err != nil {
			return nil, err
		}
		return &Outcome{Results: []AnalysisResult{toAnalysisResult(r)}}, nil
	default: // modeGrid
		return e.analyzeGrid(ctx, rr)
	}
}

// analyzeGrid solves the category × protection grid with one model-cache
// entry and one grouped solve per chain.
func (e *Engine) analyzeGrid(ctx context.Context, rr *resolvedRequest) (*Outcome, error) {
	type group struct {
		cells []*core.Prepared
		at    []int // grid positions of the cells
	}
	var groups []*group
	byKey := make(map[string]*group)
	n := 0
	for _, cat := range core.Categories {
		for _, prot := range core.Protections {
			key := modelKey(rr.archCanon, rr.msg, rr.an.TransformOptions(cat, prot))
			g := byKey[key]
			var (
				p   *core.Prepared
				err error
			)
			if g == nil {
				g = &group{}
				byKey[key] = g
				groups = append(groups, g)
				p, err = e.prepared(ctx, rr, cat, prot)
			} else {
				p, err = g.cells[0].Cell(cat, prot)
			}
			if err != nil {
				return nil, err
			}
			g.cells = append(g.cells, p)
			g.at = append(g.at, n)
			n++
		}
	}
	out := &Outcome{Results: make([]AnalysisResult, n)}
	for _, g := range groups {
		rs, err := rr.an.AnalyzeCellsContext(ctx, g.cells)
		if err != nil {
			return nil, err
		}
		for k, r := range rs {
			out.Results[g.at[k]] = toAnalysisResult(r)
		}
	}
	return out, nil
}

// prepared returns cell (cat, prot) of the cached chain its structure keys,
// building the chain with every cell it serves on a miss.
func (e *Engine) prepared(ctx context.Context, rr *resolvedRequest, cat transform.Category, prot transform.Protection) (*core.Prepared, error) {
	key := modelKey(rr.archCanon, rr.msg, rr.an.TransformOptions(cat, prot))
	v, err := e.model(ctx, rr.an, key, func() (any, error) {
		return rr.an.PrepareChainContext(ctx, rr.arch, rr.msg, cat, prot)
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Prepared).Cell(cat, prot)
}

// model returns the explored model cached under key, building it on a
// miss, after checking it against the request's exploration budgets. Every
// model kind goes through it: architecture chains (*core.Prepared) and
// attack trees (*treePrepared).
func (e *Engine) model(ctx context.Context, an core.Analyzer, key string, build func() (any, error)) (any, error) {
	v, _, err := e.models.get(ctx, key, build)
	if err != nil {
		return nil, err
	}
	var (
		m  *modular.Model
		ex *modular.Explored
	)
	switch p := v.(type) {
	case *core.Prepared:
		m, ex = p.Transform.Model, p.Explored
	case *treePrepared:
		m, ex = p.compiled.Model, p.explored
	}
	if err := withinBudget(ctx, m, ex, an); err != nil {
		return nil, err
	}
	return v, nil
}

// withinBudget returns the error a cold exploration of m under the
// request's budgets gives, for a chain ex explored earlier under looser
// ones: m is re-explored under those budgets, which stops the exploration
// at the bound, so the request fails exactly as it would on a cold engine.
func withinBudget(ctx context.Context, m *modular.Model, ex *modular.Explored, an core.Analyzer) error {
	if (an.MaxStates > 0 && ex.N() > an.MaxStates) ||
		(an.MaxTransitions > 0 && ex.Chain.Rates.NNZ() > an.MaxTransitions) {
		_, err := m.ExploreContext(ctx, modular.ExploreOpts{MaxStates: an.MaxStates, MaxTransitions: an.MaxTransitions})
		return err
	}
	return nil
}

// checkCSL parses query against model m and checks it on ex.
func checkCSL(ctx context.Context, m *modular.Model, ex *modular.Explored, an core.Analyzer, query string) (csl.Result, error) {
	prop, err := csl.Parse(query, csl.Environment{Model: m})
	if err != nil {
		return csl.Result{}, badRequestf("property: %v", err)
	}
	checker := csl.NewChecker(ex)
	checker.Accuracy = an.Accuracy
	return checker.CheckContext(ctx, prop)
}

// checkProperty answers a property request on model m explored as ex.
func checkProperty(ctx context.Context, m *modular.Model, ex *modular.Explored, rr *resolvedRequest) (*Outcome, error) {
	res, err := checkCSL(ctx, m, ex, rr.an, rr.property)
	if err != nil {
		return nil, err
	}
	return &Outcome{Property: &PropertyResult{
		Property:  rr.property,
		Value:     res.Value,
		Bounded:   res.Bounded,
		Satisfied: res.Satisfied,
	}}, nil
}

func toAnalysisResult(r *core.Result) AnalysisResult {
	out := AnalysisResult{
		Architecture:    r.Architecture,
		Message:         r.Message,
		Category:        r.Category.String(),
		Protection:      r.Protection.String(),
		ExploitableTime: r.TimeFraction,
		States:          r.States,
		Transitions:     r.Transitions,
		LumpedStates:    r.LumpedStates,
		BuildSeconds:    r.BuildTime.Seconds(),
		CheckSeconds:    r.CheckTime.Seconds(),
	}
	if !math.IsNaN(r.SteadyState) {
		s := r.SteadyState
		out.SteadyState = &s
	}
	return out
}

// resolve validates the request and canonicalises it into the content-
// addressable form the caches key on.
func (e *Engine) resolve(req *AnalysisRequest) (*resolvedRequest, error) {
	if req == nil {
		return nil, badRequestf("empty request")
	}
	switch req.Kind {
	case "", KindArchitecture:
	case KindAttackTree:
		return e.resolveTree(req)
	default:
		return nil, fmt.Errorf("%w: %w %q (supported: %s, %s)",
			ErrBadRequest, ErrUnknownKind, req.Kind, KindArchitecture, KindAttackTree)
	}
	if len(req.Countermeasures) > 0 {
		return nil, badRequestf("countermeasures apply to attack-tree requests only")
	}
	a, err := e.resolveArchitecture(req)
	if err != nil {
		return nil, err
	}
	canon, err := a.CanonicalJSON()
	if err != nil {
		return nil, badRequestf("architecture: %v", err)
	}
	msg := req.Message
	if msg == "" {
		msg = arch.MessageM
	}
	if a.Message(msg) == nil {
		return nil, badRequestf("architecture %s has no message %q", a.Name, msg)
	}
	if req.NMax < 0 || req.NMax > maxNMax {
		return nil, badRequestf("nmax %d outside [0, %d]", req.NMax, maxNMax)
	}
	if err := checkBounds(req); err != nil {
		return nil, err
	}
	rr := &resolvedRequest{
		arch:      a,
		archCanon: canon,
		msg:       msg,
		an: e.budgeted(req, core.Analyzer{
			NMax:            req.NMax,
			Horizon:         req.Horizon,
			SkipSteadyState: req.SkipSteadyState,
			UseLumping:      req.UseLumping,
		}),
		property: req.Property,
	}
	haveCat := req.Category != ""
	haveProt := req.Protection != ""
	if haveCat {
		if rr.cat, err = transform.ParseCategory(req.Category); err != nil {
			return nil, badRequestf("%v", err)
		}
	}
	if haveProt {
		if rr.prot, err = transform.ParseProtection(req.Protection); err != nil {
			return nil, badRequestf("%v", err)
		}
	}
	if haveCat != haveProt {
		return nil, badRequestf("category and protection must be given together (or both omitted)")
	}
	switch {
	case req.Property != "":
		// Property checks default to confidentiality/unencrypted when the
		// cell is unspecified; the property itself addresses the labels.
		rr.mode = modeProperty
		// Reject malformed properties at submission; resolution of names
		// against the model still happens at check time.
		if err := csl.CheckSyntax(req.Property); err != nil {
			return nil, badRequestf("property: %v", err)
		}
	case haveCat && haveProt:
		rr.mode = modeSingle
	default:
		rr.mode = modeGrid
	}
	return rr, nil
}

// Request sanity bounds: nmax beyond 8 or horizons beyond 1000 years are
// state-space explosions or numeric nonsense, not analyses.
const (
	maxNMax    = 8
	maxHorizon = 1000
)

// checkBounds rejects the request fields every model kind bounds alike.
func checkBounds(req *AnalysisRequest) error {
	if req.Horizon < 0 || req.Horizon > maxHorizon {
		return badRequestf("horizon %g outside [0, %g]", req.Horizon, float64(maxHorizon))
	}
	if req.TimeoutSeconds < 0 || req.WaitSeconds < 0 {
		return badRequestf("negative timeout or wait")
	}
	if req.MaxStates < 0 || req.MaxTransitions < 0 {
		return badRequestf("negative state or transition budget")
	}
	return nil
}

// budgeted sets an's exploration budgets to the request's, clamped to the
// server caps.
func (e *Engine) budgeted(req *AnalysisRequest, an core.Analyzer) core.Analyzer {
	an.MaxStates = clampBudget(req.MaxStates, e.maxStates)
	an.MaxTransitions = clampBudget(req.MaxTransitions, e.maxTransitions)
	return an
}

// clampBudget resolves a request's exploration budget against the server
// cap: a request may lower the cap but not raise or disable it.
func clampBudget(requested, cap int) int {
	if cap > 0 && (requested <= 0 || requested > cap) {
		return cap
	}
	return requested
}

// resolveArchitecture returns a built-in architecture, or the request's
// document through loadModel.
func (e *Engine) resolveArchitecture(req *AnalysisRequest) (*arch.Architecture, error) {
	if len(req.Inline) == 0 {
		switch req.Architecture {
		case "builtin:1":
			return arch.Architecture1(), nil
		case "builtin:2":
			return arch.Architecture2(), nil
		case "builtin:3":
			return arch.Architecture3(), nil
		}
	}
	return loadModel(e, req, "architecture", "model", arch.FromJSON, arch.LoadFile)
}

// loadModel reads the request's model document of kind what: inline bytes
// through parse, or the stored model req.Architecture names in the models
// directory through load. stored names the kind in a load failure.
func loadModel[T any](e *Engine, req *AnalysisRequest, what, stored string, parse func([]byte) (T, error), load func(string) (T, error)) (T, error) {
	var zero T
	if len(req.Inline) > 0 {
		if req.Architecture != "" {
			return zero, badRequestf("architecture and inline are mutually exclusive")
		}
		m, err := parse(req.Inline)
		if err != nil {
			return zero, badRequestf("inline %s: %v", what, err)
		}
		return m, nil
	}
	name := req.Architecture
	if name == "" {
		return zero, badRequestf("no %s given", what)
	}
	if e.modelsDir == "" {
		return zero, badRequestf("unknown %s %q (no models directory configured)", what, name)
	}
	if strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return zero, badRequestf("invalid stored-model name %q", name)
	}
	m, err := load(filepath.Join(e.modelsDir, name+".json"))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return zero, badRequestf("unknown %s %q", what, name)
		}
		return zero, badRequestf("stored %s %q: %v", stored, name, err)
	}
	return m, nil
}
