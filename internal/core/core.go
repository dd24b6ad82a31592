// Package core is the paper's contribution as a library: given an
// automotive architecture and a message stream, it quantifies the security
// of the message in terms of confidentiality, integrity and availability by
// transforming the architecture into a CTMC (internal/transform), model
// checking the exploitable-time reward property (internal/ctmc, Section 3.3
// of the paper), and reporting the percentage of a time horizon during which
// the message is exploitable. It also provides the architecture comparison
// of Figure 5 and the parameter explorations of Figure 6.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/csl"
	"repro/internal/obs"
	"repro/internal/transform"
)

// Analyzer bundles the analysis configuration. The zero value analyses with
// the paper's settings: nmax = 2, a one-year horizon, engine-default
// accuracy. Grid analyses (AnalyzeAllContext, CompareContext) solve an
// architecture's chains concurrently on up to GOMAXPROCS workers; each
// chain is explored and solved by one worker, so results are bitwise
// identical at any worker count.
type Analyzer struct {
	// NMax caps the per-interface exploit count (default 2).
	NMax int
	// Horizon is the property time bound in years (default 1).
	Horizon float64
	// Accuracy is the uniformisation truncation accuracy (0 = engine
	// default).
	Accuracy float64
	// MessagePatchRate optionally enables message-protection re-keying
	// (Eq. 10); the paper's case study leaves it 0.
	MessagePatchRate float64
	// LiteralPatchGuard / LinearPatchRates select the ablation variants
	// documented in DESIGN.md §4.
	LiteralPatchGuard bool
	LinearPatchRates  bool
	// MaxStates bounds exploration (0 = engine default).
	MaxStates int
	// MaxTransitions bounds the explored transition count (0 = engine
	// default). Together with MaxStates it guards long-lived processes
	// against runaway state spaces; violations unwrap to
	// modular.ErrBudgetExceeded.
	MaxTransitions int
	// SkipSteadyState omits the long-run probability (Result.SteadyState
	// reports NaN). Parameter sweeps enable this: they only consume the
	// time-fraction metric and extreme rates make the stationary solve the
	// dominant cost.
	SkipSteadyState bool
	// UseLumping analyses the ordinary-lumping quotient of the CTMC with
	// respect to the violated label — the state-merging optimisation the
	// paper proposes as future work (Sections 4.3 and 5). Results are
	// exact; Result.LumpedStates records the reduced size.
	UseLumping bool
	// IncludeReliability enables the combined security + reliability
	// analysis (paper future work): ECUs with configured failure/repair
	// rates gain hardware-failure state; see transform.Options.
	IncludeReliability bool
}

func (a Analyzer) withDefaults() Analyzer {
	if a.NMax <= 0 {
		a.NMax = 2
	}
	if a.Horizon <= 0 {
		a.Horizon = 1
	}
	return a
}

func (a Analyzer) options(cat transform.Category, prot transform.Protection) transform.Options {
	return transform.Options{
		NMax:               a.NMax,
		Category:           cat,
		Protection:         prot,
		MessagePatchRate:   a.MessagePatchRate,
		LiteralPatchGuard:  a.LiteralPatchGuard,
		LinearPatchRates:   a.LinearPatchRates,
		IncludeReliability: a.IncludeReliability,
	}
}

// TransformOptions returns the transform configuration the analyzer uses
// for one category × protection cell, with defaults applied — the
// model-side half of a content-addressed cache key (its Canonical string
// determines the generated model together with the architecture and
// message).
func (a Analyzer) TransformOptions(cat transform.Category, prot transform.Protection) transform.Options {
	return a.withDefaults().options(cat, prot)
}

// Canonical returns a stable encoding of the solver-side configuration —
// horizon, accuracy, state and transition bounds, steady-state and lumping
// switches — with
// defaults applied. Together with arch.(*Architecture).CanonicalJSON and
// transform.Options.Canonical it content-addresses a full analysis.
func (a Analyzer) Canonical() string {
	a = a.withDefaults()
	return fmt.Sprintf("horizon=%g&acc=%g&maxstates=%d&maxtrans=%d&steady=%t&lump=%t",
		a.Horizon, a.Accuracy, a.MaxStates, a.MaxTransitions, !a.SkipSteadyState, a.UseLumping)
}

// Result is one analysed (architecture, message, category, protection)
// combination.
type Result struct {
	Architecture string
	Message      string
	Category     transform.Category
	Protection   transform.Protection
	// TimeFraction is the expected fraction of the horizon during which the
	// message is exploitable — the paper's headline metric (multiply by 100
	// for the percentages of Figure 5).
	TimeFraction float64
	// SteadyState is the long-run probability of being in a violated state.
	SteadyState float64
	// States and Transitions describe the explored CTMC.
	States      int
	Transitions int
	// LumpedStates is the quotient size when UseLumping is enabled
	// (0 otherwise).
	LumpedStates int
	// BuildTime and CheckTime separate model construction from numerical
	// analysis. Cells analysed together on one chain (the grid entry
	// points, AnalyzeCellsContext) share both: each reports the chain's
	// whole build and solve time.
	BuildTime time.Duration
	CheckTime time.Duration
}

// Percent returns the time fraction as a percentage.
func (r *Result) Percent() float64 { return 100 * r.TimeFraction }

// AnalyzeContext runs the full pipeline for one category × protection
// combination under a "core.analyze" span (attributed with architecture,
// message, cell and label counts) covering the transform, explore and check
// phases, each of which appears as a child span in the trace. It is the
// one-cell case of the grid analyses, which open one such span per chain.
func (a Analyzer) AnalyzeContext(ctx context.Context, ar *arch.Architecture, msgName string, cat transform.Category, prot transform.Protection) (*Result, error) {
	rs, err := a.analyzeChain(ctx, ar, []cell{{msgName, cat, prot}})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// Categories lists the paper's three security principles in Figure 5 order.
var Categories = []transform.Category{
	transform.Confidentiality, transform.Integrity, transform.Availability,
}

// Protections lists the paper's three protection variants in Figure 5
// order.
var Protections = []transform.Protection{
	transform.Unencrypted, transform.CMAC128, transform.AES128,
}

// AnalyzeAllContext analyses every category × protection combination for
// one architecture (one column group of Figure 5), with per-chain progress
// events. The nine cells share two chains (with and without the
// message-protection variable), each explored and solved once, the two at
// the same time when GOMAXPROCS allows. Both workers emit through the same
// sinks (sinks are required to be concurrency-safe). A failure returns the
// first chain's error when both fail, and cancels the second chain when
// the first fails.
func (a Analyzer) AnalyzeAllContext(ctx context.Context, ar *arch.Architecture, msgName string) ([]*Result, error) {
	ctx, sp := obs.Start(ctx, "core.analyze_all")
	defer sp.End()
	sp.Str("arch", ar.Name)
	var cells []cell
	for _, cat := range Categories {
		for _, prot := range Protections {
			cells = append(cells, cell{msgName, cat, prot})
		}
	}
	return a.analyzeGrouped(ctx, ar, cells, sp)
}

// forEach executes run(ctx, 0..n-1) on up to workers goroutines, the
// caller being one of them, and returns the error of the lowest failing
// index, as the sequential order would. Each index runs under its own child
// of ctx: when index i fails or panics, the indices above i are cancelled
// (and those not yet started are skipped), so a later index does not
// outlive an earlier failure. A panic in run is re-raised on the caller
// once every worker has stopped.
func forEach(ctx context.Context, n, workers int, run func(context.Context, int) error) error {
	ctxs := make([]context.Context, n)
	cancels := make([]context.CancelFunc, n)
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(ctx)
	}
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	var (
		g      group
		mu     sync.Mutex
		next   int
		failed = n // lowest failing index so far
		err    error
	)
	fail := func(i int, e error) {
		mu.Lock()
		defer mu.Unlock()
		if i < failed {
			failed, err = i, e
			for _, cancel := range cancels[i+1:] {
				cancel()
			}
		}
	}
	work := func() {
		running := -1 // the index whose run has not returned
		defer func() {
			if running >= 0 { // run panicked; the panic goes on to group
				fail(running, nil)
			}
		}()
		for {
			mu.Lock()
			i := next
			if i >= failed {
				mu.Unlock()
				return
			}
			next++
			mu.Unlock()
			running = i
			e := run(ctxs[i], i)
			running = -1
			if e != nil {
				fail(i, e)
				return
			}
		}
	}
	for w := 1; w < min(workers, n); w++ {
		g.Go(work)
	}
	g.Run(work)
	g.Wait()
	return err
}

// group joins functions that run at the same time: Go starts one on a new
// goroutine, Run runs one on the caller, and Wait returns once all have
// returned. A panic is recovered where it happens and re-raised by Wait
// on the caller — the first added function's first — so a recover there
// (the service engine's) sees it as if the function had run on the
// caller's goroutine.
type group struct {
	wg     sync.WaitGroup
	panics []*any // one per function, in the order added
}

// Go runs f on a new goroutine.
func (g *group) Go(f func()) {
	p := g.slot()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		catch(p, f)
	}()
}

// Run runs f on the caller.
func (g *group) Run(f func()) { catch(g.slot(), f) }

func (g *group) slot() *any {
	p := new(any)
	g.panics = append(g.panics, p)
	return p
}

// Wait blocks until every function has returned and re-raises the first
// recorded panic.
func (g *group) Wait() {
	g.wg.Wait()
	for _, p := range g.panics {
		if *p != nil {
			panic(*p)
		}
	}
}

// catch runs f and records in p the value of a panic in it.
func catch(p *any, f func()) {
	defer func() { *p = recover() }()
	f()
}

// CompareContext analyses several architectures (the full Figure 5 grid).
// Cancellation aborts between (and, through the solver plumbing, within)
// the per-architecture grids.
func (a Analyzer) CompareContext(ctx context.Context, archs []*arch.Architecture, msgName string) ([]*Result, error) {
	var out []*Result
	for _, ar := range archs {
		rs, err := a.AnalyzeAllContext(ctx, ar, msgName)
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	return out, nil
}

// CheckPropertyContext model-checks an arbitrary CSL property against the
// transformed model, giving access to every state of each submodule
// ("our framework allows the definition of properties for any submodule",
// Section 1). The model labels violated/secure, exp_<ecu> and exp_bus_<bus>
// are available. The build, exploration and per-property check all nest
// under a "core.check_property" span.
func (a Analyzer) CheckPropertyContext(ctx context.Context, ar *arch.Architecture, msgName string, cat transform.Category, prot transform.Protection, property string) (csl.Result, error) {
	ctx, sp := obs.Start(ctx, "core.check_property")
	defer sp.End()
	if sp != nil {
		sp.Str("arch", ar.Name)
		sp.Str("property", property)
	}
	p, err := a.PrepareContext(ctx, ar, msgName, cat, prot)
	if err != nil {
		return csl.Result{}, err
	}
	prop, err := csl.Parse(property, csl.Environment{Model: p.Transform.Model})
	if err != nil {
		return csl.Result{}, err
	}
	checker := csl.NewChecker(p.Explored)
	checker.Accuracy = a.Accuracy
	return checker.CheckContext(ctx, prop)
}

// SweepParam selects which rate the parameter exploration varies.
type SweepParam int

// Sweepable parameters (Figure 6).
const (
	// SweepPatchRate varies the ECU's patching rate ϕ (Figure 6a).
	SweepPatchRate SweepParam = iota
	// SweepExploitRate varies one interface's exploitation rate η
	// (Figure 6b).
	SweepExploitRate
)

// SweepPoint is one point of a parameter exploration curve.
type SweepPoint struct {
	Rate         float64
	TimeFraction float64
}

// ErrSweepTarget reports a sweep over a nonexistent ECU or interface.
var ErrSweepTarget = errors.New("core: sweep target not found")

// SweepContext analyses the message while varying one rate of the named
// ECU (for SweepExploitRate, the interface on busName). Rates must be
// positive. The architecture is cloned per point; the input is never
// mutated. A "core.sweep" span carries one progress event per analysed rate
// point.
func (a Analyzer) SweepContext(ctx context.Context, ar *arch.Architecture, msgName string, cat transform.Category, prot transform.Protection,
	param SweepParam, ecuName, busName string, rates []float64) ([]SweepPoint, error) {
	ctx, sp := obs.Start(ctx, "core.sweep")
	defer sp.End()
	if sp != nil {
		sp.Str("arch", ar.Name)
		sp.Str("ecu", ecuName)
		sp.Int("points", int64(len(rates)))
	}
	if ar.ECU(ecuName) == nil {
		return nil, fmt.Errorf("%w: ECU %q", ErrSweepTarget, ecuName)
	}
	a.SkipSteadyState = true
	out := make([]SweepPoint, 0, len(rates))
	for _, rate := range rates {
		if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
			return nil, fmt.Errorf("core: sweep rate must be positive and finite, got %v", rate)
		}
		c := ar.Clone()
		e := c.ECU(ecuName)
		switch param {
		case SweepPatchRate:
			e.PatchRate = rate
		case SweepExploitRate:
			found := false
			for i := range e.Interfaces {
				if e.Interfaces[i].Bus == busName {
					e.Interfaces[i].ExploitRate = rate
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("%w: ECU %q has no interface on %q", ErrSweepTarget, ecuName, busName)
			}
		default:
			return nil, fmt.Errorf("core: unknown sweep parameter %d", param)
		}
		r, err := a.AnalyzeContext(ctx, c, msgName, cat, prot)
		if err != nil {
			return nil, fmt.Errorf("core: sweep at rate %v: %w", rate, err)
		}
		out = append(out, SweepPoint{Rate: rate, TimeFraction: r.TimeFraction})
		sp.Progress(int64(len(out)), int64(len(rates)))
	}
	return out, nil
}

// LogSpace returns n logarithmically spaced values over [lo, hi], the grid
// the paper's Figure 6 uses (0.1 … 8760 per year).
func LogSpace(lo, hi float64, n int) []float64 {
	if n <= 0 || lo <= 0 || hi <= lo {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := math.Log(hi / lo)
	for i := range out {
		out[i] = lo * math.Exp(ratio*float64(i)/float64(n-1))
	}
	return out
}

// ThresholdCrossing interpolates (log-linearly in the rate) where a
// monotone sweep crosses the given time-fraction threshold, returning the
// first crossing rate. It returns NaN if the curve never crosses.
func ThresholdCrossing(points []SweepPoint, threshold float64) float64 {
	for i := 1; i < len(points); i++ {
		a, b := points[i-1], points[i]
		fa, fb := a.TimeFraction-threshold, b.TimeFraction-threshold
		if fa == 0 {
			return a.Rate
		}
		if fa*fb < 0 {
			// Interpolate in log(rate).
			la, lb := math.Log(a.Rate), math.Log(b.Rate)
			t := fa / (fa - fb)
			return math.Exp(la + t*(lb-la))
		}
	}
	if len(points) > 0 && points[len(points)-1].TimeFraction == threshold {
		return points[len(points)-1].Rate
	}
	return math.NaN()
}
