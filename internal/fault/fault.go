// Package fault is a deterministic, seed-driven fault-injection registry
// for exercising the resilience paths of the analysis stack: solver
// fallback chains, worker panic isolation, retry/backoff and cache-loss
// behaviour. Production code asks Should/Crash/Sleep at named
// injection points; with no injector enabled every such call is a single
// atomic pointer load and allocates nothing, so the hooks can stay in the
// hot path permanently (the same zero-cost discipline internal/obs follows
// for disabled tracing).
//
// An injector is built from a textual spec — typically the -faults flag or
// the SECFAULTS environment variable — listing points and parameters:
//
//	worker.panic:n=2 solver.diverge:p=0.5 solve.slow:d=50ms,cache.evict-all:n=1:skip=3
//
// Points are separated by spaces or commas; parameters by ':'. Supported
// parameters: p=<prob> (firing probability, default 1), n=<count> (total
// firing budget, default unlimited), skip=<count> (eligible calls to pass
// before arming), d=<duration> (delay for sleeping points, default 100ms).
// Probabilistic decisions come from a rand.Rand seeded explicitly, so a
// chaos run is reproducible from its (spec, seed) pair.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Injection points wired into the analysis stack. Specs may name arbitrary
// points; these are the ones production code currently consults.
const (
	// PointSolverDiverge makes RobustSolve treat an attempt as a failed
	// iterative solve, exercising the fallback chain.
	PointSolverDiverge = "solver.diverge"
	// PointWorkerPanic panics inside the engine's solve path, exercising
	// worker panic isolation and job retry.
	PointWorkerPanic = "worker.panic"
	// PointCacheEvictAll drops every cached model and result before a solve,
	// exercising cold-path behaviour under cache loss.
	PointCacheEvictAll = "cache.evict-all"
	// PointSolveSlow sleeps inside the solve path, exercising timeouts and
	// queue pressure.
	PointSolveSlow = "solve.slow"
)

// DefaultDelay is the sleep applied by delaying points with no d= parameter.
const DefaultDelay = 100 * time.Millisecond

// point is the armed configuration and firing state of one injection point.
type point struct {
	prob  float64       // firing probability per eligible call
	limit int64         // total firing budget; < 0 = unlimited
	skip  int64         // eligible calls to pass before arming
	delay time.Duration // sleep duration for Sleep points

	calls int64 // eligible calls observed
	fired int64 // times the point fired
}

// Injector holds a parsed fault plan. All methods are safe for concurrent
// use; the firing decision for each call is serialised so the (spec, seed)
// pair yields a reproducible sequence under a deterministic call order.
type Injector struct {
	spec string

	mu     sync.Mutex
	rng    *rand.Rand
	points map[string]*point
}

// Parse builds an injector from a spec (see the package comment for the
// grammar) and a seed for its probabilistic decisions.
func Parse(spec string, seed int64) (*Injector, error) {
	in := &Injector{
		spec:   spec,
		rng:    rand.New(rand.NewSource(seed)),
		points: make(map[string]*point),
	}
	for _, entry := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' || r == '\n' }) {
		parts := strings.Split(entry, ":")
		name := parts[0]
		if name == "" {
			return nil, fmt.Errorf("fault: empty point name in %q", entry)
		}
		if _, dup := in.points[name]; dup {
			return nil, fmt.Errorf("fault: duplicate point %q", name)
		}
		p := &point{prob: 1, limit: -1, delay: DefaultDelay}
		for _, param := range parts[1:] {
			k, v, ok := strings.Cut(param, "=")
			if !ok {
				return nil, fmt.Errorf("fault: parameter %q of %q is not key=value", param, name)
			}
			switch k {
			case "p":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || f < 0 || f > 1 {
					return nil, fmt.Errorf("fault: %s: probability %q outside [0, 1]", name, v)
				}
				p.prob = f
			case "n":
				iv, err := strconv.ParseInt(v, 10, 64)
				if err != nil || iv < 0 {
					return nil, fmt.Errorf("fault: %s: bad firing budget %q", name, v)
				}
				p.limit = iv
			case "skip":
				iv, err := strconv.ParseInt(v, 10, 64)
				if err != nil || iv < 0 {
					return nil, fmt.Errorf("fault: %s: bad skip count %q", name, v)
				}
				p.skip = iv
			case "d":
				d, err := time.ParseDuration(v)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("fault: %s: bad delay %q", name, v)
				}
				p.delay = d
			default:
				return nil, fmt.Errorf("fault: %s: unknown parameter %q", name, k)
			}
		}
		in.points[name] = p
	}
	if len(in.points) == 0 {
		return nil, fmt.Errorf("fault: spec %q names no injection points", spec)
	}
	return in, nil
}

// Spec returns the spec the injector was parsed from.
func (in *Injector) Spec() string { return in.spec }

// fire records one eligible call at the point and decides whether it fires,
// returning the point's configured delay alongside.
func (in *Injector) fire(name string) (time.Duration, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.points[name]
	if p == nil {
		return 0, false
	}
	p.calls++
	if p.calls <= p.skip {
		return 0, false
	}
	if p.limit >= 0 && p.fired >= p.limit {
		return 0, false
	}
	if p.prob < 1 && in.rng.Float64() >= p.prob {
		return 0, false
	}
	p.fired++
	return p.delay, true
}

// PointStats reports one point's activity.
type PointStats struct {
	// Calls is the number of eligible calls observed at the point.
	Calls int64 `json:"calls"`
	// Fired is the number of times the point actually fired.
	Fired int64 `json:"fired"`
}

// Stats snapshots per-point call and firing counts.
func (in *Injector) Stats() map[string]PointStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]PointStats, len(in.points))
	for name, p := range in.points {
		out[name] = PointStats{Calls: p.calls, Fired: p.fired}
	}
	return out
}

// String renders the spec and firing counts, for logs.
func (in *Injector) String() string {
	stats := in.Stats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d/%d", name, stats[name].Fired, stats[name].Calls)
	}
	return b.String()
}

// active is the process-wide injector. The disabled state is a nil pointer,
// so every production-path check is one atomic load.
var active atomic.Pointer[Injector]

// Enable installs the injector process-wide (nil disables).
func Enable(in *Injector) {
	if in == nil {
		active.Store(nil)
		return
	}
	active.Store(in)
}

// Disable removes any active injector.
func Disable() { active.Store(nil) }

// Should reports whether the named point fires for this call. With no
// injector enabled it is a single atomic load, allocation-free.
func Should(name string) bool {
	in := active.Load()
	if in == nil {
		return false
	}
	_, fire := in.fire(name)
	return fire
}

// Crash panics when the named point fires — the injected-worker-panic hook.
func Crash(name string) {
	if Should(name) {
		panic("fault: injected panic at " + name)
	}
}

// sleeper abstracts the context for Sleep without importing context (keeps
// the package dependency-free for its zero-cost callers).
type sleeper interface {
	Done() <-chan struct{}
}

// Sleep blocks for the point's configured delay when it fires, waking early
// if ctx is done. It reports whether the point fired.
func Sleep(ctx sleeper, name string) bool {
	in := active.Load()
	if in == nil {
		return false
	}
	d, fire := in.fire(name)
	if !fire {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-t.C:
	case <-done:
	}
	return true
}
