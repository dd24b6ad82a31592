package modular

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/ctmc"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// ErrStateSpaceLimit is returned when exploration exceeds the configured
// state budget.
var ErrStateSpaceLimit = errors.New("modular: state-space limit exceeded")

// ErrBudgetExceeded is the sentinel every exploration-budget violation
// matches — the typed guardrail a service maps to HTTP 422 so a runaway or
// hostile architecture fails fast instead of exhausting memory.
var ErrBudgetExceeded = errors.New("modular: state-space budget exceeded")

// BudgetError reports which exploration budget was hit.
type BudgetError struct {
	// Resource is "states" or "transitions".
	Resource string
	// Limit is the configured budget.
	Limit int
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("modular: exploration exceeded the %s budget (%d)", e.Resource, e.Limit)
}

// Is matches ErrBudgetExceeded, and keeps the pre-existing
// ErrStateSpaceLimit identity for state-budget violations.
func (e *BudgetError) Is(target error) bool {
	if target == ErrBudgetExceeded {
		return true
	}
	return target == ErrStateSpaceLimit && e.Resource == "states"
}

// ErrAssignConflict is returned when synchronised commands write the same
// variable.
var ErrAssignConflict = errors.New("modular: conflicting assignments in synchronised update")

// ErrRangeViolation is returned when an update drives a variable outside its
// declared range.
var ErrRangeViolation = errors.New("modular: update drives variable out of range")

// ExploreOpts configures state-space exploration.
type ExploreOpts struct {
	// MaxStates bounds the number of reachable states (default 5,000,000).
	MaxStates int
	// MaxTransitions bounds the number of transitions (default 20,000,000).
	// Dense models hit this long before the state budget. It is clamped to
	// linalg.MaxNNZ (2³¹−1), the most entries the rate CSR's int32 offsets
	// hold.
	MaxTransitions int
}

// budgets returns the state and transition budgets of opts: defaults for
// unset fields, clamped to what the state index and the rate CSR can
// number.
func (opts ExploreOpts) budgets() (maxStates, maxTransitions int) {
	maxStates = opts.MaxStates
	if maxStates <= 0 {
		maxStates = 5_000_000
	}
	maxTransitions = opts.MaxTransitions
	if maxTransitions <= 0 {
		maxTransitions = 20_000_000
	}
	return min(maxStates, maxIndexedStates), min(maxTransitions, linalg.MaxNNZ)
}

// Explored is the result of state-space exploration: the reachable states,
// the compiled CTMC over them, and evaluators for labels and rewards. A
// state is stored only as its packed key; State decodes its vector.
type Explored struct {
	Model *Model
	Chain *ctmc.Chain
	keys  *stateIndex
}

// ExploreContext performs breadth-first exploration of the composed model
// from its initial state and compiles the result into a CTMC. A
// "modular.explore" span records the reachable state count, the transition
// count and the number of dedup hits (successors that were already known),
// plus periodic progress events while the frontier drains. Every 1024
// expanded states it polls ctx and, once ctx is done, returns ctx's error
// wrapped and no Explored.
//
// States are numbered in BFS order and stored only as packed keys
// (statekey.go). Expanding a state decodes its key once for the guards and
// rates, and writes each successor as the source key with only its assigned
// variables rewritten. Each state's outgoing row is sorted, merged and
// appended to the CSR as soon as the state is expanded, so exploration
// allocates only when one of its flat buffers grows.
func (m *Model) ExploreContext(ctx context.Context, opts ExploreOpts) (*Explored, error) {
	_, sp := obs.Start(ctx, "modular.explore")
	defer sp.End()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	maxStates, maxTransitions := opts.budgets()
	idx := newStateIndex(m.Vars)
	w := idx.layout.words
	st := m.InitState()
	key := make([]uint64, w)
	idx.layout.pack(st, key)
	_, slot := idx.find(key)
	idx.insert(slot, key)

	gen := m.newSuccessorGen(&idx.layout)
	rates := &linalg.CSR{RowPtr: []int32{0}}
	var exit linalg.Vector
	var row []rowEntry
	transitions, dedupHits := 0, 0
	for head := 0; head < idx.len(); head++ {
		src := idx.key(head)
		idx.layout.decode(src, st)
		if err := gen.successors(st, src); err != nil {
			return nil, fmt.Errorf("modular: exploring state %s: %w", m.FormatState(st), err)
		}
		row = row[:0]
		for k, rate := range gen.rates {
			next := gen.keys[k*w : (k+1)*w]
			to, slot := idx.find(next)
			if to < 0 {
				if idx.len() >= maxStates {
					return nil, &BudgetError{Resource: "states", Limit: maxStates}
				}
				to = idx.insert(slot, next)
			} else {
				dedupHits++
			}
			if transitions >= maxTransitions {
				return nil, &BudgetError{Resource: "transitions", Limit: maxTransitions}
			}
			transitions++
			row = append(row, rowEntry{to, rate})
		}
		e, err := appendRow(rates, head, row)
		if err != nil {
			return nil, err
		}
		exit = append(grow(exit, 1), e)
		if head%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("modular: exploration stopped after %d states: %w", head+1, err)
			}
			// Total is unknown until the frontier drains; report the
			// explored head against the current frontier size.
			if sp != nil {
				sp.Progress(int64(head), int64(idx.len()))
			}
		}
	}
	sp.Int("states", int64(idx.len()))
	sp.Int("transitions", int64(transitions))
	sp.Int("dedup_hits", int64(dedupHits))
	rates.Rows, rates.Cols = idx.len(), idx.len()
	return &Explored{Model: m, Chain: &ctmc.Chain{Rates: rates, Exit: exit}, keys: idx}, nil
}

// rowEntry is one raw transition of the row being built.
type rowEntry struct {
	to   int
	rate float64
}

// appendRow appends state from's outgoing transitions to the CSR, with the
// semantics of ctmc.Builder: rates must be finite and non-negative,
// self-loops are dropped, duplicate targets are summed (in generation
// order) and sums of zero are dropped. It returns the row's exit rate,
// summed in column order as linalg.CSR.RowSums does.
func appendRow(m *linalg.CSR, from int, row []rowEntry) (float64, error) {
	for _, e := range row {
		if e.rate < 0 || math.IsNaN(e.rate) || math.IsInf(e.rate, 0) {
			return 0, fmt.Errorf("%w: rate(%d→%d) = %v", ctmc.ErrBadRate, from, e.to, e.rate)
		}
	}
	// Stable insertion sort on the target: rows hold about a dozen entries,
	// and equal targets keep their generation order for the sums below.
	for i := 1; i < len(row); i++ {
		e, j := row[i], i
		for ; j > 0 && row[j-1].to > e.to; j-- {
			row[j] = row[j-1]
		}
		row[j] = e
	}
	m.ColIdx, m.Val = grow(m.ColIdx, len(row)), grow(m.Val, len(row))
	var exit float64
	for k := 0; k < len(row); {
		to, v := row[k].to, row[k].rate
		for k++; k < len(row) && row[k].to == to; k++ {
			v += row[k].rate
		}
		if to == from || v == 0 {
			continue
		}
		m.ColIdx = append(m.ColIdx, int32(to))
		m.Val = append(m.Val, v)
		exit += v
	}
	m.RowPtr = append(grow(m.RowPtr, 1), int32(len(m.Val)))
	return exit, nil
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it must reallocate. Past a few hundred elements append
// grows a slice by only about 1.25×, which copies a multi-megabyte key or
// CSR array four to five times over while it is built; doubling copies it
// about once.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, len(s)))
}

// syncAction is one synchronising action and the modules taking part in it.
type syncAction struct {
	name string
	mods []int
}

// syncActions returns the model's synchronising actions sorted by name, so
// successor order, and with it state numbering, is the same on every run.
func (m *Model) syncActions() []syncAction {
	byName := make(map[string][]int)
	for mi := range m.Modules {
		seen := make(map[string]bool)
		for _, c := range m.Modules[mi].Commands {
			if c.Action != "" && !seen[c.Action] {
				seen[c.Action] = true
				byName[c.Action] = append(byName[c.Action], mi)
			}
		}
	}
	out := make([]syncAction, 0, len(byName))
	for name, mods := range byName {
		out = append(out, syncAction{name, mods})
	}
	slices.SortFunc(out, func(a, b syncAction) int { return cmp.Compare(a.name, b.name) })
	return out
}

// compiledUpdate is an update with its expressions translated to closures.
type compiledUpdate struct {
	rate    func([]int) (float64, error)
	assigns []compiledAssign
}

type compiledAssign struct {
	varIdx int
	expr   EvalFunc
}

// compiledCommand caches closure forms of one command's guard and updates.
type compiledCommand struct {
	action  string
	guard   func([]int) (bool, error)
	updates []compiledUpdate
}

// compileCommands translates every command of every module into closure
// form once, so exploration does not re-walk expression trees per state.
func (m *Model) compileCommands() [][]compiledCommand {
	out := make([][]compiledCommand, len(m.Modules))
	for mi := range m.Modules {
		cmds := m.Modules[mi].Commands
		cc := make([]compiledCommand, len(cmds))
		for ci := range cmds {
			cmd := &cmds[ci]
			c := compiledCommand{action: cmd.Action, guard: CompileBool(cmd.Guard)}
			for _, u := range cmd.Updates {
				cu := compiledUpdate{rate: CompileNum(u.Rate)}
				for _, a := range u.Assigns {
					cu.assigns = append(cu.assigns, compiledAssign{varIdx: a.Var, expr: Compile(a.Expr)})
				}
				c.updates = append(c.updates, cu)
			}
			cc[ci] = c
		}
		out[mi] = cc
	}
	return out
}

// successorGen enumerates successors into buffers owned by one exploration:
// after successors(st, key), successor k has the packed key
// keys[k*words:(k+1)*words] and rate rates[k].
type successorGen struct {
	m        *Model
	layout   *keyLayout
	compiled [][]compiledCommand
	actions  []syncAction
	keys     []uint64
	rates    []float64
	written  []uint64 // bitset of variables assigned by the current update
	// Synchronised-action scratch: the enabled updates of participating
	// module d are enabled[bounds[d]:bounds[d+1]], pick[d] indexes the one
	// in the current combination and combo holds that combination.
	enabled []*compiledUpdate
	bounds  []int
	pick    []int
	combo   []*compiledUpdate
}

func (m *Model) newSuccessorGen(layout *keyLayout) *successorGen {
	return &successorGen{
		m:        m,
		layout:   layout,
		compiled: m.compileCommands(),
		actions:  m.syncActions(),
		written:  make([]uint64, (len(m.Vars)+63)/64),
	}
}

// successors enumerates all rate-weighted successor states of st, whose
// packed key is key.
func (g *successorGen) successors(st []int, key []uint64) error {
	g.keys, g.rates = g.keys[:0], g.rates[:0]
	// Asynchronous commands.
	for mi := range g.compiled {
		for ci := range g.compiled[mi] {
			cmd := &g.compiled[mi][ci]
			if cmd.action != "" {
				continue
			}
			enabled, err := cmd.guard(st)
			if err != nil {
				return err
			}
			if !enabled {
				continue
			}
			for ui := range cmd.updates {
				g.combo = append(g.combo[:0], &cmd.updates[ui])
				if err := g.applyUpdate(st, key, g.combo); err != nil {
					return err
				}
			}
		}
	}
	// Synchronised actions: cross product of enabled commands (and their
	// updates) over participating modules; rates multiply.
actions:
	for _, act := range g.actions {
		g.enabled, g.bounds = g.enabled[:0], append(g.bounds[:0], 0)
		for _, mi := range act.mods {
			for ci := range g.compiled[mi] {
				cmd := &g.compiled[mi][ci]
				if cmd.action != act.name {
					continue
				}
				enabled, err := cmd.guard(st)
				if err != nil {
					return err
				}
				if enabled {
					for ui := range cmd.updates {
						g.enabled = append(g.enabled, &cmd.updates[ui])
					}
				}
			}
			if len(g.enabled) == g.bounds[len(g.bounds)-1] {
				continue actions // a participant has nothing enabled
			}
			g.bounds = append(g.bounds, len(g.enabled))
		}
		// Odometer over the combinations, last module fastest.
		depth := len(act.mods)
		g.pick = append(g.pick[:0], make([]int, depth)...)
		g.combo = append(g.combo[:0], make([]*compiledUpdate, depth)...)
		for {
			for d := range g.pick {
				g.combo[d] = g.enabled[g.bounds[d]+g.pick[d]]
			}
			if err := g.applyUpdate(st, key, g.combo); err != nil {
				return err
			}
			d := depth - 1
			for ; d >= 0; d-- {
				if g.pick[d]++; g.bounds[d]+g.pick[d] < g.bounds[d+1] {
					break
				}
				g.pick[d] = 0
			}
			if d < 0 {
				break
			}
		}
	}
	return nil
}

// applyUpdate evaluates the combined updates in state st, multiplying rates
// and merging assignments, and appends the successor to the buffers unless
// its rate is zero. The successor's key starts as key, the source's, and
// each assignment rewrites only its variable's bits once its write-conflict
// and range checks have passed.
func (g *successorGen) applyUpdate(st []int, key []uint64, updates []*compiledUpdate) error {
	rate := 1.0
	base := len(g.keys)
	g.keys = append(g.keys, key...)
	next := g.keys[base:]
	clear(g.written)
	for _, u := range updates {
		r, err := u.rate(st)
		if err != nil {
			return err
		}
		if r < 0 {
			return fmt.Errorf("%w: rate %v", ctmc.ErrBadRate, r)
		}
		rate *= r
		for _, a := range u.assigns {
			word, bit := a.varIdx/64, uint64(1)<<(a.varIdx%64)
			if g.written[word]&bit != 0 {
				return fmt.Errorf("%w: variable %q", ErrAssignConflict, g.m.Vars[a.varIdx].Name)
			}
			g.written[word] |= bit
			v, err := a.expr(st)
			if err != nil {
				return err
			}
			var iv int
			switch v.Kind {
			case KindInt:
				iv = v.I
			case KindBool:
				if v.B {
					iv = 1
				}
			default:
				return fmt.Errorf("%w: assignment to %q must be int or bool, got %s", ErrType, g.m.Vars[a.varIdx].Name, v.Kind)
			}
			if !g.layout.set(next, a.varIdx, iv) {
				d := g.m.Vars[a.varIdx]
				return fmt.Errorf("%w: %q := %d outside [%d..%d]", ErrRangeViolation, d.Name, iv, d.Min, d.Max)
			}
		}
	}
	if rate == 0 {
		g.keys = g.keys[:base]
		return nil
	}
	g.rates = append(g.rates, rate)
	return nil
}

// WithModel returns a view of the explored state space whose labels and
// rewards resolve against m, a model sharing e.Model's variables and
// commands (one from Relabel). The chain and the state index are shared.
func (e *Explored) WithModel(m *Model) *Explored {
	v := *e
	v.Model = m
	return &v
}

// N returns the number of reachable states.
func (e *Explored) N() int { return e.keys.len() }

// State decodes the vector of state i into st, reusing its storage when it
// has room, and returns it.
func (e *Explored) State(i int, st []int) []int {
	st = slices.Grow(st[:0], len(e.keys.layout.fields))[:len(e.keys.layout.fields)]
	e.keys.layout.decode(e.keys.key(i), st)
	return st
}

// InitIndex returns the index of the initial state (always 0).
func (e *Explored) InitIndex() int { return 0 }

// InitDistribution returns the point distribution on the initial state.
func (e *Explored) InitDistribution() linalg.Vector {
	d := linalg.NewVector(e.N())
	d[0] = 1
	return d
}

// ExprMask evaluates a boolean expression in every reachable state.
func (e *Explored) ExprMask(expr Expr) ([]bool, error) {
	f := CompileBool(expr)
	mask := make([]bool, e.N())
	var st []int
	for i := range mask {
		st = e.State(i, st)
		b, err := f(st)
		if err != nil {
			return nil, fmt.Errorf("modular: evaluating %s in state %s: %w", expr, e.Model.FormatState(st), err)
		}
		mask[i] = b
	}
	return mask, nil
}

// LabelMask evaluates a named label in every reachable state.
func (e *Explored) LabelMask(name string) ([]bool, error) {
	expr, ok := e.Model.Labels[name]
	if !ok {
		return nil, fmt.Errorf("modular: unknown label %q", name)
	}
	return e.ExprMask(expr)
}

// RewardVector evaluates a named reward structure in every reachable state.
func (e *Explored) RewardVector(name string) (linalg.Vector, error) {
	items, ok := e.Model.Rewards[name]
	if !ok {
		return nil, fmt.Errorf("modular: unknown reward structure %q", name)
	}
	guards := make([]func([]int) (bool, error), len(items))
	values := make([]func([]int) (float64, error), len(items))
	for k, item := range items {
		guards[k], values[k] = CompileBool(item.Guard), CompileNum(item.Value)
	}
	r := linalg.NewVector(e.N())
	var st []int
	for i := range r {
		st = e.State(i, st)
		for k := range items {
			g, err := guards[k](st)
			if err != nil {
				return nil, err
			}
			if !g {
				continue
			}
			f, err := values[k](st)
			if err != nil {
				return nil, err
			}
			r[i] += f
		}
	}
	return r, nil
}

// StateIndex looks up a state vector, returning -1 when unreachable. It
// allocates nothing for keys of up to four words and is safe for
// concurrent use.
func (e *Explored) StateIndex(st []int) int {
	return e.keys.lookup(st)
}

// FormatState renders a state vector as "(name=value, ...)".
func (m *Model) FormatState(st []int) string {
	out := "("
	for i, d := range m.Vars {
		if i > 0 {
			out += ", "
		}
		if d.IsBool {
			if st[i] != 0 {
				out += d.Name + "=true"
			} else {
				out += d.Name + "=false"
			}
		} else {
			out += fmt.Sprintf("%s=%d", d.Name, st[i])
		}
	}
	return out + ")"
}
