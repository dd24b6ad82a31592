package modular

import (
	"errors"
	"fmt"
	"maps"
	"slices"
)

// VarDecl declares a bounded integer or boolean state variable. Booleans
// are stored as integers in {0, 1}.
type VarDecl struct {
	Name     string
	Module   string // owning module, informational (used by the exporter)
	Min, Max int
	Init     int
	IsBool   bool
}

// Assign sets variable Var (by index) to the value of Expr in the successor
// state.
type Assign struct {
	Var  int
	Expr Expr
}

// Update is one rate-weighted outcome of a command.
type Update struct {
	Rate    Expr
	Assigns []Assign
}

// Command is a guarded command: when Guard holds, each Update contributes a
// transition at its rate. Action names synchronise commands across modules
// (rates multiply, PRISM CTMC semantics); the empty action is asynchronous.
type Command struct {
	Action  string
	Guard   Expr
	Updates []Update
}

// Module groups commands; module boundaries matter only for synchronisation
// and export.
type Module struct {
	Name     string
	Commands []Command
}

// Reward is a state-reward definition: Value accrues per unit time in states
// satisfying Guard.
type Reward struct {
	Guard Expr
	Value Expr
}

// Model is a composed CTMC specification.
type Model struct {
	Name    string
	Vars    []VarDecl
	Modules []Module
	Labels  map[string]Expr
	Rewards map[string][]Reward
	varIdx  map[string]int
}

// NewModel returns an empty model.
func NewModel(name string) *Model {
	return &Model{
		Name:    name,
		Labels:  make(map[string]Expr),
		Rewards: make(map[string][]Reward),
		varIdx:  make(map[string]int),
	}
}

// ErrDuplicateVar reports a variable declared twice.
var ErrDuplicateVar = errors.New("modular: duplicate variable")

// ErrUnknownVar reports a reference to an undeclared variable.
var ErrUnknownVar = errors.New("modular: unknown variable")

// AddVar declares a state variable and returns a reference expression for
// it.
func (m *Model) AddVar(d VarDecl) (VarRef, error) {
	if _, dup := m.varIdx[d.Name]; dup {
		return VarRef{}, fmt.Errorf("%w: %q", ErrDuplicateVar, d.Name)
	}
	if d.IsBool {
		d.Min, d.Max = 0, 1
	}
	if d.Min > d.Max {
		return VarRef{}, fmt.Errorf("modular: variable %q has empty range [%d..%d]", d.Name, d.Min, d.Max)
	}
	if d.Init < d.Min || d.Init > d.Max {
		return VarRef{}, fmt.Errorf("modular: variable %q init %d outside [%d..%d]", d.Name, d.Init, d.Min, d.Max)
	}
	idx := len(m.Vars)
	m.Vars = append(m.Vars, d)
	m.varIdx[d.Name] = idx
	return VarRef{Index: idx, Name: d.Name, IsBool: d.IsBool}, nil
}

// Var returns the reference for a declared variable.
func (m *Model) Var(name string) (VarRef, error) {
	idx, ok := m.varIdx[name]
	if !ok {
		return VarRef{}, fmt.Errorf("%w: %q", ErrUnknownVar, name)
	}
	d := m.Vars[idx]
	return VarRef{Index: idx, Name: d.Name, IsBool: d.IsBool}, nil
}

// AddModule appends a module and returns a pointer for adding commands.
func (m *Model) AddModule(name string) *Module {
	m.Modules = append(m.Modules, Module{Name: name})
	return &m.Modules[len(m.Modules)-1]
}

// AddCommand appends a command to the module.
func (mod *Module) AddCommand(c Command) {
	mod.Commands = append(mod.Commands, c)
}

// SetLabel defines (or replaces) a named boolean label.
func (m *Model) SetLabel(name string, e Expr) {
	m.Labels[name] = e
}

// AddReward appends a state reward to a named reward structure.
func (m *Model) AddReward(structure string, r Reward) {
	m.Rewards[structure] = append(m.Rewards[structure], r)
}

// Relabel returns a model named name that shares m's variables and
// commands but owns copies of its labels and reward structures, so labels
// and rewards set on it leave m untouched. Both must then be treated as
// read-only in their variables and commands; an exploration of either
// serves the other (see Explored.WithModel).
func (m *Model) Relabel(name string) *Model {
	c := *m
	c.Name = name
	c.Labels = maps.Clone(m.Labels)
	c.Rewards = make(map[string][]Reward, len(m.Rewards))
	for k, rs := range m.Rewards {
		c.Rewards[k] = slices.Clone(rs)
	}
	return &c
}

// InitState returns the initial state vector.
func (m *Model) InitState() []int {
	st := make([]int, len(m.Vars))
	for i, v := range m.Vars {
		st[i] = v.Init
	}
	return st
}

// Validate performs static checks: initial values within their declared
// ranges, variable indices in range, guards and rates evaluable in the
// initial state with the right types.
func (m *Model) Validate() error {
	for _, d := range m.Vars {
		if d.Init < d.Min || d.Init > d.Max {
			return fmt.Errorf("modular: variable %q init %d outside [%d..%d]", d.Name, d.Init, d.Min, d.Max)
		}
	}
	init := m.InitState()
	for mi := range m.Modules {
		mod := &m.Modules[mi]
		for ci := range mod.Commands {
			cmd := &mod.Commands[ci]
			g, err := cmd.Guard.Eval(init)
			if err != nil {
				return fmt.Errorf("modular: module %q command %d guard: %w", mod.Name, ci, err)
			}
			if _, err := g.Bool(); err != nil {
				return fmt.Errorf("modular: module %q command %d guard is not boolean: %w", mod.Name, ci, err)
			}
			for ui, u := range cmd.Updates {
				r, err := u.Rate.Eval(init)
				if err != nil {
					return fmt.Errorf("modular: module %q command %d update %d rate: %w", mod.Name, ci, ui, err)
				}
				if _, err := r.Num(); err != nil {
					return fmt.Errorf("modular: module %q command %d update %d rate not numeric: %w", mod.Name, ci, ui, err)
				}
				for _, a := range u.Assigns {
					if a.Var < 0 || a.Var >= len(m.Vars) {
						return fmt.Errorf("modular: module %q command %d assigns unknown variable index %d", mod.Name, ci, a.Var)
					}
				}
			}
		}
	}
	for name, e := range m.Labels {
		v, err := e.Eval(init)
		if err != nil {
			return fmt.Errorf("modular: label %q: %w", name, err)
		}
		if _, err := v.Bool(); err != nil {
			return fmt.Errorf("modular: label %q is not boolean: %w", name, err)
		}
	}
	return nil
}
