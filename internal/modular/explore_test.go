package modular

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/ctmc"
)

// wideRing is a token ring over ring boolean variables plus one variable
// spanning the whole int range.
func wideRing(ring int) (*Model, error) {
	m := NewModel("wide")
	if _, err := m.AddVar(VarDecl{Name: "wide", Min: math.MinInt, Max: math.MaxInt, Init: -7}); err != nil {
		return nil, err
	}
	xs := make([]VarRef, ring)
	for i := range xs {
		init := 0
		if i == 0 {
			init = 1
		}
		var err error
		if xs[i], err = m.AddVar(VarDecl{Name: fmt.Sprintf("x%d", i), IsBool: true, Init: init}); err != nil {
			return nil, err
		}
	}
	mod := m.AddModule("ring")
	for i, x := range xs {
		y := xs[(i+1)%ring]
		mod.AddCommand(Command{
			Guard: x,
			Updates: []Update{{Rate: DoubleLit(float64(i + 1)), Assigns: []Assign{
				{Var: x.Index, Expr: BoolLit(false)},
				{Var: y.Index, Expr: BoolLit(true)},
			}}},
		})
	}
	return m, nil
}

// A token ring over 70 boolean variables plus one variable spanning the
// whole int range needs keys of three words; exploration and StateIndex
// must still tell every state apart.
func TestExploreWideKeys(t *testing.T) {
	const ring = 70
	m, err := wideRing(ring)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.ExploreContext(t.Context(), ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if words := ex.keys.layout.words; words != 3 {
		t.Fatalf("key words = %d, want 3", words)
	}
	if ex.N() != ring || ex.Chain.Rates.NNZ() != ring {
		t.Fatalf("states, transitions = %d, %d, want %d, %d", ex.N(), ex.Chain.Rates.NNZ(), ring, ring)
	}
	for i := range ex.N() {
		st := ex.State(i, nil)
		if got := ex.StateIndex(st); got != i {
			t.Fatalf("StateIndex(State(%d)) = %d", i, got)
		}
		// BFS from x0 moves the token one step per state.
		if st[0] != -7 || st[1+i] != 1 {
			t.Fatalf("state %d = %s, want the token on x%d", i, m.FormatState(st), i)
		}
	}
	// Two tokens is a valid vector but unreachable; a value outside its
	// range and a vector of the wrong length are not states at all.
	st := ex.State(0, nil)
	st[ring] = 1
	for _, probe := range [][]int{st, append([]int{0}, make([]int, ring)...), {-7, 2}, ex.State(0, nil)[:ring]} {
		if got := ex.StateIndex(probe); got != -1 {
			t.Fatalf("StateIndex(%v) = %d, want -1", probe, got)
		}
	}
	st = ex.State(0, nil)
	st[2] = 2
	if got := ex.StateIndex(st); got != -1 {
		t.Fatalf("StateIndex of an out-of-range bool = %d, want -1", got)
	}
}

// Non-finite rates fail exploration with ctmc.ErrBadRate, as ctmc.Builder
// does, whether or not the transition is a self-loop.
func TestExploreRejectsNonFiniteRates(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, selfLoop := range []bool{false, true} {
			m := NewModel("bad-rate")
			x, _ := m.AddVar(VarDecl{Name: "x", Min: 0, Max: 1})
			var assigns []Assign
			if !selfLoop {
				assigns = []Assign{{Var: x.Index, Expr: IntLit(1)}}
			}
			m.AddModule("m").AddCommand(Command{
				Guard:   Eq(x, IntLit(0)),
				Updates: []Update{{Rate: DoubleLit(rate), Assigns: assigns}},
			})
			_, err := m.ExploreContext(t.Context(), ExploreOpts{})
			if !errors.Is(err, ctmc.ErrBadRate) {
				t.Fatalf("rate %v (self-loop %v): err = %v, want ctmc.ErrBadRate", rate, selfLoop, err)
			}
		}
	}
}

// Self-loops are dropped and transitions to the same target are summed, in
// one command's updates and across commands.
func TestExploreMergesRow(t *testing.T) {
	m := NewModel("merge")
	x, _ := m.AddVar(VarDecl{Name: "x", Min: 0, Max: 2})
	to := func(v int) []Assign { return []Assign{{Var: x.Index, Expr: IntLit(v)}} }
	mod := m.AddModule("m")
	mod.AddCommand(Command{Guard: Eq(x, IntLit(0)), Updates: []Update{
		{Rate: DoubleLit(0.5), Assigns: to(2)},
		{Rate: DoubleLit(4), Assigns: nil}, // self-loop
		{Rate: DoubleLit(1), Assigns: to(1)},
		{Rate: DoubleLit(0.25), Assigns: to(2)},
	}})
	mod.AddCommand(Command{Guard: BoolLit(true), Updates: []Update{{Rate: DoubleLit(2), Assigns: to(1)}}})
	ex, err := m.ExploreContext(t.Context(), ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// BFS numbers x=2 before x=1 (first seen first).
	if ex.N() != 3 || ex.State(1, nil)[0] != 2 || ex.State(2, nil)[0] != 1 {
		t.Fatalf("%d states, state 1 = %v, state 2 = %v", ex.N(), ex.State(1, nil), ex.State(2, nil))
	}
	cols, vals := ex.Chain.Rates.Row(0)
	if fmt.Sprint(cols, vals) != "[1 2] [0.75 3]" || ex.Chain.Exit[0] != 3.75 {
		t.Fatalf("row 0 = %v %v, exit %v; want [1 2] [0.75 3], exit 3.75", cols, vals, ex.Chain.Exit[0])
	}
	// From x=1 and x=2 only the second command's move to x=1 is enabled:
	// a transition from x=2 and a dropped self-loop at x=1.
	if ex.Chain.Rates.NNZ() != 3 || ex.Chain.Rates.At(1, 2) != 2 || ex.Chain.Exit[2] != 0 {
		t.Fatalf("rates = %+v, exit %v", ex.Chain.Rates, ex.Chain.Exit)
	}
}
