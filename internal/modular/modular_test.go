package modular

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

// buildBirthDeath constructs a single-module birth–death chain
// x ∈ [0..max] with birth rate up and death rate down.
func buildBirthDeath(t *testing.T, max int, up, down float64) (*Model, VarRef) {
	t.Helper()
	m := NewModel("birthdeath")
	x, err := m.AddVar(VarDecl{Name: "x", Module: "bd", Min: 0, Max: max})
	if err != nil {
		t.Fatal(err)
	}
	mod := m.AddModule("bd")
	mod.AddCommand(Command{
		Guard: Lt(x, IntLit(max)),
		Updates: []Update{{
			Rate:    DoubleLit(up),
			Assigns: []Assign{{Var: x.Index, Expr: Add(x, IntLit(1))}},
		}},
	})
	mod.AddCommand(Command{
		Guard: Gt(x, IntLit(0)),
		Updates: []Update{{
			Rate:    DoubleLit(down),
			Assigns: []Assign{{Var: x.Index, Expr: Sub(x, IntLit(1))}},
		}},
	})
	return m, x
}

func TestExploreBirthDeath(t *testing.T) {
	m, x := buildBirthDeath(t, 3, 2, 5)
	ex, err := m.ExploreContext(t.Context(), ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.N() != 4 {
		t.Fatalf("states = %d, want 4", ex.N())
	}
	// Transition rates: check 0→1 and 1→0.
	if got := ex.Chain.Rates.At(0, 1); got != 2 {
		t.Fatalf("rate(0→1) = %v", got)
	}
	if got := ex.Chain.Rates.At(1, 0); got != 5 {
		t.Fatalf("rate(1→0) = %v", got)
	}
	// Steady state of M/M/1/3: π_n ∝ (2/5)^n.
	rho := 2.0 / 5
	z := 1 + rho + rho*rho + rho*rho*rho
	for n := 0; n < 4; n++ {
		st := []int{n}
		i := ex.StateIndex(st)
		if i < 0 {
			t.Fatalf("state %v unreachable", st)
		}
		mask := make([]bool, ex.N())
		mask[i] = true
		pi, err := ex.Chain.SteadyStateProbabilityContext(t.Context(), ex.InitDistribution(), mask)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Pow(rho, float64(n)) / z
		if math.Abs(pi-want) > 1e-9 {
			t.Fatalf("π(x=%d) = %v, want %v", n, pi, want)
		}
	}
	_ = x
}

func TestExploreUnreachableStatesExcluded(t *testing.T) {
	m := NewModel("gap")
	x, err := m.AddVar(VarDecl{Name: "x", Min: 0, Max: 10})
	if err != nil {
		t.Fatal(err)
	}
	mod := m.AddModule("m")
	// Only 0 → 5 → 0; other values unreachable.
	mod.AddCommand(Command{
		Guard:   Eq(x, IntLit(0)),
		Updates: []Update{{Rate: DoubleLit(1), Assigns: []Assign{{Var: x.Index, Expr: IntLit(5)}}}},
	})
	mod.AddCommand(Command{
		Guard:   Eq(x, IntLit(5)),
		Updates: []Update{{Rate: DoubleLit(1), Assigns: []Assign{{Var: x.Index, Expr: IntLit(0)}}}},
	})
	ex, err := m.ExploreContext(t.Context(), ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.N() != 2 {
		t.Fatalf("states = %d, want 2", ex.N())
	}
	if ex.StateIndex([]int{3}) != -1 {
		t.Fatal("unreachable state indexed")
	}
}

func TestExploreStateLimit(t *testing.T) {
	m, _ := buildBirthDeath(t, 100, 1, 1)
	_, err := m.ExploreContext(t.Context(), ExploreOpts{MaxStates: 10})
	if !errors.Is(err, ErrStateSpaceLimit) {
		t.Fatalf("err = %v", err)
	}
}

func TestExploreRangeViolation(t *testing.T) {
	m := NewModel("bad")
	x, err := m.AddVar(VarDecl{Name: "x", Min: 0, Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	mod := m.AddModule("m")
	mod.AddCommand(Command{
		Guard:   BoolLit(true),
		Updates: []Update{{Rate: DoubleLit(1), Assigns: []Assign{{Var: x.Index, Expr: IntLit(7)}}}},
	})
	if _, err := m.ExploreContext(t.Context(), ExploreOpts{}); !errors.Is(err, ErrRangeViolation) {
		t.Fatalf("err = %v", err)
	}
	// The range check runs before the successor's key is written: the
	// failed successor still holds the source key.
	l := newKeyLayout(m.Vars)
	key := []uint64{0}
	l.pack([]int{1}, key)
	gen := m.newSuccessorGen(&l)
	if err := gen.successors([]int{1}, key); !errors.Is(err, ErrRangeViolation) {
		t.Fatalf("successors of x=1: err = %v", err)
	}
	if !slices.Equal(gen.keys, key) {
		t.Fatalf("successor key %x, want the source key %x", gen.keys, key)
	}
}

func TestAddVarValidation(t *testing.T) {
	m := NewModel("v")
	if _, err := m.AddVar(VarDecl{Name: "x", Min: 0, Max: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddVar(VarDecl{Name: "x", Min: 0, Max: 1}); !errors.Is(err, ErrDuplicateVar) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.AddVar(VarDecl{Name: "y", Min: 2, Max: 1}); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := m.AddVar(VarDecl{Name: "z", Min: 0, Max: 1, Init: 5}); err == nil {
		t.Fatal("bad init accepted")
	}
	if _, err := m.Var("nope"); !errors.Is(err, ErrUnknownVar) {
		t.Fatalf("err = %v", err)
	}
}

func TestBoolVar(t *testing.T) {
	m := NewModel("b")
	flag, err := m.AddVar(VarDecl{Name: "flag", IsBool: true, Init: 0})
	if err != nil {
		t.Fatal(err)
	}
	mod := m.AddModule("m")
	mod.AddCommand(Command{
		Guard:   Not(flag),
		Updates: []Update{{Rate: DoubleLit(3), Assigns: []Assign{{Var: flag.Index, Expr: BoolLit(true)}}}},
	})
	ex, err := m.ExploreContext(t.Context(), ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.N() != 2 {
		t.Fatalf("states = %d", ex.N())
	}
	mask, err := ex.ExprMask(flag)
	if err != nil {
		t.Fatal(err)
	}
	if mask[0] || !mask[1] {
		t.Fatalf("mask = %v", mask)
	}
}

func TestLabelsAndRewards(t *testing.T) {
	m, x := buildBirthDeath(t, 2, 1, 1)
	m.SetLabel("high", Gt(x, IntLit(0)))
	m.AddReward("time_high", Reward{Guard: Gt(x, IntLit(0)), Value: DoubleLit(1)})
	m.AddReward("time_high", Reward{Guard: Eq(x, IntLit(2)), Value: DoubleLit(0.5)})
	ex, err := m.ExploreContext(t.Context(), ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	mask, err := ex.LabelMask("high")
	if err != nil {
		t.Fatal(err)
	}
	wantMask := map[int]bool{0: false, 1: true, 2: true}
	for n, want := range wantMask {
		if got := mask[ex.StateIndex([]int{n})]; got != want {
			t.Fatalf("label high at x=%d: %v", n, got)
		}
	}
	r, err := ex.RewardVector("time_high")
	if err != nil {
		t.Fatal(err)
	}
	if r[ex.StateIndex([]int{2})] != 1.5 {
		t.Fatalf("stacked reward = %v", r[ex.StateIndex([]int{2})])
	}
	if _, err := ex.LabelMask("nope"); err == nil {
		t.Fatal("unknown label accepted")
	}
	if _, err := ex.RewardVector("nope"); err == nil {
		t.Fatal("unknown reward accepted")
	}
}

func TestSynchronisationMultipliesRates(t *testing.T) {
	// Two modules synchronise on "go": rates 2 and 3 multiply to 6
	// (PRISM CTMC semantics).
	m := NewModel("sync")
	a, err := m.AddVar(VarDecl{Name: "a", Module: "A", IsBool: true})
	if err != nil {
		t.Fatal(err)
	}
	bvar, err := m.AddVar(VarDecl{Name: "b", Module: "B", IsBool: true})
	if err != nil {
		t.Fatal(err)
	}
	ma := m.AddModule("A")
	ma.AddCommand(Command{
		Action:  "go",
		Guard:   Not(a),
		Updates: []Update{{Rate: DoubleLit(2), Assigns: []Assign{{Var: a.Index, Expr: BoolLit(true)}}}},
	})
	mb := m.AddModule("B")
	mb.AddCommand(Command{
		Action:  "go",
		Guard:   Not(bvar),
		Updates: []Update{{Rate: DoubleLit(3), Assigns: []Assign{{Var: bvar.Index, Expr: BoolLit(true)}}}},
	})
	ex, err := m.ExploreContext(t.Context(), ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.N() != 2 {
		t.Fatalf("states = %d, want 2 (joint move only)", ex.N())
	}
	both := ex.StateIndex([]int{1, 1})
	if both < 0 {
		t.Fatal("joint successor missing")
	}
	if got := ex.Chain.Rates.At(0, both); got != 6 {
		t.Fatalf("sync rate = %v, want 6", got)
	}
}

func TestSynchronisationBlocksWhenPartnerDisabled(t *testing.T) {
	m := NewModel("sync")
	a, _ := m.AddVar(VarDecl{Name: "a", Module: "A", IsBool: true})
	bvar, _ := m.AddVar(VarDecl{Name: "b", Module: "B", IsBool: true, Init: 1})
	ma := m.AddModule("A")
	ma.AddCommand(Command{
		Action:  "go",
		Guard:   Not(a),
		Updates: []Update{{Rate: DoubleLit(2), Assigns: []Assign{{Var: a.Index, Expr: BoolLit(true)}}}},
	})
	mb := m.AddModule("B")
	mb.AddCommand(Command{
		Action:  "go",
		Guard:   Not(bvar), // disabled: b starts true
		Updates: []Update{{Rate: DoubleLit(3), Assigns: []Assign{{Var: bvar.Index, Expr: BoolLit(true)}}}},
	})
	ex, err := m.ExploreContext(t.Context(), ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.N() != 1 {
		t.Fatalf("states = %d, want 1 (deadlock)", ex.N())
	}
}

func TestSynchronisedAssignConflict(t *testing.T) {
	m := NewModel("conflict")
	x, _ := m.AddVar(VarDecl{Name: "x", Min: 0, Max: 3})
	ma := m.AddModule("A")
	ma.AddCommand(Command{
		Action:  "go",
		Guard:   BoolLit(true),
		Updates: []Update{{Rate: DoubleLit(1), Assigns: []Assign{{Var: x.Index, Expr: IntLit(1)}}}},
	})
	mb := m.AddModule("B")
	mb.AddCommand(Command{
		Action:  "go",
		Guard:   BoolLit(true),
		Updates: []Update{{Rate: DoubleLit(1), Assigns: []Assign{{Var: x.Index, Expr: IntLit(2)}}}},
	})
	if _, err := m.ExploreContext(t.Context(), ExploreOpts{}); !errors.Is(err, ErrAssignConflict) {
		t.Fatalf("err = %v", err)
	}
}

func TestMultipleUpdatesPerCommand(t *testing.T) {
	// One command splitting into two outcomes with different rates.
	m := NewModel("split")
	x, _ := m.AddVar(VarDecl{Name: "x", Min: 0, Max: 2})
	mod := m.AddModule("m")
	mod.AddCommand(Command{
		Guard: Eq(x, IntLit(0)),
		Updates: []Update{
			{Rate: DoubleLit(1), Assigns: []Assign{{Var: x.Index, Expr: IntLit(1)}}},
			{Rate: DoubleLit(4), Assigns: []Assign{{Var: x.Index, Expr: IntLit(2)}}},
		},
	})
	ex, err := m.ExploreContext(t.Context(), ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := ex.Chain.UnboundedReachabilityVectorContext(t.Context(), maskFor(ex, []int{2}))
	if err != nil {
		t.Fatal(err)
	}
	p := v[ex.InitIndex()]
	if math.Abs(p-0.8) > 1e-9 {
		t.Fatalf("P[reach x=2] = %v, want 0.8", p)
	}
}

func maskFor(ex *Explored, st []int) []bool {
	mask := make([]bool, ex.N())
	if i := ex.StateIndex(st); i >= 0 {
		mask[i] = true
	}
	return mask
}

func TestZeroRateUpdateDropped(t *testing.T) {
	m := NewModel("zero")
	x, _ := m.AddVar(VarDecl{Name: "x", Min: 0, Max: 1})
	mod := m.AddModule("m")
	mod.AddCommand(Command{
		Guard:   Eq(x, IntLit(0)),
		Updates: []Update{{Rate: DoubleLit(0), Assigns: []Assign{{Var: x.Index, Expr: IntLit(1)}}}},
	})
	ex, err := m.ExploreContext(t.Context(), ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.N() != 1 {
		t.Fatalf("states = %d, want 1", ex.N())
	}
}

func TestValidateRejectsNonBoolGuard(t *testing.T) {
	m := NewModel("bad")
	x, _ := m.AddVar(VarDecl{Name: "x", Min: 0, Max: 1})
	mod := m.AddModule("m")
	mod.AddCommand(Command{
		Guard:   Add(x, IntLit(1)), // not boolean
		Updates: []Update{{Rate: DoubleLit(1)}},
	})
	if err := m.Validate(); err == nil {
		t.Fatal("non-boolean guard accepted")
	}
}

func TestFormatState(t *testing.T) {
	m := NewModel("fmt")
	if _, err := m.AddVar(VarDecl{Name: "x", Min: 0, Max: 5, Init: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddVar(VarDecl{Name: "ok", IsBool: true, Init: 1}); err != nil {
		t.Fatal(err)
	}
	got := m.FormatState(m.InitState())
	if got != "(x=2, ok=true)" {
		t.Fatalf("FormatState = %q", got)
	}
}

func TestExportPRISMContainsStructure(t *testing.T) {
	m, x := buildBirthDeath(t, 2, 1.5, 3)
	m.SetLabel("busy", Gt(x, IntLit(0)))
	m.AddReward("time", Reward{Guard: Gt(x, IntLit(0)), Value: DoubleLit(1)})
	src := m.ExportPRISM()
	for _, want := range []string{
		"ctmc",
		"module bd",
		"x : [0..2] init 0;",
		"1.5 : (x'=(x + 1))",
		"endmodule",
		`label "busy"`,
		`rewards "time"`,
		"endrewards",
	} {
		if !strings.Contains(src, want) {
			t.Fatalf("export missing %q:\n%s", want, src)
		}
	}
}

func TestSanitizeIdent(t *testing.T) {
	cases := map[string]string{
		"CAN1":     "CAN1",
		"3G":       "v3G",
		"m.conf":   "m_conf",
		"a-b":      "a_b",
		"":         "v",
		"ok_name9": "ok_name9",
	}
	for in, want := range cases {
		if got := sanitizeIdent(in); got != want {
			t.Fatalf("sanitizeIdent(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestExportPRISMRendersAllNodeKinds(t *testing.T) {
	m := NewModel("render")
	x, err := m.AddVar(VarDecl{Name: "x", Module: "m", Min: 0, Max: 3})
	if err != nil {
		t.Fatal(err)
	}
	mod := m.AddModule("m")
	mod.AddCommand(Command{
		Guard: Not(Eq(x, IntLit(3))),
		Updates: []Update{{
			Rate:    ITE{Gt(x, IntLit(1)), DoubleLit(2), Call{"max", []Expr{DoubleLit(1), DoubleLit(0.5)}}},
			Assigns: []Assign{{Var: x.Index, Expr: Add(x, IntLit(1))}},
		}},
	})
	src := m.ExportPRISM()
	for _, want := range []string{"!((x = 3))", "?", "max(1, 0.5)"} {
		if !strings.Contains(src, want) {
			t.Fatalf("export missing %q:\n%s", want, src)
		}
	}
}
