package modular

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimplifyConstantFolding(t *testing.T) {
	cases := []struct {
		in   Expr
		want string
	}{
		{Binary{OpAdd, IntLit(2), IntLit(3)}, "5"},
		{Binary{OpMul, DoubleLit(2), DoubleLit(0.5)}, "1"},
		{Binary{OpAnd, BoolLit(true), BoolLit(false)}, "false"},
		{Unary{OpNot, BoolLit(true)}, "false"},
		{Unary{OpNeg, IntLit(3)}, "-3"},
		{Call{"min", []Expr{IntLit(4), IntLit(2)}}, "2"},
		{ITE{BoolLit(true), IntLit(1), IntLit(2)}, "1"},
		{ITE{BoolLit(false), IntLit(1), IntLit(2)}, "2"},
	}
	for _, c := range cases {
		got := Simplify(c.in)
		if got.String() != c.want {
			t.Fatalf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestSimplifyBooleanIdentities(t *testing.T) {
	x := VarRef{Index: 0, Name: "x", IsBool: true}
	cases := []struct {
		in   Expr
		want string
	}{
		{Binary{OpAnd, BoolLit(true), x}, "x"},
		{Binary{OpAnd, x, BoolLit(true)}, "x"},
		{Binary{OpAnd, BoolLit(false), x}, "false"},
		{Binary{OpAnd, x, BoolLit(false)}, "false"}, // x is a VarRef: cannot fail
		{Binary{OpOr, BoolLit(false), x}, "x"},
		{Binary{OpOr, x, BoolLit(false)}, "x"},
		{Binary{OpOr, BoolLit(true), x}, "true"},
		{Binary{OpOr, x, BoolLit(true)}, "true"},
		{Unary{OpNot, Unary{OpNot, x}}, "x"},
	}
	for _, c := range cases {
		got := Simplify(c.in)
		if got.String() != c.want {
			t.Fatalf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestSimplifyKeepsFailingSubtrees(t *testing.T) {
	// 1/0 must stay a runtime error, not fold or disappear.
	div := Binary{OpDiv, IntLit(1), IntLit(0)}
	got := Simplify(div)
	if _, err := got.Eval(nil); err == nil {
		t.Fatal("division by zero folded away")
	}
	// X ∧ false where X can fail must NOT drop X.
	canFail := Binary{OpEq, Binary{OpDiv, IntLit(1), IntLit(0)}, DoubleLit(1)}
	e := Simplify(Binary{OpAnd, canFail, BoolLit(false)})
	if _, err := e.Eval(nil); err == nil {
		t.Fatal("failing left operand dropped by X∧false rewrite")
	}
	// false ∧ X may drop X (short-circuit would skip it anyway).
	e = Simplify(Binary{OpAnd, BoolLit(false), canFail})
	if e.String() != "false" {
		t.Fatalf("false∧X = %s, want false", e)
	}
}

func TestSimplifyNested(t *testing.T) {
	// (true ∧ (x > 0)) ∨ false  →  x > 0
	x := VarRef{Index: 0, Name: "x"}
	e := Binary{OpOr,
		Binary{OpAnd, BoolLit(true), Gt(x, IntLit(0))},
		BoolLit(false),
	}
	got := Simplify(e)
	if got.String() != "(x > 0)" {
		t.Fatalf("got %s", got)
	}
}

// Property: simplification preserves values on random expressions over a
// random state.
func TestQuickSimplifyPreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		state := []int{r.Intn(5), r.Intn(2)}
		e := randomExpr(r, 4)
		s := Simplify(e)
		v1, err1 := e.Eval(state)
		v2, err2 := s.Eval(state)
		if err1 != nil {
			// Simplification may only drop errors that short-circuiting
			// would have skipped; it must never introduce a different
			// value. If the original errors, the simplified form either
			// errors too or yields a value the original would have
			// produced under short-circuiting — both acceptable; just
			// require no panic (reaching here suffices).
			return true
		}
		if err2 != nil {
			return false // simplification introduced an error
		}
		eq, err := v1.Equal(v2)
		return err == nil && eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomExpr builds random well-typed-ish expressions over state vars
// x (int, index 0) and b (bool, index 1).
func randomExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Float64() < 0.25 {
		switch r.Intn(5) {
		case 0:
			return IntLit(r.Intn(5))
		case 1:
			return DoubleLit(r.Float64() * 4)
		case 2:
			return BoolLit(r.Intn(2) == 0)
		case 3:
			return VarRef{Index: 0, Name: "x"}
		default:
			return VarRef{Index: 1, Name: "b", IsBool: true}
		}
	}
	switch r.Intn(6) {
	case 0:
		return Binary{OpAdd, randomNum(r, depth-1), randomNum(r, depth-1)}
	case 1:
		return Binary{OpMul, randomNum(r, depth-1), randomNum(r, depth-1)}
	case 2:
		return Binary{OpAnd, randomBool(r, depth-1), randomBool(r, depth-1)}
	case 3:
		return Binary{OpOr, randomBool(r, depth-1), randomBool(r, depth-1)}
	case 4:
		return Unary{OpNot, randomBool(r, depth-1)}
	default:
		return ITE{randomBool(r, depth-1), randomNum(r, depth-1), randomNum(r, depth-1)}
	}
}

func randomNum(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Float64() < 0.4 {
		if r.Intn(2) == 0 {
			return IntLit(r.Intn(5))
		}
		return VarRef{Index: 0, Name: "x"}
	}
	return Binary{OpAdd, randomNum(r, depth-1), randomNum(r, depth-1)}
}

func randomBool(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Float64() < 0.4 {
		if r.Intn(2) == 0 {
			return BoolLit(r.Intn(2) == 0)
		}
		return VarRef{Index: 1, Name: "b", IsBool: true}
	}
	switch r.Intn(3) {
	case 0:
		return Binary{OpAnd, randomBool(r, depth-1), randomBool(r, depth-1)}
	case 1:
		return Gt(randomNum(r, depth-1), randomNum(r, depth-1))
	default:
		return Unary{OpNot, randomBool(r, depth-1)}
	}
}

func TestSimplifyAllOnModel(t *testing.T) {
	m := NewModel("s")
	x, err := m.AddVar(VarDecl{Name: "x", Min: 0, Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	mod := m.AddModule("m")
	mod.AddCommand(Command{
		Guard: Binary{OpAnd, BoolLit(true), Lt(x, IntLit(2))},
		Updates: []Update{{
			Rate:    Binary{OpMul, DoubleLit(2), DoubleLit(3)},
			Assigns: []Assign{{Var: x.Index, Expr: Add(x, Binary{OpSub, IntLit(2), IntLit(1)})}},
		}},
	})
	m.SetLabel("top", Binary{OpOr, Eq(x, IntLit(2)), BoolLit(false)})
	m.AddReward("r", Reward{Guard: BoolLit(true), Value: Binary{OpAdd, DoubleLit(1), DoubleLit(1)}})

	exBefore, err := m.ExploreContext(t.Context(), ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	m.SimplifyAll()
	if got := m.Modules[0].Commands[0].Guard.String(); got != "(x < 2)" {
		t.Fatalf("guard = %s", got)
	}
	if got := m.Modules[0].Commands[0].Updates[0].Rate.String(); got != "6" {
		t.Fatalf("rate = %s", got)
	}
	exAfter, err := m.ExploreContext(t.Context(), ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if exBefore.N() != exAfter.N() {
		t.Fatalf("state count changed: %d vs %d", exBefore.N(), exAfter.N())
	}
	for i := 0; i < exBefore.N(); i++ {
		for j := 0; j < exBefore.N(); j++ {
			if exBefore.Chain.Rates.At(i, j) != exAfter.Chain.Rates.At(i, j) {
				t.Fatalf("rate(%d,%d) changed", i, j)
			}
		}
	}
}
