package modular

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCompileExpr extends randomExpr with the shapes Compile,
// CompileBool and CompileNum specialise, built with every binary operator:
// <var> OP <literal> over int and bool variables and int, double and bool
// literals, so shapes that must not take a fast path are drawn too, and
// over a variable the two-element state does not hold, which must fail as
// Eval does.
func randomCompileExpr(r *rand.Rand, depth int) Expr {
	op := BinOp(r.Intn(int(OpGe) + 1))
	switch {
	case depth > 0 && r.Intn(3) == 0:
		return Binary{op, randomCompileExpr(r, depth-1), randomCompileExpr(r, depth-1)}
	case depth > 0 && r.Intn(4) == 0:
		return Unary{OpNot, randomCompileExpr(r, depth-1)}
	case r.Intn(3) == 0:
		vars := []Expr{VarRef{Index: 0, Name: "x"}, VarRef{Index: 1, Name: "b", IsBool: true}, VarRef{Index: 2, Name: "oob"}}
		lits := []Expr{IntLit(r.Intn(7) - 3), DoubleLit(1.5), BoolLit(r.Intn(2) == 0)}
		return Binary{op, vars[r.Intn(len(vars))], lits[r.Intn(len(lits))]}
	case r.Intn(4) == 0:
		lits := []Expr{IntLit(r.Intn(7) - 3), DoubleLit(r.Float64()), BoolLit(r.Intn(2) == 0)}
		return lits[r.Intn(len(lits))]
	}
	return randomExpr(r, depth)
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Property: compiled evaluation agrees with interpreted evaluation on random
// expressions and states, including which error is reported: Compile with
// Expr.Eval, CompileBool with Eval's boolean projection and CompileNum with
// its numeric projection.
func TestQuickCompileMatchesEval(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		state := []int{r.Intn(7) - 3, r.Intn(2)}
		e := randomCompileExpr(r, 4)
		v1, err1 := e.Eval(state)
		v2, err2 := Compile(e)(state)
		if errText(err1) != errText(err2) {
			t.Logf("%s in %v: Compile error %v, Eval error %v", e, state, err2, err1)
			return false
		}
		if err1 == nil {
			if eq, err := v1.Equal(v2); err != nil || !eq {
				t.Logf("%s in %v: Compile %v, Eval %v", e, state, v2, v1)
				return false
			}
		}
		wantB, errB := false, err1
		wantF, errF := 0.0, err1
		if err1 == nil {
			wantB, errB = v1.Bool()
			wantF, errF = v1.Num()
		}
		b, err := CompileBool(e)(state)
		if errText(err) != errText(errB) || (err == nil && b != wantB) {
			t.Logf("%s in %v: CompileBool %v, %v; want %v, %v", e, state, b, err, wantB, errB)
			return false
		}
		x, err := CompileNum(e)(state)
		if errText(err) != errText(errF) || (err == nil && x != wantF) {
			t.Logf("%s in %v: CompileNum %v, %v; want %v, %v", e, state, x, err, wantF, errF)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCompileSpecialisedComparisons(t *testing.T) {
	x := VarRef{Index: 0, Name: "x"}
	cases := []struct {
		e    Expr
		st   []int
		want bool
	}{
		{Gt(x, IntLit(1)), []int{2}, true},
		{Gt(x, IntLit(1)), []int{1}, false},
		{Lt(x, IntLit(3)), []int{2}, true},
		{Eq(x, IntLit(2)), []int{2}, true},
		{Binary{OpGe, x, IntLit(2)}, []int{2}, true},
		{Binary{OpLe, x, IntLit(2)}, []int{3}, false},
		{Binary{OpNeq, x, IntLit(2)}, []int{3}, true},
		{Eq(Add(x, IntLit(2)), IntLit(5)), []int{3}, true},
		{Eq(Sub(x, IntLit(2)), IntLit(-1)), []int{1}, true},
		{Not(Gt(x, IntLit(1))), []int{2}, false},
	}
	for _, c := range cases {
		f := CompileBool(c.e)
		got, err := f(c.st)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("%s in %v = %v", c.e, c.st, got)
		}
	}
}

func TestCompileShortCircuit(t *testing.T) {
	boom := Binary{OpEq, Binary{OpDiv, IntLit(1), IntLit(0)}, DoubleLit(1)}
	f := CompileBool(Binary{OpAnd, BoolLit(false), boom})
	got, err := f(nil)
	if err != nil || got {
		t.Fatalf("false & boom = %v, %v", got, err)
	}
	f = CompileBool(Binary{OpOr, BoolLit(true), boom})
	got, err = f(nil)
	if err != nil || !got {
		t.Fatalf("true | boom = %v, %v", got, err)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := CompileNum(BoolLit(true))(nil); err == nil {
		t.Fatal("bool as num accepted")
	}
	if _, err := CompileBool(IntLit(1))(nil); err == nil {
		t.Fatal("int as bool accepted")
	}
	if _, err := Compile(VarRef{Index: 7, Name: "oob"})([]int{0}); err == nil {
		t.Fatal("out-of-range var accepted")
	}
	if _, err := Compile(VarRef{Index: 0, Name: "b", IsBool: true})(nil); err == nil {
		t.Fatal("out-of-range bool var accepted")
	}
}

// BenchmarkCompiledVsInterpreted measures the exploration-hot-path win of
// closure compilation on a representative transformation guard.
func BenchmarkCompiledVsInterpreted(b *testing.B) {
	// Shape: (x0>0 | x1>0 | x2>0) & x3 < 2 — a bus predicate with an
	// exploit-cap conjunct.
	x := func(i int) Expr { return VarRef{Index: i, Name: "x"} }
	guard := And(
		Or(Gt(x(0), IntLit(0)), Gt(x(1), IntLit(0)), Gt(x(2), IntLit(0))),
		Lt(x(3), IntLit(2)),
	)
	state := []int{0, 1, 0, 1}
	b.Run("interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := guard.Eval(state); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		f := CompileBool(guard)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f(state); err != nil {
				b.Fatal(err)
			}
		}
	})
}
