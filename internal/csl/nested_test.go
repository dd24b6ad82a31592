package csl

import (
	"math"
	"testing"
)

// The two-state repair model of csl_test.go plus a three-state chain used
// for interval and nesting tests.
const chainSrc = `
ctmc
module m
  x : [0..2] init 0;
  [] x=0 -> 2 : (x'=1);
  [] x=1 -> 3 : (x'=2);
  [] x=1 -> 1 : (x'=0);
endmodule
label "goal" = x=2;
rewards "steps"
  true : 1;
endrewards
`

func TestIntervalUntilProperty(t *testing.T) {
	// Pure-birth analytic check via property syntax: single 0 → 1 at rate λ.
	src := `
ctmc
module m
  x : bool init false;
  [] !x -> 1.3 : (x'=true);
endmodule
label "done" = x;
`
	ex, env := explore(t, src)
	res := check(t, ex, env, `P=? [ !"done" U[0.4,1.7] "done" ]`)
	want := math.Exp(-1.3*0.4) - math.Exp(-1.3*1.7)
	if math.Abs(res.Value-want) > 1e-9 {
		t.Fatalf("interval until = %v, want %v", res.Value, want)
	}
	// F with interval is sugar for true U[...].
	res2 := check(t, ex, env, `P=? [ F[0.4,1.7] "done" ]`)
	// With φ1 = true, a jump before t1 still satisfies (state stays done):
	// P = P[done at some t in [0.4, 1.7]] = P[T ≤ 1.7] since done is
	// absorbing... = 1 − e^{-1.3·1.7}.
	want2 := 1 - math.Exp(-1.3*1.7)
	if math.Abs(res2.Value-want2) > 1e-9 {
		t.Fatalf("interval finally = %v, want %v", res2.Value, want2)
	}
}

func TestIntervalGlobally(t *testing.T) {
	src := `
ctmc
module m
  x : bool init false;
  [] !x -> 2 : (x'=true);
endmodule
label "ok" = !x;
`
	ex, env := explore(t, src)
	// G[0.5,1] ok: no failure before time 1 (failure is absorbing, so
	// holding throughout [0.5,1] requires holding up to 1).
	res := check(t, ex, env, `P=? [ G[0.5,1] "ok" ]`)
	want := math.Exp(-2.0)
	if math.Abs(res.Value-want) > 1e-9 {
		t.Fatalf("interval globally = %v, want %v", res.Value, want)
	}
}

func TestIntervalParseErrors(t *testing.T) {
	_, env := explore(t, chainSrc)
	for _, src := range []string{
		`P=? [ F[2,1] "goal" ]`,  // reversed
		`P=? [ F[-1,1] "goal" ]`, // negative
		`P=? [ F[0,0] "goal" ]`,  // empty
		`P=? [ F[1 2] "goal" ]`,  // missing comma
	} {
		if _, err := Parse(src, env); err == nil {
			t.Fatalf("no error for %q", src)
		}
	}
}

func TestNestedBoundedOperator(t *testing.T) {
	ex, env := explore(t, chainSrc)
	// States from which the goal is reached quickly with high probability:
	// x=1 jumps to goal with rate 3 of exit 4; x=0 must pass through x=1.
	// The nested formula marks states where P[F<=0.5 goal] > 0.5; then the
	// outer steady-state query asks the long-run fraction... the chain is
	// absorbing at goal, so instead use reachability of those states.
	res := check(t, ex, env, `P=? [ F (P>0.9 [ F<=5 "goal" ]) ]`)
	// Every state reaches the goal with probability 1 eventually; within 5
	// time units the probability is > 0.9 from every state, so the nested
	// set is everything and the outer result is 1.
	if math.Abs(res.Value-1) > 1e-9 {
		t.Fatalf("nested = %v, want 1", res.Value)
	}
}

func TestNestedSelectsStates(t *testing.T) {
	ex, env := explore(t, chainSrc)
	// P[X goal] is 3/4 from x=1, 0 from x=0, 0 from x=2 (absorbing).
	// Nested: states with P[X goal] > 0.5 — exactly {x=1}.
	res := check(t, ex, env, `P=? [ X (P>0.5 [ X "goal" ]) ]`)
	// From x=0 the first jump surely lands in x=1 (the only successor),
	// which is in the nested set, so the outer value is 1.
	if math.Abs(res.Value-1) > 1e-9 {
		t.Fatalf("outer = %v, want 1", res.Value)
	}
}

func TestNestedQuantitativeComparison(t *testing.T) {
	ex, env := explore(t, chainSrc)
	// The quantitative nested form participates in arithmetic comparisons.
	a := check(t, ex, env, `P=? [ X (P=? [ X "goal" ] > 0.5) ]`)
	b := check(t, ex, env, `P=? [ X (P>0.5 [ X "goal" ]) ]`)
	if math.Abs(a.Value-b.Value) > 1e-12 {
		t.Fatalf("quantitative %v != bounded %v", a.Value, b.Value)
	}
}

func TestNestedRewardOperator(t *testing.T) {
	ex, env := explore(t, chainSrc)
	// Expected time to the goal from x=1: E = 1/4 + (1/4)·E0... solve:
	// E1 = 1/4 + (1/4)E0, E0 = 1/2 + E1 ⇒ E1 = 1/4 + 1/8 + E1/4 ⇒
	// E1 = 0.5, E0 = 1. Nested: states with R[F goal] < 0.75 — exactly
	// {x=1, x=2}; from x=0 the first jump lands there surely.
	res := check(t, ex, env, `P=? [ X (R{"steps"}<0.75 [ F "goal" ]) ]`)
	if math.Abs(res.Value-1) > 1e-9 {
		t.Fatalf("nested reward = %v, want 1", res.Value)
	}
	// And with the threshold below E1 = 0.5 the set is only {x=2}: the
	// first jump from x=0 can't reach it.
	res = check(t, ex, env, `P=? [ X (R{"steps"}<0.4 [ F "goal" ]) ]`)
	if res.Value > 1e-9 {
		t.Fatalf("nested reward tight = %v, want 0", res.Value)
	}
}

func TestNestedSteadyOperator(t *testing.T) {
	// Irreducible two-state chain: S[down] = 3/8 from everywhere, so
	// S<0.5 holds in every state and F (that set) is immediate.
	ex, env := explore(t, twoStateSrc)
	res := check(t, ex, env, `P=? [ F (S<0.5 [ "down" ]) ]`)
	if math.Abs(res.Value-1) > 1e-9 {
		t.Fatalf("nested steady = %v, want 1", res.Value)
	}
}

func TestDeeplyNested(t *testing.T) {
	ex, env := explore(t, chainSrc)
	// Two levels of nesting.
	res := check(t, ex, env, `P=? [ F (P>0.9 [ F<=5 (P>0.5 [ X "goal" ]) ]) ]`)
	if res.Value < 0 || res.Value > 1 {
		t.Fatalf("deep nesting = %v", res.Value)
	}
}

func TestNestedVariableNamedP(t *testing.T) {
	// An identifier P that is a variable must still resolve as a variable
	// when not followed by a bound.
	src := `
ctmc
module m
  P : [0..1] init 0;
  [] P=0 -> 1 : (P'=1);
endmodule
`
	ex, env := explore(t, src)
	res := check(t, ex, env, `P=? [ F<=10 P=1 ]`)
	if res.Value < 0.99 {
		t.Fatalf("P as variable: %v", res.Value)
	}
}

func TestPropertyStillChecksAfterReuse(t *testing.T) {
	// Re-checking the same parsed property must work (nested caches are
	// per-node but idempotent).
	ex, env := explore(t, chainSrc)
	p, err := Parse(`P=? [ F (P>0.9 [ F<=5 "goal" ]) ]`, env)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(ex)
	a, err := c.CheckContext(t.Context(), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CheckContext(t.Context(), p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value {
		t.Fatalf("re-check differs: %v vs %v", a.Value, b.Value)
	}
}

func TestNestedInsideComplexFormulas(t *testing.T) {
	ex, env := explore(t, chainSrc)
	// Nested nodes under ITE, Call, Unary and both Binary branches must all
	// be prepared by the tree walk.
	props := []string{
		`P=? [ F ((P>0.5 [ X "goal" ]) & !(P<0.1 [ X "goal" ])) ]`,
		`P=? [ F ((x>0 | P>0.5 [ X "goal" ]) => "goal") ]`,
		`P=? [ F (min(x, 2) > 0 & P>=0 [ X "goal" ]) ]`,
		`P=? [ F ((P>0.5 [ X "goal" ]) ? x>0 : x=0) ]`,
	}
	for _, p := range props {
		res := check(t, ex, env, p)
		if res.Value < 0 || res.Value > 1 {
			t.Fatalf("%s = %v", p, res.Value)
		}
	}
}

func TestCmpOpStrings(t *testing.T) {
	for op, want := range map[CmpOp]string{
		CmpLt: "<", CmpLe: "<=", CmpGt: ">", CmpGe: ">=", CmpNone: "=?",
	} {
		if op.String() != want {
			t.Fatalf("%d.String() = %q", op, op.String())
		}
	}
}

func TestNestedExprString(t *testing.T) {
	ex, env := explore(t, chainSrc)
	p, err := Parse(`P=? [ F (S<0.5 [ "goal" ]) ]`, env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewChecker(ex).CheckContext(t.Context(), p); err != nil {
		t.Fatal(err)
	}
	// The nested node's String is used in error messages; exercise it via a
	// fresh unprepared node.
	n := &nestedExpr{Prop: &Property{Kind: KindSteady, Op: CmpLt, Bound: 0.5}}
	if got := n.String(); got != "S<0.5[...]" {
		t.Fatalf("String = %q", got)
	}
	if _, err := n.Eval([]int{0}); err == nil {
		t.Fatal("unprepared nested node evaluated")
	}
}

func TestBoundedComparisonOperators(t *testing.T) {
	ex, env := explore(t, chainSrc)
	// Exercise all four comparison verdicts.
	for prop, want := range map[string]bool{
		`P>=0 [ F "goal" ]`: true,
		`P>1 [ F "goal" ]`:  false,
		`P<=1 [ F "goal" ]`: true,
		`P<0 [ F "goal" ]`:  false,
	} {
		res := check(t, ex, env, prop)
		if !res.Bounded || res.Satisfied != want {
			t.Fatalf("%s = %+v, want %v", prop, res, want)
		}
	}
}
