package csl

import (
	"errors"
	"math"
	"testing"

	"repro/internal/modular"
	"repro/internal/prismlang"
)

// explore parses and explores a model for checker tests.
func explore(t *testing.T, src string) (*modular.Explored, Environment) {
	t.Helper()
	m, consts, err := prismlang.ParseModel(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.ExploreContext(t.Context(), modular.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return ex, Environment{Model: m, Consts: consts}
}

const twoStateSrc = `
ctmc
const double lambda = 3;
const double mu = 5;
module m
  up : bool init true;
  [] up -> lambda : (up'=false);
  [] !up -> mu : (up'=true);
endmodule
label "down" = !up;
rewards "downtime"
  !up : 1;
endrewards
`

func check(t *testing.T, ex *modular.Explored, env Environment, prop string) Result {
	t.Helper()
	p, err := Parse(prop, env)
	if err != nil {
		t.Fatalf("parse %q: %v", prop, err)
	}
	res, err := NewChecker(ex).CheckContext(t.Context(), p)
	if err != nil {
		t.Fatalf("check %q: %v", prop, err)
	}
	return res
}

func TestSteadyStateQuery(t *testing.T) {
	ex, env := explore(t, twoStateSrc)
	res := check(t, ex, env, `S=? [ "down" ]`)
	want := 3.0 / 8 // λ/(λ+μ)
	if math.Abs(res.Value-want) > 1e-9 {
		t.Fatalf("S = %v, want %v", res.Value, want)
	}
}

func TestTimeBoundedFinally(t *testing.T) {
	ex, env := explore(t, twoStateSrc)
	res := check(t, ex, env, `P=? [ F<=1 "down" ]`)
	want := 1 - math.Exp(-3) // first failure ~ Exp(λ)
	if math.Abs(res.Value-want) > 1e-9 {
		t.Fatalf("P = %v, want %v", res.Value, want)
	}
}

func TestUnboundedFinally(t *testing.T) {
	ex, env := explore(t, twoStateSrc)
	res := check(t, ex, env, `P=? [ F "down" ]`)
	if math.Abs(res.Value-1) > 1e-9 {
		t.Fatalf("P = %v, want 1", res.Value)
	}
}

func TestGloballyDuality(t *testing.T) {
	ex, env := explore(t, twoStateSrc)
	res := check(t, ex, env, `P=? [ G<=1 up ]`)
	want := math.Exp(-3) // stay up for 1 time unit
	if math.Abs(res.Value-want) > 1e-9 {
		t.Fatalf("P = %v, want %v", res.Value, want)
	}
}

func TestNextOperator(t *testing.T) {
	// From up, the only jump is to down: P[X "down"] = 1.
	ex, env := explore(t, twoStateSrc)
	res := check(t, ex, env, `P=? [ X "down" ]`)
	if math.Abs(res.Value-1) > 1e-12 {
		t.Fatalf("P = %v, want 1", res.Value)
	}
}

func TestNextOperatorSplit(t *testing.T) {
	src := `
ctmc
module m
  x : [0..2] init 0;
  [] x=0 -> 1 : (x'=1) + 3 : (x'=2);
endmodule
label "two" = x=2;
`
	ex, env := explore(t, src)
	res := check(t, ex, env, `P=? [ X "two" ]`)
	if math.Abs(res.Value-0.75) > 1e-12 {
		t.Fatalf("P = %v, want 0.75", res.Value)
	}
}

func TestBoundedUntilQuery(t *testing.T) {
	src := `
ctmc
module m
  x : [0..2] init 0;
  [] x=0 -> 2 : (x'=1);
  [] x=1 -> 3 : (x'=2);
endmodule
`
	ex, env := explore(t, src)
	// Passing through x=1 violates φ1 = (x=0): probability 0.
	res := check(t, ex, env, `P=? [ x=0 U<=5 x=2 ]`)
	if res.Value > 1e-12 {
		t.Fatalf("blocked until = %v", res.Value)
	}
	res = check(t, ex, env, `P=? [ x<2 U<=5 x=2 ]`)
	reach := check(t, ex, env, `P=? [ F<=5 x=2 ]`)
	if math.Abs(res.Value-reach.Value) > 1e-10 {
		t.Fatalf("until %v != finally %v", res.Value, reach.Value)
	}
}

func TestUnboundedUntil(t *testing.T) {
	src := `
ctmc
module m
  x : [0..2] init 0;
  [] x=0 -> 1 : (x'=1) + 1 : (x'=2);
  [] x=1 -> 1 : (x'=0);
endmodule
`
	ex, env := explore(t, src)
	// φ1 = x=0: paths via x=1 don't count. P = 1/2.
	res := check(t, ex, env, `P=? [ x=0 U x=2 ]`)
	if math.Abs(res.Value-0.5) > 1e-9 {
		t.Fatalf("P = %v, want 0.5", res.Value)
	}
	// φ1 = x<2 allows bouncing: eventually absorbed at 2, P = 1.
	res = check(t, ex, env, `P=? [ x<2 U x=2 ]`)
	if math.Abs(res.Value-1) > 1e-9 {
		t.Fatalf("P = %v, want 1", res.Value)
	}
}

func TestCumulativeRewardQuery(t *testing.T) {
	ex, env := explore(t, twoStateSrc)
	res := check(t, ex, env, `R=? [ C<=2 ]`)
	// Expected downtime in [0,2]: λ/(λ+μ)·(t − (1−e^{-(λ+μ)t})/(λ+μ)).
	s := 8.0
	want := 3.0 / s * (2 - (1-math.Exp(-s*2))/s)
	if math.Abs(res.Value-want) > 1e-8 {
		t.Fatalf("R = %v, want %v", res.Value, want)
	}
	// Named structure gives the same result.
	res2 := check(t, ex, env, `R{"downtime"}=? [ C<=2 ]`)
	if math.Abs(res.Value-res2.Value) > 1e-12 {
		t.Fatalf("named structure differs: %v vs %v", res.Value, res2.Value)
	}
}

func TestInstantaneousRewardQuery(t *testing.T) {
	ex, env := explore(t, twoStateSrc)
	res := check(t, ex, env, `R=? [ I=1 ]`)
	want := 3.0 / 8 * (1 - math.Exp(-8))
	if math.Abs(res.Value-want) > 1e-8 {
		t.Fatalf("R = %v, want %v", res.Value, want)
	}
}

func TestReachabilityRewardQuery(t *testing.T) {
	src := `
ctmc
module m
  x : [0..2] init 0;
  [] x=0 -> 2 : (x'=1);
  [] x=1 -> 4 : (x'=2);
endmodule
rewards "time"
  true : 1;
endrewards
`
	ex, env := explore(t, src)
	res := check(t, ex, env, `R{"time"}=? [ F x=2 ]`)
	if math.Abs(res.Value-0.75) > 1e-9 {
		t.Fatalf("R = %v, want 0.75", res.Value)
	}
}

func TestBoundedVerdicts(t *testing.T) {
	ex, env := explore(t, twoStateSrc)
	res := check(t, ex, env, `S<0.5 [ "down" ]`)
	if !res.Bounded || !res.Satisfied {
		t.Fatalf("S<0.5 should hold: %+v", res)
	}
	res = check(t, ex, env, `S>=0.5 [ "down" ]`)
	if res.Satisfied {
		t.Fatalf("S>=0.5 should fail: %+v", res)
	}
	res = check(t, ex, env, `P>0.9 [ F<=10 "down" ]`)
	if !res.Satisfied {
		t.Fatalf("P>0.9 should hold: %+v", res)
	}
}

func TestBoundWithConstExpression(t *testing.T) {
	ex, env := explore(t, twoStateSrc)
	// Time bound uses a constant expression: lambda - 1 = 2.
	res := check(t, ex, env, `P=? [ F<=lambda-1 "down" ]`)
	want := 1 - math.Exp(-3*2)
	if math.Abs(res.Value-want) > 1e-9 {
		t.Fatalf("P = %v, want %v", res.Value, want)
	}
}

func TestParseErrors(t *testing.T) {
	_, env := explore(t, twoStateSrc)
	for _, src := range []string{
		``,
		`Q=? [ F "down" ]`,
		`P=? [ F "nolabel" ]`,
		`P=? [ F nosuchvar ]`,
		`P=? [ "down" ]`,        // missing path operator
		`P=? [ F<=0 "down" ]`,   // non-positive bound
		`P=? [ F "down" ] junk`, // trailing
		`R=? [ Z<=1 ]`,
		`R{downtime}=? [ C<=1 ]`, // unquoted structure
		`S=! [ "down" ]`,
	} {
		if _, err := Parse(src, env); err == nil {
			t.Fatalf("no error for %q", src)
		} else if !errors.Is(err, ErrSyntax) {
			t.Fatalf("%q: err = %v, not ErrSyntax", src, err)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	src := `
ctmc
module m
  x : bool init false;
  [] !x -> 1 : (x'=true);
endmodule
`
	ex, env := explore(t, src)
	p, err := Parse(`R=? [ C<=1 ]`, env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewChecker(ex).CheckContext(t.Context(), p); !errors.Is(err, ErrCheck) {
		t.Fatalf("no-rewards model: err = %v", err)
	}
}

func TestResultString(t *testing.T) {
	if got := (Result{Value: 0.25}).String(); got != "0.25" {
		t.Fatalf("String = %q", got)
	}
	if got := (Result{Bounded: true, Satisfied: true}).String(); got != "true" {
		t.Fatalf("String = %q", got)
	}
}
