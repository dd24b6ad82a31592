package csl_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/csl"
	"repro/internal/modular"
	"repro/internal/prismlang"
)

// Parse a PRISM model, explore it and check CSL properties — the complete
// embedded toolchain.
func Example() {
	src := `
ctmc
const double lambda = 3;
const double mu = 5;
module machine
  up : bool init true;
  [] up -> lambda : (up'=false);
  [] !up -> mu : (up'=true);
endmodule
label "down" = !up;
rewards "downtime"
  !up : 1;
endrewards
`
	model, consts, err := prismlang.ParseModel(src, nil)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	ex, err := model.ExploreContext(ctx, modular.ExploreOpts{})
	if err != nil {
		log.Fatal(err)
	}
	env := csl.Environment{Model: model, Consts: consts}
	checker := csl.NewChecker(ex)
	for _, p := range []string{
		`S=? [ "down" ]`,               // long-run downtime: λ/(λ+μ)
		`P=? [ F<=1 "down" ]`,          // first failure within a year
		`R{"downtime"}=? [ C<=1 ]`,     // expected downtime in a year
		`P>0.9 [ F<=2 "down" ]`,        // bounded verdict
		`P=? [ G[0.1,0.2] !"down" ]`,   // interval globally
		`P=? [ F (S<0.5 [ "down" ]) ]`, // nested steady-state operator
	} {
		prop, err := csl.Parse(p, env)
		if err != nil {
			log.Fatal(err)
		}
		res, err := checker.CheckContext(ctx, prop)
		if err != nil {
			log.Fatal(err)
		}
		if res.Bounded {
			fmt.Printf("%-28s = %v\n", p, res.Satisfied)
		} else {
			fmt.Printf("%-28s = %.4f\n", p, res.Value)
		}
	}
	// Output:
	// S=? [ "down" ]               = 0.3750
	// P=? [ F<=1 "down" ]          = 0.9502
	// R{"downtime"}=? [ C<=1 ]     = 0.3281
	// P>0.9 [ F<=2 "down" ]        = true
	// P=? [ G[0.1,0.2] !"down" ]   = 0.5878
	// P=? [ F (S<0.5 [ "down" ]) ] = 1.0000
}
