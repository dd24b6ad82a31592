package attacktree

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/csl"
	"repro/internal/cvss"
	"repro/internal/modular"
)

// explore compiles and explores a tree, failing the test on any error.
func explore(t *testing.T, tr *Tree, opts CompileOptions) (*Compiled, *modular.Explored) {
	t.Helper()
	c, err := Compile(tr, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ex, err := c.Model.ExploreContext(t.Context(), modular.ExploreOpts{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	return c, ex
}

// transitions flattens the explored chain into "i->j@rate" strings.
func transitions(ex *modular.Explored) []string {
	var out []string
	for i := 0; i < ex.Chain.Rates.Rows; i++ {
		cols, vals := ex.Chain.Rates.Row(i)
		for k, j := range cols {
			out = append(out, fmt.Sprintf("%d->%d@%g", i, j, vals[k]))
		}
	}
	return out
}

// TestGateGoldenFragments pins the exact CTMC fragment each gate type
// lowers to: state vectors in exploration order, every transition with its
// rate, and the goal-label mask.
func TestGateGoldenFragments(t *testing.T) {
	cases := []struct {
		gate   string
		states [][]int
		trans  []string
		goal   []bool
	}{
		{
			// OR: both leaves race from the start; goal as soon as either
			// fires.
			gate:   GateOR,
			states: [][]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}},
			trans:  []string{"0->1@2", "0->2@3", "1->3@3", "2->3@2"},
			goal:   []bool{false, true, true, true},
		},
		{
			// AND: the same product chain, but the goal needs both.
			gate:   GateAND,
			states: [][]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}},
			trans:  []string{"0->1@2", "0->2@3", "1->3@3", "2->3@2"},
			goal:   []bool{false, false, false, true},
		},
		{
			// SAND: b is guard-disabled until a completes — a pure phase
			// chain, one state fewer.
			gate:   GateSAND,
			states: [][]int{{0, 0}, {1, 0}, {1, 1}},
			trans:  []string{"0->1@2", "1->2@3"},
			goal:   []bool{false, false, true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.gate, func(t *testing.T) {
			_, ex := explore(t, twoLeaf(tc.gate, 2, 3), CompileOptions{})
			if ex.N() != len(tc.states) {
				t.Fatalf("states = %d, want %d", ex.N(), len(tc.states))
			}
			for i, want := range tc.states {
				st := ex.State(i, nil)
				for v := range want {
					if st[v] != want[v] {
						t.Fatalf("state %d = %v, want %v", i, st, want)
					}
				}
			}
			if got := transitions(ex); strings.Join(got, " ") != strings.Join(tc.trans, " ") {
				t.Fatalf("transitions = %v, want %v", got, tc.trans)
			}
			mask, err := ex.LabelMask(LabelGoal)
			if err != nil {
				t.Fatal(err)
			}
			for i := range mask {
				if mask[i] != tc.goal[i] {
					t.Fatalf("goal mask = %v, want %v", mask, tc.goal)
				}
			}
		})
	}
}

// TestGateGoldenPRISM pins the PRISM source each gate lowers to — the
// human-auditable form of the same fragments.
func TestGateGoldenPRISM(t *testing.T) {
	goldens := map[string][]string{
		GateOR: {
			"module leaf_b\n  b : bool init false;\n  [] !(b) -> 3 : (b'=true);\nendmodule",
			`label "goal" = (a | b);`,
		},
		GateAND: {
			"module leaf_b\n  b : bool init false;\n  [] !(b) -> 3 : (b'=true);\nendmodule",
			`label "goal" = (a & b);`,
		},
		GateSAND: {
			// The sequencing guard is the whole point: b waits for a.
			"module leaf_b\n  b : bool init false;\n  [] (a & !(b)) -> 3 : (b'=true);\nendmodule",
			`label "goal" = (a & b);`,
		},
	}
	for gate, wants := range goldens {
		t.Run(gate, func(t *testing.T) {
			c, err := Compile(twoLeaf(gate, 2, 3), CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			src := c.Model.ExportPRISM()
			for _, want := range wants {
				if !strings.Contains(src, want) {
					t.Fatalf("PRISM export missing %q:\n%s", want, src)
				}
			}
		})
	}
}

// check parses and checks one synthesized query against a compiled tree at
// tight accuracy.
func check(t *testing.T, c *Compiled, ex *modular.Explored, query string) float64 {
	t.Helper()
	prop, err := csl.Parse(query, csl.Environment{Model: c.Model})
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	checker := csl.NewChecker(ex)
	checker.Accuracy = 1e-12
	res, err := checker.CheckContext(t.Context(), prop)
	if err != nil {
		t.Fatalf("check %q: %v", query, err)
	}
	return res.Value
}

// TestTwoLeafORAnalytic is the acceptance cross-check: with CVSS-derived
// leaf rates η1, η2, the OR top event is the first arrival of two
// independent exponentials, so P(T ≤ t) = 1 − e^{−(η1+η2)t}. The checker
// must agree to 1e-9.
func TestTwoLeafORAnalytic(t *testing.T) {
	var etas [2]float64 // 7.2888, 5.1579328
	for i, s := range []string{"AV:N/AC:M/Au:N", "AV:A/AC:L/Au:N"} {
		v, err := cvss.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		etas[i] = v.Rate()
	}
	eta1, eta2 := etas[0], etas[1]
	tr := &Tree{Name: "or_analytic", Root: &Node{Name: "top", Gate: GateOR, Children: []*Node{
		{Name: "a", CVSS: "AV:N/AC:M/Au:N"},
		{Name: "b", CVSS: "AV:A/AC:L/Au:N"},
	}}}
	c, ex := explore(t, tr, CompileOptions{})
	if got := c.LeafRates["a"]; !almost(got, eta1, 1e-12) {
		t.Fatalf("leaf a rate = %v, want %v", got, eta1)
	}
	for _, horizon := range []float64{0.1, 0.5, 1} {
		got := check(t, c, ex, TopEventQuery(horizon))
		want := 1 - math.Exp(-(eta1+eta2)*horizon)
		if !almost(got, want, 1e-9) {
			t.Fatalf("P(top by %g) = %.12f, want %.12f (Δ=%g)", horizon, got, want, got-want)
		}
	}
	// MTTA of the race is 1/(η1+η2).
	if got, want := check(t, c, ex, MTTAQuery()), 1/(eta1+eta2); !almost(got, want, 1e-9) {
		t.Fatalf("MTTA = %.12f, want %.12f", got, want)
	}
}

// TestTwoLeafANDAnalytic: independent parallel progress, so
// P = (1−e^{−η1 t})(1−e^{−η2 t}).
func TestTwoLeafANDAnalytic(t *testing.T) {
	const eta1, eta2 = 2.25, 0.75
	c, ex := explore(t, twoLeaf(GateAND, eta1, eta2), CompileOptions{})
	for _, horizon := range []float64{0.25, 1, 2} {
		got := check(t, c, ex, TopEventQuery(horizon))
		want := (1 - math.Exp(-eta1*horizon)) * (1 - math.Exp(-eta2*horizon))
		if !almost(got, want, 1e-9) {
			t.Fatalf("P(top by %g) = %.12f, want %.12f", horizon, got, want)
		}
	}
}

// TestTwoLeafSANDAnalytic: sequenced phases form a hypoexponential, with
// CDF 1 − (η2 e^{−η1 t} − η1 e^{−η2 t})/(η2 − η1) and mean 1/η1 + 1/η2.
func TestTwoLeafSANDAnalytic(t *testing.T) {
	const eta1, eta2 = 3.0, 1.25
	c, ex := explore(t, twoLeaf(GateSAND, eta1, eta2), CompileOptions{})
	for _, horizon := range []float64{0.5, 1, 3} {
		got := check(t, c, ex, TopEventQuery(horizon))
		want := 1 - (eta2*math.Exp(-eta1*horizon)-eta1*math.Exp(-eta2*horizon))/(eta2-eta1)
		if !almost(got, want, 1e-9) {
			t.Fatalf("P(top by %g) = %.12f, want %.12f", horizon, got, want)
		}
	}
	if got, want := check(t, c, ex, MTTAQuery()), 1/eta1+1/eta2; !almost(got, want, 1e-9) {
		t.Fatalf("MTTA = %.12f, want %.12f", got, want)
	}
}

// TestCountermeasureScalesRate: applying a rate_factor-0 countermeasure on
// one OR leg reduces the top event to the other leg's exponential; the cost
// is accounted.
func TestCountermeasureScalesRate(t *testing.T) {
	tr := &Tree{Name: "cm", Root: &Node{Name: "top", Gate: GateOR, Children: []*Node{
		{Name: "a", Rate: rate(4), Countermeasure: &Countermeasure{Name: "kill_a", Cost: 7, RateFactor: 0}},
		{Name: "b", Rate: rate(1.5)},
	}}}
	c, ex := explore(t, tr, CompileOptions{Applied: []string{"kill_a"}})
	if c.Cost != 7 {
		t.Fatalf("cost = %v, want 7", c.Cost)
	}
	got := check(t, c, ex, TopEventQuery(1))
	want := 1 - math.Exp(-1.5)
	if !almost(got, want, 1e-9) {
		t.Fatalf("P = %.12f, want %.12f", got, want)
	}
	// Unapplied, the race is back on.
	c2, ex2 := explore(t, tr, CompileOptions{})
	if got, want := check(t, c2, ex2, TopEventQuery(1)), 1-math.Exp(-5.5); !almost(got, want, 1e-9) {
		t.Fatalf("unapplied P = %.12f, want %.12f", got, want)
	}
}

// TestPatchingCountermeasure: a single leaf with an applied patching
// countermeasure is a two-state birth–death chain; the expected compromised
// time within [0,t] has the closed form
// η/(η+μ) · (t + (e^{−(η+μ)t} − 1)/(η+μ)).
func TestPatchingCountermeasure(t *testing.T) {
	const eta, mu = 2, 5
	tr := &Tree{Name: "patch", Root: &Node{
		Name: "a", Rate: rate(eta),
		Countermeasure: &Countermeasure{Name: "ota", Cost: 3, RateFactor: 1, PatchRate: mu},
	}}
	c, ex := explore(t, tr, CompileOptions{Applied: []string{"ota"}})
	if ex.N() != 2 {
		t.Fatalf("states = %d, want 2", ex.N())
	}
	const horizon = 1.5
	got := check(t, c, ex, fmt.Sprintf(`R{%q}=? [ C<=%s ]`, RewardCompromised, formatTime(horizon)))
	lam := eta + mu
	want := eta / float64(lam) * (horizon + (math.Exp(-float64(lam)*horizon)-1)/float64(lam))
	if !almost(got, want, 1e-8) {
		t.Fatalf("compromised time = %.12f, want %.12f", got, want)
	}
}

// TestZeroRateLeafUnreachable: a rate-0 leaf emits no attack command, so an
// AND over it never fires.
func TestZeroRateLeafUnreachable(t *testing.T) {
	c, ex := explore(t, twoLeaf(GateAND, 0, 3), CompileOptions{})
	if got := check(t, c, ex, TopEventQuery(5)); got != 0 {
		t.Fatalf("P = %v, want 0", got)
	}
}

// TestCompileSolveRoundTripRace drives concurrent compile → explore →
// check round trips over a shared tree — the data-race gate for the
// subsystem (runs under `make race`).
func TestCompileSolveRoundTripRace(t *testing.T) {
	tr := &Tree{Name: "race", Root: &Node{Name: "top", Gate: GateOR, Children: []*Node{
		{Name: "remote", Gate: GateSAND, Children: []*Node{
			{Name: "cellular", CVSS: "AV:N/AC:M/Au:N"},
			{Name: "lateral", CVSS: "AV:A/AC:H/Au:S"},
		}},
		{Name: "obd", CVSS: "AV:L/AC:L/Au:N",
			Countermeasure: &Countermeasure{Name: "lock", Cost: 2, RateFactor: 0.25}},
	}}}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		applied := []string{}
		if w%2 == 1 {
			applied = []string{"lock"}
		}
		go func(applied []string) {
			defer wg.Done()
			c, err := Compile(tr, CompileOptions{Applied: applied})
			if err != nil {
				errs <- err
				return
			}
			ex, err := c.Model.ExploreContext(t.Context(), modular.ExploreOpts{})
			if err != nil {
				errs <- err
				return
			}
			prop, err := csl.Parse(TopEventQuery(1), csl.Environment{Model: c.Model})
			if err != nil {
				errs <- err
				return
			}
			res, err := csl.NewChecker(ex).CheckContext(t.Context(), prop)
			if err != nil {
				errs <- err
				return
			}
			if res.Value <= 0 || res.Value >= 1 {
				errs <- fmt.Errorf("implausible top-event probability %v", res.Value)
			}
		}(applied)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
