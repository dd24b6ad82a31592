package prismlang

import (
	"math"
	"strings"
	"testing"

	"repro/internal/modular"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`ctmc // comment
const double x = 1.5e2;
[go] a<=2 -> 0.5 : (a'=a+1);`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.Kind == TokEOF {
			break
		}
		texts = append(texts, tk.Text)
	}
	want := []string{"ctmc", "const", "double", "x", "=", "1.5e2", ";",
		"[", "go", "]", "a", "<=", "2", "->", "0.5", ":", "(", "a", "'", "=", "a", "+", "1", ")", ";"}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestLexNumberKinds(t *testing.T) {
	toks, err := Lex("1 2.5 3e4 0..5")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokInt || toks[1].Kind != TokDouble || toks[2].Kind != TokDouble {
		t.Fatalf("kinds wrong: %v", toks)
	}
	// "0..5" must lex as int, '..', int.
	if toks[3].Kind != TokInt || toks[3].Text != "0" {
		t.Fatalf("range lexing: %v", toks[3])
	}
	if toks[4].Kind != TokPunct || toks[4].Text != ".." {
		t.Fatalf("range lexing: %v", toks[4])
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex(`"unterminated`); err == nil {
		t.Fatal("unterminated string accepted")
	}
	if _, err := Lex("a # b"); err == nil {
		t.Fatal("bad character accepted")
	}
}

const birthDeathSrc = `
// simple birth-death model
ctmc

const int nmax = 2;
const double up = 3.0;
const double down = up * 2;

formula busy = x > 0;

module proc
  x : [0..nmax] init 0;
  [] x < nmax -> up : (x'=x+1);
  [] busy -> down : (x'=x-1);
endmodule

label "saturated" = x = nmax;

rewards "time_busy"
  busy : 1;
endrewards
`

func TestParseBirthDeath(t *testing.T) {
	m, _, err := ParseModel(birthDeathSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.ExploreContext(t.Context(), modular.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.N() != 3 {
		t.Fatalf("states = %d, want 3", ex.N())
	}
	if got := ex.Chain.Rates.At(0, 1); got != 3 {
		t.Fatalf("up rate = %v", got)
	}
	if got := ex.Chain.Rates.At(1, 0); got != 6 {
		t.Fatalf("down rate = %v (const expr up*2)", got)
	}
	mask, err := ex.LabelMask("saturated")
	if err != nil {
		t.Fatal(err)
	}
	if !mask[ex.StateIndex([]int{2})] || mask[ex.StateIndex([]int{0})] {
		t.Fatalf("label mask = %v", mask)
	}
	r, err := ex.RewardVector("time_busy")
	if err != nil {
		t.Fatal(err)
	}
	if r[ex.StateIndex([]int{0})] != 0 || r[ex.StateIndex([]int{1})] != 1 {
		t.Fatalf("rewards = %v", r)
	}
}

func TestParsePaperExample(t *testing.T) {
	// The paper's Fig. 3 example as PRISM source; checks stationary
	// distribution Eq. (15).
	src := `
ctmc
const double eta = 2;
const double phi = 52;

module m3g
  s3g : bool init false;
  [] !s3g -> eta : (s3g'=true);
  [] s3g -> phi : (s3g'=false);
endmodule

module mc
  smc : bool init false;
  [] s3g & !smc -> eta : (smc'=true);
  [] smc -> phi : (smc'=false);
endmodule

label "exploited" = s3g & smc;
`
	m, _, err := ParseModel(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.ExploreContext(t.Context(), modular.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Note: this two-variable encoding has 4 states (the paper's 3-state
	// model merges (0,1): message exploit without 3G). The stationary
	// probability of "exploited" differs from the flattened model; we just
	// sanity-check it is small and positive.
	mask, err := ex.LabelMask("exploited")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ex.Chain.SteadyStateProbabilityContext(t.Context(), ex.InitDistribution(), mask)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p > 0.01 {
		t.Fatalf("steady-state exploited prob = %v", p)
	}
}

func TestParseModuleRenaming(t *testing.T) {
	src := `
ctmc
module m1
  x : [0..1] init 0;
  [] x=0 -> 2 : (x'=1);
endmodule
module m2 = m1 [x=y] endmodule
`
	m, _, err := ParseModel(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.ExploreContext(t.Context(), modular.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.N() != 4 {
		t.Fatalf("states = %d, want 4 (two independent bits)", ex.N())
	}
	if _, err := m.Var("y"); err != nil {
		t.Fatalf("renamed variable missing: %v", err)
	}
}

func TestParseSynchronisation(t *testing.T) {
	src := `
ctmc
module a
  x : bool init false;
  [go] !x -> 2 : (x'=true);
endmodule
module b
  y : bool init false;
  [go] !y -> 3 : (y'=true);
endmodule
`
	m, _, err := ParseModel(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.ExploreContext(t.Context(), modular.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.N() != 2 {
		t.Fatalf("states = %d, want 2", ex.N())
	}
	if got := ex.Chain.Rates.At(0, 1); got != 6 {
		t.Fatalf("sync rate = %v, want 6", got)
	}
}

func TestParseImplicitRateOne(t *testing.T) {
	src := `
ctmc
module m
  x : bool init false;
  [] !x -> (x'=true);
endmodule
`
	m, _, err := ParseModel(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.ExploreContext(t.Context(), modular.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Chain.Rates.At(0, 1); got != 1 {
		t.Fatalf("rate = %v, want 1", got)
	}
}

func TestParseMultipleUpdates(t *testing.T) {
	src := `
ctmc
module m
  x : [0..2] init 0;
  [] x=0 -> 1 : (x'=1) + 4 : (x'=2);
endmodule
`
	m, _, err := ParseModel(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.ExploreContext(t.Context(), modular.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Chain.Rates.At(0, ex.StateIndex([]int{2})); got != 4 {
		t.Fatalf("rate to x=2: %v", got)
	}
}

func TestParseTrueUpdate(t *testing.T) {
	src := `
ctmc
module m
  x : bool init false;
  [] !x -> 5 : true;
endmodule
`
	m, _, err := ParseModel(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.ExploreContext(t.Context(), modular.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Self-loop: dropped by the CTMC builder; one state, no transitions.
	if ex.N() != 1 || ex.Chain.Exit[0] != 0 {
		t.Fatalf("states=%d exit=%v", ex.N(), ex.Chain.Exit)
	}
}

func TestParseITEAndFunctions(t *testing.T) {
	src := `
ctmc
const double r = (1 < 2) ? max(2.0, 3.0) : 0;
module m
  x : bool init false;
  [] !x -> r + pow(2, 2) + min(1, 5) + mod(7, 3) + floor(1.9) + ceil(0.1) : (x'=true);
endmodule
`
	m, _, err := ParseModel(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.ExploreContext(t.Context(), modular.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 + 4 + 1 + 1 + 1 + 1 = 11
	if got := ex.Chain.Rates.At(0, 1); math.Abs(got-11) > 1e-12 {
		t.Fatalf("rate = %v, want 11", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"not ctmc", "dtmc\n", "only CTMC"},
		{"mdp", "ctmc\nmdp\n", "only ctmc models"},
		{"global", "ctmc\nglobal x : bool;\n", "not supported"},
		{"unknown ident", "ctmc\nmodule m\nx : bool init false;\n[] y -> 1 : (x'=true);\nendmodule\n", "unknown identifier"},
		{"bad const type", "ctmc\nconst int k = 1.5;\n", "double"},
		{"const redeclared", "ctmc\nconst int k = 1;\nconst int k = 2;\n", "redeclared"},
		{"unterminated module", "ctmc\nmodule m\nx : bool init false;\n", "endmodule"},
		{"rename unknown", "ctmc\nmodule m2 = m1 [x=y] endmodule\n", "unknown module"},
		{"label in model", "ctmc\nmodule m\nx : bool init false;\n[] \"lab\" -> 1 : (x'=true);\nendmodule\n", "label"},
		{"dup var", "ctmc\nmodule m\nx : bool init false;\nx : bool init false;\nendmodule\n", "duplicate"},
		{"trailing tokens", "ctmc\nmodule m\nx : bool init false;\n[] true true -> 1 : (x'=true);\nendmodule\n", "trailing"},
		{"transition rewards", "ctmc\nmodule m\nx : bool init false;\nendmodule\nrewards \"r\"\n[] true : 1;\nendrewards\n", "transition rewards"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := ParseModel(c.src, nil)
			if err == nil {
				t.Fatalf("no error for %q", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, c.wantSub)
			}
		})
	}
}

func TestFormulaForwardReferenceToVar(t *testing.T) {
	// Formula uses a variable declared in a later module section.
	src := `
ctmc
formula active = x > 0;
module m
  x : [0..1] init 0;
  [] !active -> 1 : (x'=1);
endmodule
`
	m, _, err := ParseModel(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.ExploreContext(t.Context(), modular.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.N() != 2 {
		t.Fatalf("states = %d", ex.N())
	}
}

func TestRoundTripExportParse(t *testing.T) {
	// A modular model exported to PRISM source and re-parsed must produce
	// the same state space and rates.
	orig, _, err := ParseModel(birthDeathSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := orig.ExportPRISM()
	re, _, err := ParseModel(src, nil)
	if err != nil {
		t.Fatalf("re-parse failed: %v\nsource:\n%s", err, src)
	}
	exOrig, err := orig.ExploreContext(t.Context(), modular.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	exRe, err := re.ExploreContext(t.Context(), modular.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if exOrig.N() != exRe.N() {
		t.Fatalf("state counts differ: %d vs %d", exOrig.N(), exRe.N())
	}
	for i := 0; i < exOrig.N(); i++ {
		for j := 0; j < exOrig.N(); j++ {
			a := exOrig.Chain.Rates.At(i, j)
			b := exRe.Chain.Rates.At(i, j)
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("rate(%d,%d): %v vs %v", i, j, a, b)
			}
		}
	}
}

// TestExpressionOperators exercises the full operator grammar through rate
// expressions: iff, implies, chained or, division, unary minus, nested ITE.
func TestExpressionOperators(t *testing.T) {
	cases := []struct {
		expr string
		want float64
	}{
		{"(true <=> true) ? 2 : 3", 2},
		{"(true <=> false) ? 2 : 3", 3},
		{"(false => false) ? 5 : 1", 5},
		{"(true => false) ? 5 : 1", 1},
		{"(false | false | true) ? 7 : 0", 7},
		{"8 / 4", 2},
		{"-(-3)", 3},
		{"-2 + 5", 3},
		{"(1 < 2 ? 10 : 20) + (2 != 3 ? 1 : 2)", 11},
		{"2 - -1", 3},
	}
	for _, c := range cases {
		src := "ctmc\nmodule m\nx : bool init false;\n[] !x -> " + c.expr + " : (x'=true);\nendmodule\n"
		m, _, err := ParseModel(src, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		ex, err := m.ExploreContext(t.Context(), modular.ExploreOpts{})
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		if got := ex.Chain.Rates.At(0, 1); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestTokenStreamPeekAt(t *testing.T) {
	toks, err := Lex("a b c")
	if err != nil {
		t.Fatal(err)
	}
	s := NewTokenStream(toks)
	if s.PeekAt(0).Text != "a" || s.PeekAt(2).Text != "c" {
		t.Fatal("PeekAt wrong")
	}
	if s.PeekAt(99).Kind != TokEOF {
		t.Fatal("PeekAt past end not EOF")
	}
	s.Next()
	if s.PeekAt(1).Text != "c" {
		t.Fatal("PeekAt after Next wrong")
	}
}

func TestTokenString(t *testing.T) {
	if (Token{Kind: TokEOF}).String() != "end of input" {
		t.Fatal("EOF string")
	}
	if (Token{Kind: TokString, Text: "lbl"}).String() != `"lbl"` {
		t.Fatal("string token rendering")
	}
	if (Token{Kind: TokIdent, Text: "x"}).String() != "x" {
		t.Fatal("ident rendering")
	}
}
