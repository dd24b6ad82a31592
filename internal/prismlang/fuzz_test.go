package prismlang

import (
	"strings"
	"testing"

	"repro/internal/modular"
)

// FuzzLex asserts the lexer never panics and always terminates, returning
// either tokens ending in EOF or an error.
func FuzzLex(f *testing.F) {
	f.Add("ctmc\nmodule m\nx : bool init false;\nendmodule\n")
	f.Add(`const double x = 1.5e-3; // comment`)
	f.Add(`[go] a<=2 -> 0.5 : (a'=a+1);`)
	f.Add(`label "x" = true; rewards "r" true : 1; endrewards`)
	f.Add("0..5 <=> => != ' \" \n\t")
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Lex(src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
			t.Fatalf("token stream not EOF-terminated for %q", src)
		}
	})
}

// FuzzParseModel asserts the parser never panics: every input either
// produces a model that explores and validates, or a clean error.
func FuzzParseModel(f *testing.F) {
	f.Add(birthDeathSrc)
	f.Add("ctmc\nmodule m\nx : [0..2] init 0;\n[] x<2 -> 1 : (x'=x+1);\nendmodule\n")
	f.Add("ctmc\nmodule a\nx : bool init false;\n[s] !x -> 2 : (x'=true);\nendmodule\nmodule b = a [x=y, s=t] endmodule\n")
	f.Add("ctmc\nconst int n = 2;\nformula f = x > 0;\nmodule m\nx : [0..n] init 0;\n[] f -> 1 : (x'=0);\nendmodule\n")
	f.Fuzz(func(t *testing.T, src string) {
		// Guard against pathological blowup inputs.
		if len(src) > 4096 || strings.Count(src, "module") > 8 {
			return
		}
		m, _, err := ParseModel(src, nil)
		if err != nil {
			return
		}
		// A parsed model must validate and explore within a small budget
		// (or fail cleanly).
		_, _ = m.ExploreContext(t.Context(), modular.ExploreOpts{MaxStates: 2000})
	})
}
