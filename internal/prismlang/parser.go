package prismlang

import (
	"fmt"

	"repro/internal/modular"
)

// ParseModel parses PRISM CTMC source into a modular model and returns the
// declared constants, which property parsers need to resolve identifiers
// like time bounds and thresholds. Supported declarations: the `ctmc` model
// type, typed constants with defining expressions, formulas, modules
// (including module renaming), labels and reward structures. Constants may
// be left undefined (`const double eta;`) and supplied through overrides —
// the PRISM `-const name=value` convention. Every undefined constant must
// be covered by overrides; overrides may also replace defined constants.
// A nil overrides map supplies nothing.
func ParseModel(src string, overrides map[string]string) (*modular.Model, map[string]modular.Value, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, nil, err
	}
	p := &modelParser{
		model:     modular.NewModel("prism model"),
		consts:    make(map[string]modular.Value),
		formulas:  make(map[string]modular.Expr),
		overrides: overrides,
	}
	m, err := p.parse(NewTokenStream(toks))
	if err != nil {
		return nil, nil, err
	}
	return m, p.consts, nil
}

type modelParser struct {
	model            *modular.Model
	consts           map[string]modular.Value
	formulas         map[string]modular.Expr
	deferredFormulas []moduleSpan // (name, tokens) pairs parsed after vars
	moduleSpans      map[string][]Token
	overrides        map[string]string // external -const definitions
}

// span is a deferred declaration: a token slice parsed after all variables
// are known.
type moduleSpan struct {
	name string
	toks []Token
	line int
}

type labelSpan struct {
	name string
	toks []Token
}

type rewardSpan struct {
	name string
	toks []Token
}

func (p *modelParser) parse(s *TokenStream) (*modular.Model, error) {
	// Model type.
	t := s.Next()
	if t.Kind != TokIdent || (t.Text != "ctmc" && t.Text != "stochastic") {
		return nil, errf(t.Line, "model must start with 'ctmc' (got %s); only CTMC models are supported", t)
	}

	var modules []moduleSpan
	var labels []labelSpan
	var rewards []rewardSpan

	for !s.AtEOF() {
		t := s.Peek()
		if t.Kind != TokIdent {
			return nil, errf(t.Line, "expected declaration, found %s", t)
		}
		switch t.Text {
		case "const":
			if err := p.parseConst(s); err != nil {
				return nil, err
			}
		case "formula":
			s.Next()
			name := s.Next()
			if name.Kind != TokIdent {
				return nil, errf(name.Line, "expected formula name, found %s", name)
			}
			if err := s.Expect("="); err != nil {
				return nil, err
			}
			body, err := collectUntil(s, ";")
			if err != nil {
				return nil, err
			}
			// Formulas are deferred: they may reference variables declared
			// in later modules.
			if _, dup := p.formulas[name.Text]; dup {
				return nil, errf(name.Line, "formula %q redeclared", name.Text)
			}
			p.formulas[name.Text] = nil
			p.deferredFormulas = append(p.deferredFormulas, moduleSpan{name: name.Text, toks: body, line: name.Line})
		case "module":
			span, err := p.collectModule(s)
			if err != nil {
				return nil, err
			}
			modules = append(modules, span)
		case "label":
			s.Next()
			name := s.Next()
			if name.Kind != TokString {
				return nil, errf(name.Line, "expected quoted label name, found %s", name)
			}
			if err := s.Expect("="); err != nil {
				return nil, err
			}
			body, err := collectUntil(s, ";")
			if err != nil {
				return nil, err
			}
			labels = append(labels, labelSpan{name: name.Text, toks: body})
		case "rewards":
			s.Next()
			name := s.Next()
			if name.Kind != TokString {
				return nil, errf(name.Line, "expected quoted reward-structure name, found %s", name)
			}
			body, err := collectUntilKeyword(s, "endrewards")
			if err != nil {
				return nil, err
			}
			rewards = append(rewards, rewardSpan{name: name.Text, toks: body})
		case "global", "init", "system":
			return nil, errf(t.Line, "%q declarations are not supported by this PRISM subset", t.Text)
		case "dtmc", "mdp", "pta":
			return nil, errf(t.Line, "only ctmc models are supported, found %q", t.Text)
		default:
			return nil, errf(t.Line, "unknown declaration %q", t.Text)
		}
	}

	// Pass 1 over modules: declare variables.
	type pendingModule struct {
		name     string
		commands []Token
	}
	var pend []pendingModule
	for _, span := range modules {
		cmds, err := p.declareModuleVars(span)
		if err != nil {
			return nil, err
		}
		pend = append(pend, pendingModule{name: span.name, commands: cmds})
	}
	// Pass 2: formulas, in declaration order.
	for _, f := range p.deferredFormulas {
		e, err := p.parseFullExpr(f.toks)
		if err != nil {
			return nil, fmt.Errorf("formula %q: %w", f.name, err)
		}
		p.formulas[f.name] = e
	}
	// Pass 3: commands.
	for _, pm := range pend {
		mod := p.model.AddModule(pm.name)
		ss := NewTokenStream(pm.commands)
		for !ss.AtEOF() {
			cmd, err := p.parseCommand(ss)
			if err != nil {
				return nil, fmt.Errorf("module %q: %w", pm.name, err)
			}
			mod.AddCommand(cmd)
		}
	}
	// Labels and rewards.
	for _, l := range labels {
		e, err := p.parseFullExpr(l.toks)
		if err != nil {
			return nil, fmt.Errorf("label %q: %w", l.name, err)
		}
		p.model.SetLabel(l.name, e)
	}
	for _, r := range rewards {
		if err := p.parseRewards(r); err != nil {
			return nil, err
		}
	}
	if err := p.model.Validate(); err != nil {
		return nil, err
	}
	return p.model, nil
}

func (p *modelParser) parseConst(s *TokenStream) error {
	s.Next() // const
	kind := "int"
	t := s.Peek()
	if t.Kind == TokIdent && (t.Text == "int" || t.Text == "double" || t.Text == "bool") {
		kind = t.Text
		s.Next()
	}
	name := s.Next()
	if name.Kind != TokIdent {
		return errf(name.Line, "expected constant name, found %s", name)
	}
	var body []Token
	switch {
	case s.Accept("="):
		var err error
		body, err = collectUntil(s, ";")
		if err != nil {
			return err
		}
	case s.Accept(";"):
		// Undefined constant: must be supplied externally (-const).
		if _, ok := p.overrides[name.Text]; !ok {
			return errf(name.Line, "constant %q is undefined; supply it with -const %s=<value>", name.Text, name.Text)
		}
	default:
		return errf(s.Peek().Line, "expected '=' or ';' after constant %q", name.Text)
	}
	// External overrides take precedence over in-file definitions.
	if ov, ok := p.overrides[name.Text]; ok {
		toks, err := Lex(ov)
		if err != nil {
			return fmt.Errorf("const %q override: %w", name.Text, err)
		}
		body = toks[:len(toks)-1] // strip EOF
	}
	e, err := p.parseConstExpr(body)
	if err != nil {
		return fmt.Errorf("const %q: %w", name.Text, err)
	}
	v, err := e.Eval(nil)
	if err != nil {
		return fmt.Errorf("const %q: %w", name.Text, err)
	}
	switch kind {
	case "int":
		if v.Kind == modular.KindDouble {
			return errf(name.Line, "const int %s initialised with double %v", name.Text, v.F)
		}
		if v.Kind == modular.KindBool {
			return errf(name.Line, "const int %s initialised with bool", name.Text)
		}
	case "double":
		f, err := v.Num()
		if err != nil {
			return errf(name.Line, "const double %s initialised with non-number", name.Text)
		}
		v = modular.DoubleV(f)
	case "bool":
		if v.Kind != modular.KindBool {
			return errf(name.Line, "const bool %s initialised with non-bool", name.Text)
		}
	}
	if _, dup := p.consts[name.Text]; dup {
		return errf(name.Line, "constant %q redeclared", name.Text)
	}
	p.consts[name.Text] = v
	return nil
}

// collectModule reads a module declaration, expanding renaming
// (module M2 = M1 [a=b, ...] endmodule) at the token level.
func (p *modelParser) collectModule(s *TokenStream) (moduleSpan, error) {
	s.Next() // module
	name := s.Next()
	if name.Kind != TokIdent {
		return moduleSpan{}, errf(name.Line, "expected module name, found %s", name)
	}
	if s.Accept("=") {
		base := s.Next()
		if base.Kind != TokIdent {
			return moduleSpan{}, errf(base.Line, "expected base module name, found %s", base)
		}
		if err := s.Expect("["); err != nil {
			return moduleSpan{}, err
		}
		rename := make(map[string]string)
		for {
			from := s.Next()
			if from.Kind != TokIdent {
				return moduleSpan{}, errf(from.Line, "expected identifier in renaming, found %s", from)
			}
			if err := s.Expect("="); err != nil {
				return moduleSpan{}, err
			}
			to := s.Next()
			if to.Kind != TokIdent {
				return moduleSpan{}, errf(to.Line, "expected identifier in renaming, found %s", to)
			}
			rename[from.Text] = to.Text
			if !s.Accept(",") {
				break
			}
		}
		if err := s.Expect("]"); err != nil {
			return moduleSpan{}, err
		}
		if err := s.Expect("endmodule"); err != nil {
			return moduleSpan{}, err
		}
		baseSpan, ok := p.moduleSpans[base.Text]
		if !ok {
			return moduleSpan{}, errf(base.Line, "module %q renames unknown module %q", name.Text, base.Text)
		}
		renamed := make([]Token, len(baseSpan))
		for i, t := range baseSpan {
			if t.Kind == TokIdent {
				if repl, ok := rename[t.Text]; ok {
					t.Text = repl
				}
			}
			renamed[i] = t
		}
		span := moduleSpan{name: name.Text, toks: renamed, line: name.Line}
		p.storeModuleSpan(name.Text, renamed)
		return span, nil
	}
	body, err := collectUntilKeyword(s, "endmodule")
	if err != nil {
		return moduleSpan{}, err
	}
	p.storeModuleSpan(name.Text, body)
	return moduleSpan{name: name.Text, toks: body, line: name.Line}, nil
}

func (p *modelParser) storeModuleSpan(name string, toks []Token) {
	if p.moduleSpans == nil {
		p.moduleSpans = make(map[string][]Token)
	}
	p.moduleSpans[name] = toks
}

// declareModuleVars parses the variable declarations at the top of a module
// span and returns the remaining tokens (the commands).
func (p *modelParser) declareModuleVars(span moduleSpan) ([]Token, error) {
	s := NewTokenStream(span.toks)
	for {
		t := s.Peek()
		// A variable declaration starts with ident ':'; commands start with '['.
		if t.Kind != TokIdent {
			break
		}
		// Lookahead for ':'.
		save := s.pos
		name := s.Next()
		if !s.Accept(":") {
			s.pos = save
			break
		}
		d := modular.VarDecl{Name: name.Text, Module: span.name}
		switch {
		case s.Accept("bool"):
			d.IsBool = true
			if s.Accept("init") {
				body, err := collectUntil(s, ";")
				if err != nil {
					return nil, err
				}
				v, err := p.evalConstTokens(body)
				if err != nil {
					return nil, fmt.Errorf("variable %q init: %w", name.Text, err)
				}
				b, err := v.Bool()
				if err != nil {
					return nil, errf(name.Line, "variable %q: bool init must be boolean", name.Text)
				}
				if b {
					d.Init = 1
				}
			} else if err := s.Expect(";"); err != nil {
				return nil, err
			}
		case s.Accept("["):
			loToks, err := collectUntil(s, "..")
			if err != nil {
				return nil, err
			}
			hiToks, err := collectUntil(s, "]")
			if err != nil {
				return nil, err
			}
			lo, err := p.evalConstInt(loToks)
			if err != nil {
				return nil, fmt.Errorf("variable %q lower bound: %w", name.Text, err)
			}
			hi, err := p.evalConstInt(hiToks)
			if err != nil {
				return nil, fmt.Errorf("variable %q upper bound: %w", name.Text, err)
			}
			d.Min, d.Max = lo, hi
			d.Init = lo
			if s.Accept("init") {
				body, err := collectUntil(s, ";")
				if err != nil {
					return nil, err
				}
				init, err := p.evalConstInt(body)
				if err != nil {
					return nil, fmt.Errorf("variable %q init: %w", name.Text, err)
				}
				d.Init = init
			} else if err := s.Expect(";"); err != nil {
				return nil, err
			}
		default:
			return nil, errf(name.Line, "variable %q: expected 'bool' or '[lo..hi]' type", name.Text)
		}
		if _, err := p.model.AddVar(d); err != nil {
			return nil, errf(name.Line, "%v", err)
		}
	}
	return span.toks[s.pos:], nil
}

// parseCommand parses: '[' action? ']' guard '->' update ('+' update)* ';'
func (p *modelParser) parseCommand(s *TokenStream) (modular.Command, error) {
	var cmd modular.Command
	if err := s.Expect("["); err != nil {
		return cmd, err
	}
	if t := s.Peek(); t.Kind == TokIdent {
		cmd.Action = t.Text
		s.Next()
	}
	if err := s.Expect("]"); err != nil {
		return cmd, err
	}
	guardToks, err := collectUntil(s, "->")
	if err != nil {
		return cmd, err
	}
	guard, err := p.parseFullExpr(guardToks)
	if err != nil {
		return cmd, fmt.Errorf("guard: %w", err)
	}
	cmd.Guard = guard
	for {
		u, err := p.parseUpdate(s)
		if err != nil {
			return cmd, err
		}
		cmd.Updates = append(cmd.Updates, u)
		if !s.Accept("+") {
			break
		}
	}
	if err := s.Expect(";"); err != nil {
		return cmd, err
	}
	return cmd, nil
}

// parseUpdate parses 'rate : assigns' or bare 'assigns' (rate 1).
func (p *modelParser) parseUpdate(s *TokenStream) (modular.Update, error) {
	var u modular.Update
	// Try to parse a rate expression followed by ':'.
	save := s.pos
	if e, err := ParseExpr(s, p.resolver()); err == nil && s.Accept(":") {
		u.Rate = e
	} else {
		s.pos = save
		u.Rate = modular.DoubleLit(1)
	}
	// Assignments: 'true' or (x'=e) & (y'=e) ...
	if s.Accept("true") {
		return u, nil
	}
	for {
		if err := s.Expect("("); err != nil {
			return u, err
		}
		name := s.Next()
		if name.Kind != TokIdent {
			return u, errf(name.Line, "expected variable name in assignment, found %s", name)
		}
		if err := s.Expect("'"); err != nil {
			return u, err
		}
		if err := s.Expect("="); err != nil {
			return u, err
		}
		exprToks, err := collectUntilBalanced(s, ")")
		if err != nil {
			return u, err
		}
		e, err := p.parseFullExpr(exprToks)
		if err != nil {
			return u, fmt.Errorf("assignment to %q: %w", name.Text, err)
		}
		ref, err := p.model.Var(name.Text)
		if err != nil {
			return u, errf(name.Line, "%v", err)
		}
		u.Assigns = append(u.Assigns, modular.Assign{Var: ref.Index, Expr: e})
		if !s.Accept("&") {
			break
		}
	}
	return u, nil
}

func (p *modelParser) parseRewards(r rewardSpan) error {
	s := NewTokenStream(r.toks)
	for !s.AtEOF() {
		guardToks, err := collectUntil(s, ":")
		if err != nil {
			return fmt.Errorf("rewards %q: %w", r.name, err)
		}
		if len(guardToks) > 0 && guardToks[0].Kind == TokPunct && guardToks[0].Text == "[" {
			return errf(guardToks[0].Line, "rewards %q: transition rewards are not supported, only state rewards", r.name)
		}
		guard, err := p.parseFullExpr(guardToks)
		if err != nil {
			return fmt.Errorf("rewards %q guard: %w", r.name, err)
		}
		valToks, err := collectUntil(s, ";")
		if err != nil {
			return fmt.Errorf("rewards %q: %w", r.name, err)
		}
		val, err := p.parseFullExpr(valToks)
		if err != nil {
			return fmt.Errorf("rewards %q value: %w", r.name, err)
		}
		p.model.AddReward(r.name, modular.Reward{Guard: guard, Value: val})
	}
	return nil
}

// parseFullExpr parses a complete expression from a token slice, requiring
// all tokens to be consumed.
func (p *modelParser) parseFullExpr(toks []Token) (modular.Expr, error) {
	s := NewTokenStream(append(append([]Token{}, toks...), Token{Kind: TokEOF}))
	e, err := ParseExpr(s, p.resolver())
	if err != nil {
		return nil, err
	}
	if !s.AtEOF() {
		return nil, errf(s.Peek().Line, "unexpected trailing token %s in expression", s.Peek())
	}
	return e, nil
}

func (p *modelParser) parseConstExpr(toks []Token) (modular.Expr, error) {
	s := NewTokenStream(append(append([]Token{}, toks...), Token{Kind: TokEOF}))
	e, err := ParseExpr(s, constOnlyResolver{p})
	if err != nil {
		return nil, err
	}
	if !s.AtEOF() {
		return nil, errf(s.Peek().Line, "unexpected trailing token %s", s.Peek())
	}
	return e, nil
}

func (p *modelParser) evalConstTokens(toks []Token) (modular.Value, error) {
	e, err := p.parseConstExpr(toks)
	if err != nil {
		return modular.Value{}, err
	}
	return e.Eval(nil)
}

func (p *modelParser) evalConstInt(toks []Token) (int, error) {
	v, err := p.evalConstTokens(toks)
	if err != nil {
		return 0, err
	}
	return v.Int()
}

// resolver resolves identifiers inside module/label/reward expressions.
func (p *modelParser) resolver() Resolver { return modelResolver{p} }

type modelResolver struct{ p *modelParser }

func (r modelResolver) Resolve(name string, line int) (modular.Expr, error) {
	if v, ok := r.p.consts[name]; ok {
		return modular.Lit{V: v}, nil
	}
	if f, ok := r.p.formulas[name]; ok {
		if f == nil {
			return nil, errf(line, "formula %q referenced before its definition is available", name)
		}
		return f, nil
	}
	if ref, err := r.p.model.Var(name); err == nil {
		return ref, nil
	}
	return nil, errf(line, "unknown identifier %q", name)
}

func (r modelResolver) ResolveLabel(name string, line int) (modular.Expr, error) {
	return nil, errf(line, "label %q cannot be used inside model expressions", name)
}

// constOnlyResolver resolves identifiers in constant contexts.
type constOnlyResolver struct{ p *modelParser }

func (r constOnlyResolver) Resolve(name string, line int) (modular.Expr, error) {
	if v, ok := r.p.consts[name]; ok {
		return modular.Lit{V: v}, nil
	}
	return nil, errf(line, "identifier %q is not a declared constant", name)
}

func (r constOnlyResolver) ResolveLabel(name string, line int) (modular.Expr, error) {
	return nil, errf(line, "label %q cannot be used in constant expressions", name)
}

// collectUntil consumes tokens until the given punctuation/keyword at depth
// 0 (tracking (), [] nesting) and returns them, consuming the terminator.
func collectUntil(s *TokenStream, term string) ([]Token, error) {
	var out []Token
	depth := 0
	for {
		t := s.Peek()
		if t.Kind == TokEOF {
			return nil, errf(t.Line, "expected %q before end of input", term)
		}
		if depth == 0 && (t.Kind == TokPunct || t.Kind == TokIdent) && t.Text == term {
			s.Next()
			return out, nil
		}
		if t.Kind == TokPunct {
			switch t.Text {
			case "(", "[":
				depth++
			case ")", "]":
				depth--
			}
		}
		out = append(out, s.Next())
	}
}

// collectUntilBalanced consumes tokens until the matching closer of an
// already-open bracket (depth starts at 1).
func collectUntilBalanced(s *TokenStream, closer string) ([]Token, error) {
	opener := "("
	if closer == "]" {
		opener = "["
	}
	var out []Token
	depth := 1
	for {
		t := s.Peek()
		if t.Kind == TokEOF {
			return nil, errf(t.Line, "expected %q before end of input", closer)
		}
		if t.Kind == TokPunct {
			switch t.Text {
			case opener:
				depth++
			case closer:
				depth--
				if depth == 0 {
					s.Next()
					return out, nil
				}
			}
		}
		out = append(out, s.Next())
	}
}

// collectUntilKeyword consumes tokens until a bare keyword token.
func collectUntilKeyword(s *TokenStream, kw string) ([]Token, error) {
	var out []Token
	for {
		t := s.Peek()
		if t.Kind == TokEOF {
			return nil, errf(t.Line, "expected %q before end of input", kw)
		}
		if t.Kind == TokIdent && t.Text == kw {
			s.Next()
			return out, nil
		}
		out = append(out, s.Next())
	}
}
