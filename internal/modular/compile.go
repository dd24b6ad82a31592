package modular

import "fmt"

// EvalFunc is a compiled expression: evaluation without per-node type
// switches. State-space exploration evaluates every guard in every reachable
// state, so compiling the expression tree into closures once pays off
// immediately (see BenchmarkCompiledVsInterpreted).
type EvalFunc func(state []int) (Value, error)

// Compile translates an expression tree into a closure tree. The compiled
// form is semantically identical to Expr.Eval, including error behaviour.
func Compile(e Expr) EvalFunc {
	switch x := e.(type) {
	case Lit:
		v := x.V
		return func([]int) (Value, error) { return v, nil }
	case VarRef:
		idx, name, isBool := x.Index, x.Name, x.IsBool
		if isBool {
			return func(st []int) (Value, error) {
				if idx < 0 || idx >= len(st) {
					return Value{}, fmt.Errorf("modular: variable %q index %d out of range", name, idx)
				}
				return BoolV(st[idx] != 0), nil
			}
		}
		return func(st []int) (Value, error) {
			if idx < 0 || idx >= len(st) {
				return Value{}, fmt.Errorf("modular: variable %q index %d out of range", name, idx)
			}
			return IntV(st[idx]), nil
		}
	case Unary:
		inner := Compile(x.X)
		op := x.Op
		return func(st []int) (Value, error) {
			v, err := inner(st)
			if err != nil {
				return Value{}, err
			}
			return applyUnary(op, v)
		}
	case Binary:
		if f := compileBinaryBool(x); f != nil {
			return func(st []int) (Value, error) {
				b, err := f(st)
				if err != nil {
					return Value{}, err
				}
				return BoolV(b), nil
			}
		}
		// Specialise the counter updates the transformation generates:
		// <var> ± <int literal>. Subtracting c wraps as adding -c does.
		if vr, c, ok := varIntLit(x); ok && (x.Op == OpAdd || x.Op == OpSub) {
			idx := vr.Index
			if x.Op == OpSub {
				c = -c
			}
			return func(st []int) (Value, error) {
				if idx >= len(st) {
					return vr.Eval(st)
				}
				return IntV(st[idx] + c), nil
			}
		}
		l, r, op := Compile(x.L), Compile(x.R), x.Op
		return func(st []int) (Value, error) {
			lv, err := l(st)
			if err != nil {
				return Value{}, err
			}
			rv, err := r(st)
			if err != nil {
				return Value{}, err
			}
			return applyBinary(op, lv, rv)
		}
	case ITE:
		cond := Compile(x.Cond)
		thenF := Compile(x.Then)
		elseF := Compile(x.Else)
		return func(st []int) (Value, error) {
			cv, err := cond(st)
			if err != nil {
				return Value{}, err
			}
			cb, err := cv.Bool()
			if err != nil {
				return Value{}, err
			}
			if cb {
				return thenF(st)
			}
			return elseF(st)
		}
	case Call:
		args := make([]EvalFunc, len(x.Args))
		for i, a := range x.Args {
			args[i] = Compile(a)
		}
		fn := x.Fn
		return func(st []int) (Value, error) {
			// Built-ins take at most a handful of arguments; evaluate them
			// into a stack buffer so a call allocates nothing.
			var buf [4]Value
			vals := buf[:0]
			if len(args) > len(buf) {
				vals = make([]Value, 0, len(args))
			}
			for _, a := range args {
				v, err := a(st)
				if err != nil {
					return Value{}, err
				}
				vals = append(vals, v)
			}
			return applyCall(fn, vals)
		}
	default:
		return e.Eval
	}
}

// varIntLit reports whether x is <int var> OP <int literal>, the shape of
// most guards and assignments the transformation generates, and returns the
// variable and the literal.
func varIntLit(x Binary) (vr VarRef, c int, ok bool) {
	vr, ok = x.L.(VarRef)
	if !ok || vr.IsBool || vr.Index < 0 {
		return VarRef{}, 0, false
	}
	lit, ok := x.R.(Lit)
	if !ok || lit.V.Kind != KindInt {
		return VarRef{}, 0, false
	}
	return vr, lit.V.I, true
}

// compileBinaryBool compiles the binary shapes that have a boolean closure
// of their own: & and |, which must not evaluate the right side when the
// left decides, with Expr.Eval's error order, and the hottest comparisons
// the transformation generates, <int var> OP <int literal>. It returns nil
// for every other expression.
func compileBinaryBool(x Binary) func([]int) (bool, error) {
	if x.Op == OpAnd || x.Op == OpOr {
		// The left value that decides the result: false for &, true for |.
		l, r, decides := CompileBool(x.L), CompileBool(x.R), x.Op == OpOr
		return func(st []int) (bool, error) {
			lb, err := l(st)
			if err != nil {
				return false, err
			}
			if lb == decides {
				return lb, nil
			}
			return r(st)
		}
	}
	vr, c, ok := varIntLit(x)
	if !ok {
		return nil
	}
	idx := vr.Index
	switch x.Op {
	case OpGt:
		return func(st []int) (bool, error) {
			if idx >= len(st) {
				return shortState(vr, st)
			}
			return st[idx] > c, nil
		}
	case OpLt:
		return func(st []int) (bool, error) {
			if idx >= len(st) {
				return shortState(vr, st)
			}
			return st[idx] < c, nil
		}
	case OpGe:
		return func(st []int) (bool, error) {
			if idx >= len(st) {
				return shortState(vr, st)
			}
			return st[idx] >= c, nil
		}
	case OpLe:
		return func(st []int) (bool, error) {
			if idx >= len(st) {
				return shortState(vr, st)
			}
			return st[idx] <= c, nil
		}
	case OpEq:
		return func(st []int) (bool, error) {
			if idx >= len(st) {
				return shortState(vr, st)
			}
			return st[idx] == c, nil
		}
	case OpNeq:
		return func(st []int) (bool, error) {
			if idx >= len(st) {
				return shortState(vr, st)
			}
			return st[idx] != c, nil
		}
	}
	return nil
}

// shortState fails a comparison on variable vr in a state too short to hold
// it, as VarRef.Eval does.
func shortState(vr VarRef, st []int) (bool, error) {
	_, err := vr.Eval(st)
	return false, err
}

// CompileBool compiles a boolean expression for guard and label
// evaluation. Conjunctions, disjunctions, negations and the int comparison
// shapes compile to boolean closures directly, with Expr.Eval's
// short-circuit and error order; anything else is Compile with a boolean
// projection.
func CompileBool(e Expr) func(state []int) (bool, error) {
	switch x := e.(type) {
	case Binary:
		if f := compileBinaryBool(x); f != nil {
			return f
		}
	case Unary:
		if x.Op == OpNot {
			inner := CompileBool(x.X)
			return func(st []int) (bool, error) {
				b, err := inner(st)
				if err != nil {
					return false, err
				}
				return !b, nil
			}
		}
	}
	f := Compile(e)
	return func(st []int) (bool, error) {
		v, err := f(st)
		if err != nil {
			return false, err
		}
		return v.Bool()
	}
}

// CompileNum compiles a numeric expression for rate evaluation: a literal
// rate becomes a constant, anything else is Compile with a numeric
// projection.
func CompileNum(e Expr) func(state []int) (float64, error) {
	if lit, ok := e.(Lit); ok {
		if c, err := lit.V.Num(); err == nil {
			return func([]int) (float64, error) { return c, nil }
		}
	}
	f := Compile(e)
	return func(st []int) (float64, error) {
		v, err := f(st)
		if err != nil {
			return 0, err
		}
		return v.Num()
	}
}
