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
		l := Compile(x.L)
		op := x.Op
		// Short-circuit operators must not pre-evaluate the right side.
		switch op {
		case OpAnd:
			r := Compile(x.R)
			return func(st []int) (Value, error) {
				lv, err := l(st)
				if err != nil {
					return Value{}, err
				}
				lb, err := lv.Bool()
				if err != nil {
					return Value{}, err
				}
				if !lb {
					return BoolV(false), nil
				}
				rv, err := r(st)
				if err != nil {
					return Value{}, err
				}
				rb, err := rv.Bool()
				if err != nil {
					return Value{}, err
				}
				return BoolV(rb), nil
			}
		case OpOr:
			r := Compile(x.R)
			return func(st []int) (Value, error) {
				lv, err := l(st)
				if err != nil {
					return Value{}, err
				}
				lb, err := lv.Bool()
				if err != nil {
					return Value{}, err
				}
				if lb {
					return BoolV(true), nil
				}
				rv, err := r(st)
				if err != nil {
					return Value{}, err
				}
				rb, err := rv.Bool()
				if err != nil {
					return Value{}, err
				}
				return BoolV(rb), nil
			}
		}
		r := Compile(x.R)
		// Specialise the hottest comparison shapes the transformation
		// generates: <var> OP <int literal>.
		if vr, ok := x.L.(VarRef); ok && !vr.IsBool {
			if lit, ok := x.R.(Lit); ok && lit.V.Kind == KindInt {
				idx, c := vr.Index, lit.V.I
				switch op {
				case OpGt:
					return func(st []int) (Value, error) { return BoolV(st[idx] > c), nil }
				case OpLt:
					return func(st []int) (Value, error) { return BoolV(st[idx] < c), nil }
				case OpGe:
					return func(st []int) (Value, error) { return BoolV(st[idx] >= c), nil }
				case OpLe:
					return func(st []int) (Value, error) { return BoolV(st[idx] <= c), nil }
				case OpEq:
					return func(st []int) (Value, error) { return BoolV(st[idx] == c), nil }
				case OpNeq:
					return func(st []int) (Value, error) { return BoolV(st[idx] != c), nil }
				}
			}
		}
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

// CompileBool wraps Compile with a boolean projection for guard evaluation.
func CompileBool(e Expr) func(state []int) (bool, error) {
	f := Compile(e)
	return func(st []int) (bool, error) {
		v, err := f(st)
		if err != nil {
			return false, err
		}
		return v.Bool()
	}
}

// CompileNum wraps Compile with a numeric projection for rate evaluation.
func CompileNum(e Expr) func(state []int) (float64, error) {
	f := Compile(e)
	return func(st []int) (float64, error) {
		v, err := f(st)
		if err != nil {
			return 0, err
		}
		return v.Num()
	}
}
