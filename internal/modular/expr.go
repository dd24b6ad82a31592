package modular

import (
	"fmt"
	"math"
	"strings"
)

// Expr is a side-effect-free expression over the model's state variables.
// State is the vector of current variable values (booleans stored as 0/1).
type Expr interface {
	Eval(state []int) (Value, error)
	String() string
}

// Lit is a literal constant.
type Lit struct{ V Value }

// Eval returns the literal value.
func (l Lit) Eval([]int) (Value, error) { return l.V, nil }

func (l Lit) String() string { return l.V.String() }

// IntLit is shorthand for a literal int expression.
func IntLit(i int) Expr { return Lit{IntV(i)} }

// DoubleLit is shorthand for a literal double expression.
func DoubleLit(f float64) Expr { return Lit{DoubleV(f)} }

// BoolLit is shorthand for a literal bool expression.
func BoolLit(b bool) Expr { return Lit{BoolV(b)} }

// VarRef reads a state variable by index. IsBool selects whether the stored
// 0/1 is surfaced as a bool.
type VarRef struct {
	Index  int
	Name   string
	IsBool bool
}

// Eval reads the variable from the state vector.
func (v VarRef) Eval(state []int) (Value, error) {
	if v.Index < 0 || v.Index >= len(state) {
		return Value{}, fmt.Errorf("modular: variable %q index %d out of range", v.Name, v.Index)
	}
	if v.IsBool {
		return BoolV(state[v.Index] != 0), nil
	}
	return IntV(state[v.Index]), nil
}

func (v VarRef) String() string { return v.Name }

// UnOp enumerates unary operators.
type UnOp int

// Unary operators.
const (
	OpNot UnOp = iota // !
	OpNeg             // -
)

// Unary applies a unary operator.
type Unary struct {
	Op UnOp
	X  Expr
}

// Eval applies the operator.
func (u Unary) Eval(state []int) (Value, error) {
	x, err := u.X.Eval(state)
	if err != nil {
		return Value{}, err
	}
	return applyUnary(u.Op, x)
}

// applyUnary applies a unary operator to an evaluated operand. Unary.Eval
// and the compiled closures share it, so both agree on typing and errors.
func applyUnary(op UnOp, x Value) (Value, error) {
	switch op {
	case OpNot:
		b, err := x.Bool()
		if err != nil {
			return Value{}, err
		}
		return BoolV(!b), nil
	case OpNeg:
		if x.Kind == KindInt {
			return IntV(-x.I), nil
		}
		f, err := x.Num()
		if err != nil {
			return Value{}, err
		}
		return DoubleV(-f), nil
	default:
		return Value{}, fmt.Errorf("modular: unknown unary op %d", op)
	}
}

func (u Unary) String() string {
	switch u.Op {
	case OpNot:
		return "!(" + u.X.String() + ")"
	case OpNeg:
		return "-(" + u.X.String() + ")"
	default:
		return "?"
	}
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators, PRISM spelling in comments.
const (
	OpAdd     BinOp = iota // +
	OpSub                  // -
	OpMul                  // *
	OpDiv                  // / (always double, as in PRISM)
	OpAnd                  // &
	OpOr                   // |
	OpImplies              // =>
	OpIff                  // <=>
	OpEq                   // =
	OpNeq                  // !=
	OpLt                   // <
	OpLe                   // <=
	OpGt                   // >
	OpGe                   // >=
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpAnd: "&", OpOr: "|", OpImplies: "=>", OpIff: "<=>",
	OpEq: "=", OpNeq: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
}

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// Eval applies the operator with PRISM-like typing: arithmetic on ints stays
// int (except /), comparisons yield bool, logic requires bools.
func (b Binary) Eval(state []int) (Value, error) {
	l, err := b.L.Eval(state)
	if err != nil {
		return Value{}, err
	}
	// Short-circuit logic.
	switch b.Op {
	case OpAnd:
		lb, err := l.Bool()
		if err != nil {
			return Value{}, err
		}
		if !lb {
			return BoolV(false), nil
		}
		r, err := b.R.Eval(state)
		if err != nil {
			return Value{}, err
		}
		rb, err := r.Bool()
		if err != nil {
			return Value{}, err
		}
		return BoolV(rb), nil
	case OpOr:
		lb, err := l.Bool()
		if err != nil {
			return Value{}, err
		}
		if lb {
			return BoolV(true), nil
		}
		r, err := b.R.Eval(state)
		if err != nil {
			return Value{}, err
		}
		rb, err := r.Bool()
		if err != nil {
			return Value{}, err
		}
		return BoolV(rb), nil
	}
	r, err := b.R.Eval(state)
	if err != nil {
		return Value{}, err
	}
	return applyBinary(b.Op, l, r)
}

// applyBinary applies a non-short-circuit binary operator to evaluated
// operands. Binary.Eval and the compiled closures share it, so evaluating
// an operator never boxes its operands back into expressions.
func applyBinary(op BinOp, l, r Value) (Value, error) {
	switch op {
	case OpImplies:
		lb, err := l.Bool()
		if err != nil {
			return Value{}, err
		}
		rb, err := r.Bool()
		if err != nil {
			return Value{}, err
		}
		return BoolV(!lb || rb), nil
	case OpIff:
		lb, err := l.Bool()
		if err != nil {
			return Value{}, err
		}
		rb, err := r.Bool()
		if err != nil {
			return Value{}, err
		}
		return BoolV(lb == rb), nil
	case OpEq, OpNeq:
		eq, err := l.Equal(r)
		if err != nil {
			return Value{}, err
		}
		if op == OpNeq {
			eq = !eq
		}
		return BoolV(eq), nil
	case OpLt, OpLe, OpGt, OpGe:
		lf, err := l.Num()
		if err != nil {
			return Value{}, err
		}
		rf, err := r.Num()
		if err != nil {
			return Value{}, err
		}
		var res bool
		switch op {
		case OpLt:
			res = lf < rf
		case OpLe:
			res = lf <= rf
		case OpGt:
			res = lf > rf
		case OpGe:
			res = lf >= rf
		}
		return BoolV(res), nil
	case OpAdd, OpSub, OpMul:
		if l.Kind == KindInt && r.Kind == KindInt {
			switch op {
			case OpAdd:
				return IntV(l.I + r.I), nil
			case OpSub:
				return IntV(l.I - r.I), nil
			case OpMul:
				return IntV(l.I * r.I), nil
			}
		}
		lf, err := l.Num()
		if err != nil {
			return Value{}, err
		}
		rf, err := r.Num()
		if err != nil {
			return Value{}, err
		}
		switch op {
		case OpAdd:
			return DoubleV(lf + rf), nil
		case OpSub:
			return DoubleV(lf - rf), nil
		default:
			return DoubleV(lf * rf), nil
		}
	case OpDiv:
		lf, err := l.Num()
		if err != nil {
			return Value{}, err
		}
		rf, err := r.Num()
		if err != nil {
			return Value{}, err
		}
		if rf == 0 {
			return Value{}, fmt.Errorf("modular: division by zero in %s / %s", l, r)
		}
		return DoubleV(lf / rf), nil
	default:
		return Value{}, fmt.Errorf("modular: unknown binary op %d", op)
	}
}

func (b Binary) String() string {
	return "(" + b.L.String() + " " + binOpNames[b.Op] + " " + b.R.String() + ")"
}

// ITE is the conditional expression cond ? then : else.
type ITE struct {
	Cond, Then, Else Expr
}

// Eval evaluates the selected branch.
func (e ITE) Eval(state []int) (Value, error) {
	c, err := e.Cond.Eval(state)
	if err != nil {
		return Value{}, err
	}
	cb, err := c.Bool()
	if err != nil {
		return Value{}, err
	}
	if cb {
		return e.Then.Eval(state)
	}
	return e.Else.Eval(state)
}

func (e ITE) String() string {
	return "(" + e.Cond.String() + " ? " + e.Then.String() + " : " + e.Else.String() + ")"
}

// Call invokes a built-in function: min, max, floor, ceil, pow, mod, log.
type Call struct {
	Fn   string
	Args []Expr
}

// Eval evaluates the built-in.
func (c Call) Eval(state []int) (Value, error) {
	args := make([]Value, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(state)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return applyCall(c.Fn, args)
}

// applyCall evaluates built-in fn on evaluated arguments. Call.Eval and the
// compiled closures share it; it does not retain args.
func applyCall(fn string, args []Value) (Value, error) {
	switch fn {
	case "min", "max":
		if len(args) < 2 {
			return Value{}, fmt.Errorf("modular: %s needs at least 2 arguments", fn)
		}
		allInt := true
		best, err := args[0].Num()
		if err != nil {
			return Value{}, err
		}
		for _, a := range args {
			if a.Kind != KindInt {
				allInt = false
			}
		}
		for _, a := range args[1:] {
			f, err := a.Num()
			if err != nil {
				return Value{}, err
			}
			if (fn == "min" && f < best) || (fn == "max" && f > best) {
				best = f
			}
		}
		if allInt {
			return IntV(int(best)), nil
		}
		return DoubleV(best), nil
	case "floor", "ceil":
		if len(args) != 1 {
			return Value{}, fmt.Errorf("modular: %s needs 1 argument", fn)
		}
		f, err := args[0].Num()
		if err != nil {
			return Value{}, err
		}
		if fn == "floor" {
			return IntV(int(math.Floor(f))), nil
		}
		return IntV(int(math.Ceil(f))), nil
	case "pow":
		if len(args) != 2 {
			return Value{}, fmt.Errorf("modular: pow needs 2 arguments")
		}
		a, err := args[0].Num()
		if err != nil {
			return Value{}, err
		}
		b, err := args[1].Num()
		if err != nil {
			return Value{}, err
		}
		return DoubleV(math.Pow(a, b)), nil
	case "mod":
		if len(args) != 2 {
			return Value{}, fmt.Errorf("modular: mod needs 2 arguments")
		}
		a, err := args[0].Int()
		if err != nil {
			return Value{}, err
		}
		b, err := args[1].Int()
		if err != nil {
			return Value{}, err
		}
		if b == 0 {
			return Value{}, fmt.Errorf("modular: mod by zero")
		}
		return IntV(((a % b) + b) % b), nil
	case "log":
		if len(args) != 2 {
			return Value{}, fmt.Errorf("modular: log needs 2 arguments (value, base)")
		}
		a, err := args[0].Num()
		if err != nil {
			return Value{}, err
		}
		b, err := args[1].Num()
		if err != nil {
			return Value{}, err
		}
		return DoubleV(math.Log(a) / math.Log(b)), nil
	default:
		return Value{}, fmt.Errorf("modular: unknown function %q", fn)
	}
}

func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ", ") + ")"
}

// Convenience constructors used heavily by the architecture transformation.

// And builds the conjunction of the given expressions (true when empty).
func And(xs ...Expr) Expr {
	return fold(OpAnd, BoolLit(true), xs)
}

// Or builds the disjunction of the given expressions (false when empty).
func Or(xs ...Expr) Expr {
	return fold(OpOr, BoolLit(false), xs)
}

func fold(op BinOp, empty Expr, xs []Expr) Expr {
	if len(xs) == 0 {
		return empty
	}
	e := xs[0]
	for _, x := range xs[1:] {
		e = Binary{Op: op, L: e, R: x}
	}
	return e
}

// Not negates an expression.
func Not(x Expr) Expr { return Unary{Op: OpNot, X: x} }

// Gt builds x > y.
func Gt(x, y Expr) Expr { return Binary{Op: OpGt, L: x, R: y} }

// Lt builds x < y.
func Lt(x, y Expr) Expr { return Binary{Op: OpLt, L: x, R: y} }

// Eq builds x = y.
func Eq(x, y Expr) Expr { return Binary{Op: OpEq, L: x, R: y} }

// Add builds x + y.
func Add(x, y Expr) Expr { return Binary{Op: OpAdd, L: x, R: y} }

// Sub builds x - y.
func Sub(x, y Expr) Expr { return Binary{Op: OpSub, L: x, R: y} }
