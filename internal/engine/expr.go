package engine

import (
	"fmt"
	"math/big"
	"strings"
	"time"

	"sdb/internal/sqlparser"
	"sdb/internal/types"
)

// evalCtx carries the public modulus into expression compilation. secure
// records that it compiled a row program or a masked reveal: each
// operator's expressions compile through their own, which picks its pool.
type evalCtx struct {
	n      *big.Int
	secure bool
}

// compiledExpr evaluates against a bound row.
type compiledExpr func(row types.Row) (types.Value, error)

// walkExpr visits ex and every sub-expression, parents first; visit
// returning false skips a node's children. The result is false when the
// tree holds an expression form the walker does not know (nothing below
// such a node is visited), so an analysis can fall back to its
// conservative answer.
func walkExpr(ex sqlparser.Expr, visit func(sqlparser.Expr) bool) bool {
	if ex == nil || !visit(ex) {
		return true
	}
	known := true
	each := func(xs ...sqlparser.Expr) {
		for _, x := range xs {
			known = walkExpr(x, visit) && known
		}
	}
	switch t := ex.(type) {
	case sqlparser.ColRef, sqlparser.IntLit, sqlparser.DecLit, sqlparser.StrLit,
		sqlparser.DateLit, sqlparser.BoolLit, sqlparser.NullLit, sqlparser.HexLit:
	case *sqlparser.BinaryExpr:
		each(t.L, t.R)
	case *sqlparser.UnaryExpr:
		each(t.E)
	case *sqlparser.FuncCall:
		each(t.Args...)
	case *sqlparser.BetweenExpr:
		each(t.E, t.Lo, t.Hi)
	case *sqlparser.InExpr:
		each(t.E)
		each(t.List...)
	case *sqlparser.LikeExpr:
		each(t.E, t.Pattern)
	case *sqlparser.IsNullExpr:
		each(t.E)
	case *sqlparser.CaseExpr:
		for _, w := range t.Whens {
			each(w.Cond, w.Then)
		}
		each(t.Else)
	default:
		return false
	}
	return known
}

// literalValue is the value of a literal expression; ok is false for
// anything else.
func literalValue(ex sqlparser.Expr) (v types.Value, ok bool) {
	switch x := ex.(type) {
	case sqlparser.IntLit:
		return types.NewInt(x.V), true
	case sqlparser.DecLit:
		return types.NewDecimal(x.Scaled), true
	case sqlparser.StrLit:
		return types.NewString(x.V), true
	case sqlparser.DateLit:
		return types.NewDate(x.Days), true
	case sqlparser.BoolLit:
		return types.NewBool(x.V), true
	case sqlparser.NullLit:
		return types.Null, true
	case sqlparser.HexLit:
		return types.NewShare(x.V), true
	}
	return types.Null, false
}

// compile binds an expression against a relation's columns.
func compile(ex sqlparser.Expr, rel *relation, ctx *evalCtx) (compiledExpr, error) {
	if v, ok := literalValue(ex); ok {
		return constExpr(v), nil
	}
	switch x := ex.(type) {
	case sqlparser.ColRef:
		idx, err := rel.resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		return func(row types.Row) (types.Value, error) {
			return row[idx], nil
		}, nil

	case *sqlparser.BinaryExpr:
		return compileBinary(x, rel, ctx)

	case *sqlparser.UnaryExpr:
		inner, err := compile(x.E, rel, ctx)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			return func(row types.Row) (types.Value, error) {
				v, err := inner(row)
				if err != nil || v.IsNull() {
					return types.Null, err
				}
				if x, ok := negBig(v, ctx); ok {
					return x, nil
				}
				if !numericKind(v.K) {
					return types.Null, fmt.Errorf("engine: cannot negate %s", v.K)
				}
				v.I = -v.I
				return v, nil
			}, nil
		case "NOT":
			return func(row types.Row) (types.Value, error) {
				v, err := inner(row)
				if err != nil {
					return types.Null, err
				}
				return types.NewBool(!v.Bool()), nil
			}, nil
		default:
			return nil, fmt.Errorf("engine: unknown unary op %q", x.Op)
		}

	case *sqlparser.BetweenExpr:
		e, err := compile(x.E, rel, ctx)
		if err != nil {
			return nil, err
		}
		lo, err := compile(x.Lo, rel, ctx)
		if err != nil {
			return nil, err
		}
		hi, err := compile(x.Hi, rel, ctx)
		if err != nil {
			return nil, err
		}
		return func(row types.Row) (types.Value, error) {
			v, err := e(row)
			if err != nil {
				return types.Null, err
			}
			l, err := lo(row)
			if err != nil {
				return types.Null, err
			}
			h, err := hi(row)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() || l.IsNull() || h.IsNull() {
				return types.NewBool(false), nil
			}
			in := v.Compare(l) >= 0 && v.Compare(h) <= 0
			return types.NewBool(in != x.Not), nil
		}, nil

	case *sqlparser.InExpr:
		e, err := compile(x.E, rel, ctx)
		if err != nil {
			return nil, err
		}
		items := make([]compiledExpr, len(x.List))
		for i, it := range x.List {
			if items[i], err = compile(it, rel, ctx); err != nil {
				return nil, err
			}
		}
		return func(row types.Row) (types.Value, error) {
			v, err := e(row)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() {
				return types.NewBool(false), nil
			}
			found := false
			for _, it := range items {
				iv, err := it(row)
				if err != nil {
					return types.Null, err
				}
				if !iv.IsNull() && compatibleKinds(v.K, iv.K) && v.Compare(iv) == 0 {
					found = true
					break
				}
			}
			return types.NewBool(found != x.Not), nil
		}, nil

	case *sqlparser.LikeExpr:
		e, err := compile(x.E, rel, ctx)
		if err != nil {
			return nil, err
		}
		pat, err := compile(x.Pattern, rel, ctx)
		if err != nil {
			return nil, err
		}
		return func(row types.Row) (types.Value, error) {
			v, err := e(row)
			if err != nil {
				return types.Null, err
			}
			p, err := pat(row)
			if err != nil {
				return types.Null, err
			}
			if v.K != types.KindString || p.K != types.KindString {
				return types.NewBool(false), nil
			}
			return types.NewBool(likeMatch(v.S, p.S) != x.Not), nil
		}, nil

	case *sqlparser.IsNullExpr:
		e, err := compile(x.E, rel, ctx)
		if err != nil {
			return nil, err
		}
		return func(row types.Row) (types.Value, error) {
			v, err := e(row)
			if err != nil {
				return types.Null, err
			}
			return types.NewBool(v.IsNull() != x.Not), nil
		}, nil

	case *sqlparser.CaseExpr:
		type arm struct{ cond, then compiledExpr }
		arms := make([]arm, len(x.Whens))
		for i, w := range x.Whens {
			c, err := compile(w.Cond, rel, ctx)
			if err != nil {
				return nil, err
			}
			t, err := compile(w.Then, rel, ctx)
			if err != nil {
				return nil, err
			}
			arms[i] = arm{c, t}
		}
		var elseE compiledExpr
		if x.Else != nil {
			var err error
			if elseE, err = compile(x.Else, rel, ctx); err != nil {
				return nil, err
			}
		}
		return func(row types.Row) (types.Value, error) {
			for _, a := range arms {
				c, err := a.cond(row)
				if err != nil {
					return types.Null, err
				}
				if c.Bool() {
					return a.then(row)
				}
			}
			if elseE != nil {
				return elseE(row)
			}
			return types.Null, nil
		}, nil

	case *sqlparser.FuncCall:
		return compileFunc(x, rel, ctx)

	default:
		return nil, fmt.Errorf("engine: unsupported expression %T", ex)
	}
}

func constExpr(v types.Value) compiledExpr {
	return func(types.Row) (types.Value, error) { return v, nil }
}

// negBig handles negation of share-typed hex literals (token Q values).
func negBig(v types.Value, _ *evalCtx) (types.Value, bool) {
	if v.K == types.KindShare {
		return types.NewShare(new(big.Int).Neg(v.B)), true
	}
	return types.Null, false
}

func numericKind(k types.Kind) bool {
	return k == types.KindInt || k == types.KindDecimal || k == types.KindDate
}

// compatibleKinds reports whether two kinds may be compared.
func compatibleKinds(a, b types.Kind) bool {
	if a == b {
		return true
	}
	return numericKind(a) && numericKind(b)
}

func compileBinary(x *sqlparser.BinaryExpr, rel *relation, ctx *evalCtx) (compiledExpr, error) {
	l, err := compile(x.L, rel, ctx)
	if err != nil {
		return nil, err
	}
	r, err := compile(x.R, rel, ctx)
	if err != nil {
		return nil, err
	}
	op := x.Op
	switch op {
	case "AND":
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null, err
			}
			if !lv.Bool() {
				return types.NewBool(false), nil
			}
			rv, err := r(row)
			if err != nil {
				return types.Null, err
			}
			return types.NewBool(rv.Bool()), nil
		}, nil
	case "OR":
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null, err
			}
			if lv.Bool() {
				return types.NewBool(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return types.Null, err
			}
			return types.NewBool(rv.Bool()), nil
		}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return types.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.NewBool(false), nil
			}
			if !compatibleKinds(lv.K, rv.K) {
				return types.Null, fmt.Errorf("engine: cannot compare %s with %s", lv.K, rv.K)
			}
			c := lv.Compare(rv)
			var out bool
			switch op {
			case "=":
				out = c == 0
			case "!=":
				out = c != 0
			case "<":
				out = c < 0
			case "<=":
				out = c <= 0
			case ">":
				out = c > 0
			case ">=":
				out = c >= 0
			}
			return types.NewBool(out), nil
		}, nil
	case "+", "-", "*", "/", "%":
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return types.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null, nil
			}
			return arith(op, lv, rv)
		}, nil
	case "||":
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return types.Null, err
			}
			return types.NewString(lv.String() + rv.String()), nil
		}, nil
	default:
		return nil, fmt.Errorf("engine: unknown operator %q", op)
	}
}

// arith performs plaintext int64-backed arithmetic. The result kind is
// decimal if either side is decimal, date if date±int, else int. Scale
// bookkeeping happens at the proxy; the engine works on scaled integers.
func arith(op string, a, b types.Value) (types.Value, error) {
	if !numericKind(a.K) || !numericKind(b.K) {
		return types.Null, fmt.Errorf("engine: %s %s %s not numeric", a.K, op, b.K)
	}
	outKind := types.KindInt
	if a.K == types.KindDecimal || b.K == types.KindDecimal {
		outKind = types.KindDecimal
	}
	if a.K == types.KindDate || b.K == types.KindDate {
		outKind = types.KindDate
		if op == "-" && a.K == types.KindDate && b.K == types.KindDate {
			outKind = types.KindInt // date difference is days
		}
	}
	var v int64
	switch op {
	case "+":
		v = a.I + b.I
	case "-":
		v = a.I - b.I
	case "*":
		v = a.I * b.I
	case "/":
		if b.I == 0 {
			return types.Null, nil
		}
		v = a.I / b.I
	case "%":
		if b.I == 0 {
			return types.Null, nil
		}
		v = a.I % b.I
	}
	return types.Value{K: outKind, I: v}, nil
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) bool {
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	if p == "" {
		return s == ""
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeRec(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && likeRec(s[1:], p[1:])
	default:
		return s != "" && s[0] == p[0] && likeRec(s[1:], p[1:])
	}
}

// compileFunc handles scalar functions, including the SDB UDFs. Aggregates
// are intercepted earlier by the aggregation planner; reaching one here is
// a mis-placed aggregate.
func compileFunc(x *sqlparser.FuncCall, rel *relation, ctx *evalCtx) (compiledExpr, error) {
	if isAggregateName(x.Name) {
		return nil, fmt.Errorf("engine: aggregate %s not allowed here", x.Name)
	}
	if isShareUDF(x.Name) {
		// The SDB UDFs: arithmetic over the modulus passed in-query, exactly
		// as the paper's sdb_multiply(Ae, Be, n), compiled as a row program.
		return compileShareExpr(x, rel, ctx)
	}
	args := make([]compiledExpr, len(x.Args))
	for i, a := range x.Args {
		var err error
		if args[i], err = compile(a, rel, ctx); err != nil {
			return nil, err
		}
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("engine: %s expects %d args, got %d", x.Name, n, len(args))
		}
		return nil
	}

	switch strings.ToLower(x.Name) {
	// ---- plaintext scalar helpers used by the TPC-H workload.
	case "year":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(row types.Row) (types.Value, error) {
			v, err := args[0](row)
			if err != nil || v.IsNull() {
				return types.Null, err
			}
			if v.K != types.KindDate {
				return types.Null, fmt.Errorf("engine: year() needs DATE, got %s", v.K)
			}
			return types.NewInt(int64(time.Unix(v.I*86400, 0).UTC().Year())), nil
		}, nil

	case "substr", "substring":
		if err := need(3); err != nil {
			return nil, err
		}
		return func(row types.Row) (types.Value, error) {
			s, err := args[0](row)
			if err != nil || s.IsNull() {
				return types.Null, err
			}
			from, err := args[1](row)
			if err != nil {
				return types.Null, err
			}
			length, err := args[2](row)
			if err != nil {
				return types.Null, err
			}
			str := s.S
			start := int(from.I) - 1 // SQL is 1-based
			if start < 0 {
				start = 0
			}
			if start > len(str) {
				return types.NewString(""), nil
			}
			end := start + int(length.I)
			if end > len(str) {
				end = len(str)
			}
			return types.NewString(str[start:end]), nil
		}, nil

	case "length":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(row types.Row) (types.Value, error) {
			v, err := args[0](row)
			if err != nil || v.IsNull() {
				return types.Null, err
			}
			return types.NewInt(int64(len(v.S))), nil
		}, nil

	default:
		return nil, fmt.Errorf("engine: unknown function %q", x.Name)
	}
}

// evalConst evaluates an expression with no column references.
func evalConst(ex sqlparser.Expr, ctx *evalCtx) (types.Value, error) {
	if v, ok := literalValue(ex); ok {
		return v, nil
	}
	empty := &relation{}
	c, err := compile(ex, empty, ctx)
	if err != nil {
		return types.Null, err
	}
	return c(nil)
}

// EvalConstExpr evaluates a constant expression (no column references).
// The proxy's rewriter uses it to fold literals.
func EvalConstExpr(ex sqlparser.Expr) (types.Value, error) {
	return evalConst(ex, &evalCtx{})
}
