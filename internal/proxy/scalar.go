package proxy

import (
	"fmt"
	"strings"

	"sdb/internal/bigmod"
	"sdb/internal/sqlparser"
	"sdb/internal/types"
)

// rewriteScalar rewrites one scalar expression, returning either a plain
// rewritten expression or a share-producing one with key bookkeeping.
func (rw *rewriter) rewriteScalar(ex sqlparser.Expr) (*rval, error) {
	// GROUP BY expressions were flattened once; reuse the identical
	// rewrite so the engine's group-key substitution matches.
	if rw.groupFlat != nil {
		if rv, ok := rw.groupFlat[ex.String()]; ok {
			return rv, nil
		}
	}

	switch x := ex.(type) {
	case sqlparser.IntLit:
		v := types.NewInt(x.V)
		return &rval{expr: x, kind: types.KindInt, constVal: &v}, nil
	case sqlparser.DecLit:
		v := types.NewDecimal(x.Scaled)
		return &rval{expr: sqlparser.IntLit{V: x.Scaled}, kind: types.KindDecimal, scale: x.Scale, constVal: &v}, nil
	case sqlparser.StrLit:
		v := types.NewString(x.V)
		return &rval{expr: x, kind: types.KindString, constVal: &v}, nil
	case sqlparser.DateLit:
		v := types.NewDate(x.Days)
		return &rval{expr: x, kind: types.KindDate, constVal: &v}, nil
	case sqlparser.BoolLit:
		v := types.NewBool(x.V)
		return &rval{expr: x, kind: types.KindBool, constVal: &v}, nil
	case sqlparser.NullLit:
		v := types.Null
		return &rval{expr: x, kind: types.KindNull, constVal: &v}, nil
	case sqlparser.HexLit:
		return nil, fmt.Errorf("proxy: hex literals are reserved for rewritten queries")

	case sqlparser.ColRef:
		sc, col, err := rw.resolveCol(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		ref := sqlparser.ColRef{Table: sc.alias, Name: col.name}
		if !col.sensitive {
			return &rval{expr: ref, kind: col.kind, scale: col.scale}, nil
		}
		f := factor{alias: sc.alias, key: col.key}
		if col.flat {
			f.alias = ""
		}
		return &rval{
			expr:  ref,
			enc:   &encInfo{factors: []factor{f}, aliases: []string{sc.alias}},
			kind:  col.kind,
			scale: col.scale,
		}, nil

	case *sqlparser.BinaryExpr:
		switch x.Op {
		case "+", "-":
			l, err := rw.rewriteScalar(x.L)
			if err != nil {
				return nil, err
			}
			r, err := rw.rewriteScalar(x.R)
			if err != nil {
				return nil, err
			}
			return rw.addRV(x.L, x.R, l, r, x.Op == "-")
		case "*":
			l, err := rw.rewriteScalar(x.L)
			if err != nil {
				return nil, err
			}
			r, err := rw.rewriteScalar(x.R)
			if err != nil {
				return nil, err
			}
			return rw.mulRV(l, r)
		case "/", "%":
			l, err := rw.rewriteScalar(x.L)
			if err != nil {
				return nil, err
			}
			r, err := rw.rewriteScalar(x.R)
			if err != nil {
				return nil, err
			}
			if l.enc != nil || r.enc != nil {
				return nil, fmt.Errorf("proxy: division on encrypted data is not supported server-side; compute the ratio at the client")
			}
			outScale := l.scale - r.scale
			if outScale < 0 {
				outScale = 0
			}
			return &rval{expr: &sqlparser.BinaryExpr{Op: x.Op, L: l.expr, R: r.expr}, kind: l.kind, scale: outScale}, nil
		case "AND", "OR":
			e, err := rw.rewriteBool(x)
			if err != nil {
				return nil, err
			}
			return &rval{expr: e, kind: types.KindBool}, nil
		case "||":
			l, err := rw.rewriteScalar(x.L)
			if err != nil {
				return nil, err
			}
			r, err := rw.rewriteScalar(x.R)
			if err != nil {
				return nil, err
			}
			if l.enc != nil || r.enc != nil {
				return nil, fmt.Errorf("proxy: string concatenation on encrypted data is not supported")
			}
			return &rval{expr: &sqlparser.BinaryExpr{Op: "||", L: l.expr, R: r.expr}, kind: types.KindString}, nil
		default: // comparison operators used as scalars (rare)
			e, err := rw.rewriteBool(x)
			if err != nil {
				return nil, err
			}
			return &rval{expr: e, kind: types.KindBool}, nil
		}

	case *sqlparser.UnaryExpr:
		if x.Op == "NOT" {
			e, err := rw.rewriteBool(x)
			if err != nil {
				return nil, err
			}
			return &rval{expr: e, kind: types.KindBool}, nil
		}
		inner, err := rw.rewriteScalar(x.E)
		if err != nil {
			return nil, err
		}
		minusOne := types.NewInt(-1)
		return rw.mulRV(inner, &rval{expr: sqlparser.IntLit{V: -1}, kind: types.KindInt, constVal: &minusOne})

	case *sqlparser.FuncCall:
		return rw.rewriteFunc(x)

	case *sqlparser.CaseExpr:
		return rw.rewriteCase(x)

	case *sqlparser.BetweenExpr, *sqlparser.InExpr, *sqlparser.LikeExpr, *sqlparser.IsNullExpr:
		e, err := rw.rewriteBool(ex)
		if err != nil {
			return nil, err
		}
		return &rval{expr: e, kind: types.KindBool}, nil

	default:
		return nil, fmt.Errorf("proxy: unsupported expression %T", ex)
	}
}

// rewriteFunc handles aggregates and plaintext scalar functions.
func (rw *rewriter) rewriteFunc(x *sqlparser.FuncCall) (*rval, error) {
	name := strings.ToLower(x.Name)
	switch name {
	case "count":
		out := &sqlparser.FuncCall{Name: "count", Star: x.Star, Distinct: x.Distinct}
		for _, a := range x.Args {
			rv, err := rw.rewriteScalar(a)
			if err != nil {
				return nil, err
			}
			arg := rv.expr
			if rv.enc != nil && x.Distinct {
				// COUNT(DISTINCT enc) must compare deterministic tags.
				t, err := rw.p.secret.FlatKey()
				if err != nil {
					return nil, err
				}
				if arg, err = rw.flattenEnc(rv, t); err != nil {
					return nil, err
				}
			}
			out.Args = append(out.Args, arg)
		}
		return &rval{expr: out, kind: types.KindInt}, nil

	case "sum":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("proxy: SUM expects one argument")
		}
		rv, err := rw.aggArg(x.Args[0])
		if err != nil {
			return nil, err
		}
		if rv.enc == nil {
			return &rval{
				expr:  &sqlparser.FuncCall{Name: "sum", Args: []sqlparser.Expr{rv.expr}, Distinct: x.Distinct},
				kind:  rv.kind,
				scale: rv.scale,
			}, nil
		}
		t, err := rw.sumKey(x.Args[0], x.Distinct)
		if err != nil {
			return nil, err
		}
		tag, err := rw.makeFlatUnder(x.Args[0], rv, t)
		if err != nil {
			return nil, err
		}
		return &rval{
			expr:  &sqlparser.FuncCall{Name: "sum", Args: []sqlparser.Expr{tag}, Distinct: x.Distinct},
			enc:   &encInfo{factors: []factor{{key: t}}, aliases: rv.enc.aliases},
			kind:  rv.kind,
			scale: rv.scale,
		}, nil

	case "avg":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("proxy: AVG expects one argument")
		}
		rv, err := rw.aggArg(x.Args[0])
		if err != nil {
			return nil, err
		}
		if rv.enc != nil {
			return nil, fmt.Errorf("proxy: AVG over encrypted data must be a top-level select item (rewritten to SUM/COUNT)")
		}
		// The engine's AVG carries two extra decimal digits.
		return &rval{
			expr:  &sqlparser.FuncCall{Name: "avg", Args: []sqlparser.Expr{rv.expr}},
			kind:  types.KindDecimal,
			scale: rv.scale + 2,
		}, nil

	case "min", "max":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("proxy: %s expects one argument", name)
		}
		rv, err := rw.aggArg(x.Args[0])
		if err != nil {
			return nil, err
		}
		if rv.enc == nil {
			return &rval{
				expr:  &sqlparser.FuncCall{Name: name, Args: []sqlparser.Expr{rv.expr}},
				kind:  rv.kind,
				scale: rv.scale,
			}, nil
		}
		// Secure extreme: sdb_min/sdb_max over flat tags with per-row
		// mask tags; the winner comes back still encrypted.
		t, err := rw.p.secret.FlatKey()
		if err != nil {
			return nil, err
		}
		tag, err := rw.makeFlatUnder(x.Args[0], rv, t)
		if err != nil {
			return nil, err
		}
		grouped := rw.grouped
		rw.grouped = false // masks for aggregate args are per-row
		mtag, mt, err := rw.maskTag(rv.enc.aliases)
		rw.grouped = grouped
		if err != nil {
			return nil, err
		}
		reveal := sqlparser.HexLit{V: bigmod.Mul(t.M, mt.M, rw.n())}
		return &rval{
			expr: &sqlparser.FuncCall{Name: "sdb_" + name, Args: []sqlparser.Expr{
				tag, mtag, reveal, rw.nHex(),
			}},
			enc:   &encInfo{factors: []factor{{key: t}}, aliases: rv.enc.aliases},
			kind:  rv.kind,
			scale: rv.scale,
		}, nil

	case "year", "substr", "substring", "length":
		out := &sqlparser.FuncCall{Name: name}
		for _, a := range x.Args {
			rv, err := rw.rewriteScalar(a)
			if err != nil {
				return nil, err
			}
			if rv.enc != nil {
				return nil, fmt.Errorf("proxy: %s cannot be applied to encrypted data", name)
			}
			out.Args = append(out.Args, rv.expr)
		}
		kind := types.KindInt
		if name == "substr" || name == "substring" {
			kind = types.KindString
		}
		return &rval{expr: out, kind: kind}, nil

	default:
		return nil, fmt.Errorf("proxy: unknown function %q", x.Name)
	}
}

// aggArg rewrites an aggregate argument with per-row mask semantics even
// when the aggregate itself appears in HAVING.
func (rw *rewriter) aggArg(a sqlparser.Expr) (*rval, error) {
	grouped := rw.grouped
	rw.grouped = false
	defer func() { rw.grouped = grouped }()
	return rw.rewriteScalar(a)
}

// rewriteCase rewrites CASE. If any branch is encrypted, every branch is
// flattened under one fresh flat key (constants become proxy-made tags), so
// the whole CASE yields a flat share — the shape SUM(CASE WHEN … THEN price
// ELSE 0 END) takes in TPC-H Q14.
func (rw *rewriter) rewriteCase(x *sqlparser.CaseExpr) (*rval, error) {
	type armT struct {
		cond sqlparser.Expr
		orig sqlparser.Expr
		rv   *rval
	}
	arms := make([]armT, len(x.Whens))
	anyEnc := false
	for i, w := range x.Whens {
		cond, err := rw.rewriteBool(w.Cond)
		if err != nil {
			return nil, err
		}
		rv, err := rw.rewriteScalar(w.Then)
		if err != nil {
			return nil, err
		}
		arms[i] = armT{cond: cond, orig: w.Then, rv: rv}
		anyEnc = anyEnc || rv.enc != nil
	}
	var elseOrig sqlparser.Expr
	var elseRV *rval
	if x.Else != nil {
		var err error
		elseRV, err = rw.rewriteScalar(x.Else)
		if err != nil {
			return nil, err
		}
		elseOrig = x.Else
		anyEnc = anyEnc || elseRV.enc != nil
	}

	if !anyEnc {
		out := &sqlparser.CaseExpr{}
		var scale int
		kind := types.KindNull
		for _, a := range arms {
			out.Whens = append(out.Whens, sqlparser.WhenClause{Cond: a.cond, Then: a.rv.expr})
			if a.rv.scale > scale {
				scale = a.rv.scale
			}
			if kind == types.KindNull {
				kind = a.rv.kind
			}
		}
		if elseRV != nil {
			out.Else = elseRV.expr
			if elseRV.scale > scale {
				scale = elseRV.scale
			}
		}
		return &rval{expr: out, kind: kind, scale: scale}, nil
	}

	// Align scales across branches, then flatten all under one key.
	maxScale := 0
	kind := types.KindNull
	var aliases []string
	all := arms
	if elseRV != nil {
		all = append(all, armT{orig: elseOrig, rv: elseRV})
	}
	for _, a := range all {
		if a.rv.scale > maxScale {
			maxScale = a.rv.scale
		}
		if kind == types.KindNull || kind == types.KindInt {
			if a.rv.kind != types.KindNull {
				kind = a.rv.kind
			}
		}
		if a.rv.enc != nil {
			aliases = unionAliases(aliases, a.rv.enc.aliases)
		}
	}
	t, err := rw.p.secret.FlatKey()
	if err != nil {
		return nil, err
	}
	out := &sqlparser.CaseExpr{}
	for i := range all {
		a := &all[i]
		if a.rv.scale < maxScale {
			if err := rw.scaleBy(a.rv, pow10(maxScale-a.rv.scale)); err != nil {
				return nil, err
			}
		}
		flat, err := rw.makeFlatUnder(a.orig, a.rv, t)
		if err != nil {
			return nil, err
		}
		if i < len(arms) {
			out.Whens = append(out.Whens, sqlparser.WhenClause{Cond: a.cond, Then: flat})
		} else {
			out.Else = flat
		}
	}
	if x.Else == nil {
		// Missing ELSE would yield NULL; give it the share of zero so
		// sums behave.
		zero := types.NewInt(0)
		tag, err := rw.constTag(zero, t)
		if err != nil {
			return nil, err
		}
		out.Else = tag
	}
	return &rval{
		expr:  out,
		enc:   &encInfo{factors: []factor{{key: t}}, aliases: aliases},
		kind:  kind,
		scale: maxScale,
	}, nil
}

// rewriteBool rewrites a boolean expression (WHERE/HAVING/ON/CASE-cond).
func (rw *rewriter) rewriteBool(ex sqlparser.Expr) (sqlparser.Expr, error) {
	switch x := ex.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			l, err := rw.rewriteBool(x.L)
			if err != nil {
				return nil, err
			}
			r, err := rw.rewriteBool(x.R)
			if err != nil {
				return nil, err
			}
			return &sqlparser.BinaryExpr{Op: x.Op, L: l, R: r}, nil
		case "=", "!=", "<", "<=", ">", ">=":
			return rw.rewriteCmp(x.Op, x.L, x.R)
		default:
			return nil, fmt.Errorf("proxy: operator %q is not boolean", x.Op)
		}

	case *sqlparser.UnaryExpr:
		if x.Op != "NOT" {
			return nil, fmt.Errorf("proxy: operator %q is not boolean", x.Op)
		}
		inner, err := rw.rewriteBool(x.E)
		if err != nil {
			return nil, err
		}
		return &sqlparser.UnaryExpr{Op: "NOT", E: inner}, nil

	case *sqlparser.BetweenExpr:
		// e BETWEEN lo AND hi expands so encrypted comparisons rewrite
		// uniformly.
		lo := &sqlparser.BinaryExpr{Op: ">=", L: x.E, R: x.Lo}
		hi := &sqlparser.BinaryExpr{Op: "<=", L: x.E, R: x.Hi}
		both := &sqlparser.BinaryExpr{Op: "AND", L: lo, R: hi}
		if x.Not {
			return rw.rewriteBool(&sqlparser.UnaryExpr{Op: "NOT", E: both})
		}
		return rw.rewriteBool(both)

	case *sqlparser.InExpr:
		rv, err := rw.rewriteScalar(x.E)
		if err != nil {
			return nil, err
		}
		if rv.enc == nil {
			out := &sqlparser.InExpr{E: rv.expr, Not: x.Not}
			for _, item := range x.List {
				iv, err := rw.rewriteScalar(item)
				if err != nil {
					return nil, err
				}
				if iv.enc != nil {
					return nil, fmt.Errorf("proxy: encrypted IN-list items are not supported")
				}
				if err := rw.alignPair(rv, iv); err != nil {
					return nil, err
				}
				out.List = append(out.List, iv.expr)
			}
			return out, nil
		}
		// Encrypted: one flat key for the column, tags for each constant.
		t, err := rw.p.secret.FlatKey()
		if err != nil {
			return nil, err
		}
		tag, err := rw.flattenEnc(rv, t)
		if err != nil {
			return nil, err
		}
		out := &sqlparser.InExpr{E: tag, Not: x.Not}
		for _, item := range x.List {
			iv, err := rw.rewriteScalar(item)
			if err != nil {
				return nil, err
			}
			if !iv.isConst() {
				return nil, fmt.Errorf("proxy: IN on encrypted column requires constant list items")
			}
			if err := rw.alignPair(rv, iv); err != nil {
				return nil, err
			}
			ct, err := rw.constTag(*iv.constVal, t)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, ct)
		}
		return out, nil

	case *sqlparser.LikeExpr:
		e, err := rw.rewriteScalar(x.E)
		if err != nil {
			return nil, err
		}
		p, err := rw.rewriteScalar(x.Pattern)
		if err != nil {
			return nil, err
		}
		if e.enc != nil || p.enc != nil {
			return nil, fmt.Errorf("proxy: LIKE on encrypted data is not supported")
		}
		return &sqlparser.LikeExpr{E: e.expr, Pattern: p.expr, Not: x.Not}, nil

	case *sqlparser.IsNullExpr:
		e, err := rw.rewriteScalar(x.E)
		if err != nil {
			return nil, err
		}
		return &sqlparser.IsNullExpr{E: e.expr, Not: x.Not}, nil

	case sqlparser.BoolLit:
		return x, nil

	default:
		return nil, fmt.Errorf("proxy: expected boolean expression, got %s", ex)
	}
}

// rewriteCmp rewrites one comparison, with type coercion (date strings) and
// scale alignment; encrypted sides route through the secure protocol.
func (rw *rewriter) rewriteCmp(op string, origL, origR sqlparser.Expr) (sqlparser.Expr, error) {
	l, err := rw.rewriteScalar(origL)
	if err != nil {
		return nil, err
	}
	r, err := rw.rewriteScalar(origR)
	if err != nil {
		return nil, err
	}
	// Coerce string literals against DATE operands.
	if l.kind == types.KindDate && r.isConst() && r.constVal.K == types.KindString {
		d, err := types.ParseDate(r.constVal.S)
		if err != nil {
			return nil, err
		}
		r = &rval{expr: sqlparser.DateLit{Days: d.I}, kind: types.KindDate, constVal: &d}
	}
	if r.kind == types.KindDate && l.isConst() && l.constVal.K == types.KindString {
		d, err := types.ParseDate(l.constVal.S)
		if err != nil {
			return nil, err
		}
		l = &rval{expr: sqlparser.DateLit{Days: d.I}, kind: types.KindDate, constVal: &d}
	}

	if l.enc == nil && r.enc == nil {
		if err := rw.alignPair(l, r); err != nil {
			return nil, err
		}
		return &sqlparser.BinaryExpr{Op: op, L: l.expr, R: r.expr}, nil
	}
	return rw.cmpRV(op, origL, origR, l, r)
}

// alignPair aligns decimal scales for plaintext comparisons.
func (rw *rewriter) alignPair(l, r *rval) error {
	if l.kind != types.KindDecimal && r.kind != types.KindDecimal {
		return nil
	}
	return rw.alignScales(l, r)
}
