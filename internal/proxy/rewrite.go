package proxy

import (
	"fmt"
	"math/big"
	"strings"

	"sdb/internal/bigmod"
	"sdb/internal/engine"
	"sdb/internal/secure"
	"sdb/internal/sqlparser"
	"sdb/internal/types"
)

// factor is one multiplicative component of a share's item key. A factor
// with an empty alias is flat (x = 0): its item key does not depend on any
// row id, so no row helper is needed to transform or decrypt it.
type factor struct {
	alias string
	key   secure.ColumnKey
}

// encInfo describes an encrypted rewritten expression: the product
// structure of its item key and the base-table aliases it draws from
// (used to source comparison masks).
type encInfo struct {
	factors []factor
	aliases []string
}

func (e *encInfo) isFlat() bool {
	return len(e.factors) == 1 && e.factors[0].alias == ""
}

func (e *encInfo) flatKey() secure.ColumnKey { return e.factors[0].key }

// rval is the result of rewriting a scalar expression: either a plaintext
// expression (enc == nil) or a share-producing expression with key
// bookkeeping. scale/kind describe the logical plaintext type either way.
type rval struct {
	expr     sqlparser.Expr
	enc      *encInfo
	scale    int
	kind     types.Kind
	constVal *types.Value // non-nil when expr is a plain literal constant
}

func (r *rval) isConst() bool { return r.enc == nil && r.constVal != nil }

// scopeCol is one addressable column during rewriting.
type scopeCol struct {
	name      string
	kind      types.Kind
	scale     int
	sensitive bool
	flat      bool // derived flat share (from a subquery)
	key       secure.ColumnKey
}

// scope is one FROM-clause binding (a base table or derived table).
type scope struct {
	alias   string
	cols    []scopeCol
	hasAux  bool // base tables have row_id / sdb_w / sdb_mask
	maskKey secure.ColumnKey
}

// rewriter rewrites one SELECT. It is not reused across statements.
type rewriter struct {
	p      *Proxy
	scopes []*scope
	tables []string // every table a scope reads, derived tables' included
	// groupFlat maps the String() of an original GROUP BY expression to
	// its flattened rewrite, so projections reuse the identical expression.
	groupFlat map[string]*rval
	// grouped is true while rewriting HAVING (masks become SUM(mask tag)).
	grouped bool
	// sumKeys is the flat key of each encrypted SUM by its canonical
	// argument and DISTINCT, so identical aggregates — Q1's SUM(x) and the
	// SUM inside AVG(x), a SUM repeated in HAVING — rewrite to identical
	// SQL and the SP computes each once.
	sumKeys map[string]secure.ColumnKey
}

// sumKey returns the flat key of the encrypted SUM of arg, minting it on
// first use.
func (rw *rewriter) sumKey(arg sqlparser.Expr, distinct bool) (secure.ColumnKey, error) {
	k := fmt.Sprintf("%t:%s", distinct, arg)
	if t, ok := rw.sumKeys[k]; ok {
		return t, nil
	}
	t, err := rw.p.secret.FlatKey()
	if err != nil {
		return secure.ColumnKey{}, err
	}
	if rw.sumKeys == nil {
		rw.sumKeys = map[string]secure.ColumnKey{}
	}
	rw.sumKeys[k] = t
	return t, nil
}

func (rw *rewriter) n() *big.Int { return rw.p.secret.N() }

func (rw *rewriter) nHex() sqlparser.Expr { return sqlparser.HexLit{V: rw.n()} }

func (rw *rewriter) findScope(alias string) *scope {
	for _, s := range rw.scopes {
		if strings.EqualFold(s.alias, alias) {
			return s
		}
	}
	return nil
}

// resolveCol finds a column across scopes, enforcing unambiguity.
func (rw *rewriter) resolveCol(table, name string) (*scope, *scopeCol, error) {
	var fs *scope
	var fc *scopeCol
	for _, s := range rw.scopes {
		if table != "" && !strings.EqualFold(s.alias, table) {
			continue
		}
		for i := range s.cols {
			if strings.EqualFold(s.cols[i].name, name) {
				if fc != nil {
					return nil, nil, fmt.Errorf("proxy: ambiguous column %q", name)
				}
				fs, fc = s, &s.cols[i]
			}
		}
	}
	if fc == nil {
		if table != "" {
			return nil, nil, fmt.Errorf("proxy: no column %s.%s", table, name)
		}
		return nil, nil, fmt.Errorf("proxy: no column %q", name)
	}
	return fs, fc, nil
}

// wRef returns the row-helper column reference for an alias.
func wRef(alias string) sqlparser.Expr {
	return sqlparser.ColRef{Table: alias, Name: engine.HelperColumn}
}

// keyUpdateCall emits sdb_keyupdate(e, w, p, q, n).
func (rw *rewriter) keyUpdateCall(e, w sqlparser.Expr, tok secure.Token) sqlparser.Expr {
	return &sqlparser.FuncCall{Name: "sdb_keyupdate", Args: []sqlparser.Expr{
		e, w, sqlparser.HexLit{V: tok.P}, sqlparser.HexLit{V: tok.Q}, rw.nHex(),
	}}
}

// one is the literal share 1, used as the (ignored) helper operand when a
// token has exponent zero.
var one = sqlparser.HexLit{V: big.NewInt(1)}

// flattenEnc rewrites an encrypted rval to a share under the fresh flat key
// target: each row-dependent factor is key-updated away using its own row
// helper, the first one landing on ⟨target.M, 0⟩ and the rest on ⟨1, 0⟩.
func (rw *rewriter) flattenEnc(rv *rval, target secure.ColumnKey) (sqlparser.Expr, error) {
	if rv.enc == nil {
		return nil, fmt.Errorf("proxy: flattenEnc on plaintext expression")
	}
	expr := rv.expr
	if rv.enc.isFlat() {
		from := rv.enc.flatKey()
		tok, err := rw.p.secret.KeyUpdateToken(from, target)
		if err != nil {
			return nil, err
		}
		return rw.keyUpdateCall(expr, one, tok), nil
	}
	for i, f := range rv.enc.factors {
		to := secure.ColumnKey{M: big.NewInt(1), X: new(big.Int)}
		if i == 0 {
			to = secure.ColumnKey{M: target.M, X: new(big.Int)}
		}
		tok, err := rw.p.secret.KeyUpdateToken(f.key, to)
		if err != nil {
			return nil, err
		}
		w := one
		if f.alias != "" {
			expr = rw.keyUpdateCall(expr, wRef(f.alias), tok)
			continue
		}
		expr = rw.keyUpdateCall(expr, w, tok)
	}
	return expr, nil
}

// constTag returns the flat share of a plaintext constant under target:
// encode(c) · target.M⁻¹ mod n, computed entirely at the proxy so the SP
// never sees c.
func (rw *rewriter) constTag(c types.Value, target secure.ColumnKey) (sqlparser.Expr, error) {
	if !numericValue(c) {
		return nil, fmt.Errorf("proxy: constant %s is not numeric", c.K)
	}
	enc, err := rw.p.secret.Domain().Encode(big.NewInt(c.I))
	if err != nil {
		return nil, err
	}
	inv, err := bigmod.Inv(target.M, rw.n())
	if err != nil {
		return nil, err
	}
	return sqlparser.HexLit{V: bigmod.Mul(enc, inv, rw.n())}, nil
}

func numericValue(v types.Value) bool {
	return v.K == types.KindInt || v.K == types.KindDecimal || v.K == types.KindDate
}

// makeFlatUnder rewrites any operand — encrypted, constant, or the special
// const×plain shape — into a flat share under target. Plain non-constant
// expressions are only allowed in the const×plain shape, where the SP
// multiplies a proxy-made const tag by a plaintext value (sdb_scale): this
// never reveals key material because the constant itself stays hidden.
func (rw *rewriter) makeFlatUnder(orig sqlparser.Expr, rv *rval, target secure.ColumnKey) (sqlparser.Expr, error) {
	if rv.enc != nil {
		return rw.flattenEnc(rv, target)
	}
	if rv.constVal != nil {
		return rw.constTag(*rv.constVal, target)
	}
	// const × plain pattern?
	if be, ok := orig.(*sqlparser.BinaryExpr); ok && be.Op == "*" {
		lv, lerr := rw.rewriteScalar(be.L)
		rvr, rerr := rw.rewriteScalar(be.R)
		if lerr == nil && rerr == nil {
			var constSide *rval
			var plainExpr sqlparser.Expr
			switch {
			case lv.isConst() && rvr.enc == nil:
				constSide, plainExpr = lv, rvr.expr
			case rvr.isConst() && lv.enc == nil:
				constSide, plainExpr = rvr, lv.expr
			}
			if constSide != nil {
				tag, err := rw.constTag(*constSide.constVal, target)
				if err != nil {
					return nil, err
				}
				return &sqlparser.FuncCall{Name: "sdb_scale", Args: []sqlparser.Expr{tag, plainExpr, rw.nHex()}}, nil
			}
		}
	}
	return nil, fmt.Errorf("proxy: cannot combine plaintext expression %s with encrypted operands; mark the column SENSITIVE or move it out of the encrypted term", orig)
}

// maskTag returns a flat share of a random positive mask for the given
// origin aliases, plus its flat key. Inside HAVING (grouped), the per-row
// mask tags are summed per group — the sum of positive masks is positive,
// so the sign test stays valid.
func (rw *rewriter) maskTag(aliases []string) (sqlparser.Expr, secure.ColumnKey, error) {
	var src *scope
	for _, a := range aliases {
		if s := rw.findScope(a); s != nil && s.hasAux {
			src = s
			break
		}
	}
	if src == nil {
		for _, s := range rw.scopes {
			if s.hasAux {
				src = s
				break
			}
		}
	}
	mt, err := rw.p.secret.FlatKey()
	if err != nil {
		return nil, secure.ColumnKey{}, err
	}
	if src == nil {
		// No base table in scope (e.g. comparisons over derived tables):
		// fall back to a proxy-generated random mask, constant across rows
		// for this query. Weaker than per-row masks (relative magnitudes
		// of differences leak within one query) but still hides absolute
		// values; see DESIGN.md §5.
		mv, err := rw.p.secret.NewMaskValue()
		if err != nil {
			return nil, secure.ColumnKey{}, err
		}
		inv, err := bigmod.Inv(mt.M, rw.n())
		if err != nil {
			return nil, secure.ColumnKey{}, err
		}
		return sqlparser.HexLit{V: bigmod.Mul(mv, inv, rw.n())}, mt, nil
	}
	tok, err := rw.p.secret.KeyUpdateToken(src.maskKey, mt)
	if err != nil {
		return nil, secure.ColumnKey{}, err
	}
	tag := rw.keyUpdateCall(
		sqlparser.ColRef{Table: src.alias, Name: MaskColumn},
		wRef(src.alias), tok,
	)
	if rw.grouped {
		tag = &sqlparser.FuncCall{Name: "sum", Args: []sqlparser.Expr{tag}}
	}
	return tag, mt, nil
}

// alignScales multiplies the lower-scale operand by 10^Δ so both operands
// share a decimal scale; for encrypted operands this is free (plaintext
// multiplication is key bookkeeping only).
func (rw *rewriter) alignScales(l, r *rval) error {
	if l.scale == r.scale {
		return nil
	}
	lo, hi := l, r
	if lo.scale > hi.scale {
		lo, hi = hi, lo
	}
	delta := pow10(hi.scale - lo.scale)
	if err := rw.scaleBy(lo, delta); err != nil {
		return err
	}
	lo.scale = hi.scale
	return nil
}

// scaleBy multiplies an rval by a positive plaintext constant in place.
func (rw *rewriter) scaleBy(rv *rval, c int64) error {
	if c == 1 {
		return nil
	}
	if rv.enc == nil {
		if rv.constVal != nil {
			nv := *rv.constVal
			nv.I *= c
			rv.constVal = &nv
			rv.expr = scaledLit(rv.expr, nv)
			return nil
		}
		rv.expr = &sqlparser.BinaryExpr{Op: "*", L: rv.expr, R: sqlparser.IntLit{V: c}}
		return nil
	}
	// Encrypted: fold into the first factor's key (free at the SP).
	f := &rv.enc.factors[0]
	nk, err := rw.p.secret.MulPlainKey(f.key, big.NewInt(c))
	if err != nil {
		return err
	}
	f.key = nk
	return nil
}

// scaledLit re-renders a scaled constant literal.
func scaledLit(orig sqlparser.Expr, v types.Value) sqlparser.Expr {
	switch v.K {
	case types.KindInt:
		return sqlparser.IntLit{V: v.I}
	default:
		return sqlparser.IntLit{V: v.I} // scaled representation; scale tracked in rval
	}
}

// mulRV multiplies two rewritten operands.
func (rw *rewriter) mulRV(l, r *rval) (*rval, error) {
	outScale := l.scale + r.scale
	outKind := types.KindInt
	if l.kind == types.KindDecimal || r.kind == types.KindDecimal {
		outKind = types.KindDecimal
	}

	if l.enc == nil && r.enc == nil {
		out := &rval{expr: &sqlparser.BinaryExpr{Op: "*", L: l.expr, R: r.expr}, scale: outScale, kind: outKind}
		if l.constVal != nil && r.constVal != nil {
			v := types.Value{K: outKind, I: l.constVal.I * r.constVal.I}
			out.constVal = &v
			out.expr = sqlparser.IntLit{V: v.I}
		}
		return out, nil
	}

	// Put the encrypted operand in e, the other in o (with its AST).
	e, o := l, r
	if e.enc == nil {
		e, o = r, l
	}

	switch {
	case o.enc != nil:
		// EE multiplication: one modular multiply at the SP, factor merge
		// at the proxy (same-alias factors combine via MulKeys).
		merged := append([]factor{}, e.enc.factors...)
	outer:
		for _, rf := range o.enc.factors {
			for i := range merged {
				if merged[i].alias == rf.alias {
					merged[i].key = rw.p.secret.MulKeys(merged[i].key, rf.key)
					continue outer
				}
			}
			merged = append(merged, rf)
		}
		return &rval{
			expr:  &sqlparser.FuncCall{Name: "sdb_mul", Args: []sqlparser.Expr{e.expr, o.expr, rw.nHex()}},
			enc:   &encInfo{factors: merged, aliases: unionAliases(e.enc.aliases, o.enc.aliases)},
			scale: outScale, kind: outKind,
		}, nil

	case o.isConst():
		// EP multiplication by constant: zero SP work, key bookkeeping only.
		if o.constVal.I == 0 {
			z := types.Value{K: outKind, I: 0}
			return &rval{expr: sqlparser.IntLit{V: 0}, scale: outScale, kind: outKind, constVal: &z}, nil
		}
		enc := &encInfo{factors: append([]factor{}, e.enc.factors...), aliases: e.enc.aliases}
		nk, err := rw.p.secret.MulPlainKey(enc.factors[0].key, big.NewInt(o.constVal.I))
		if err != nil {
			return nil, err
		}
		enc.factors[0].key = nk
		return &rval{expr: e.expr, enc: enc, scale: outScale, kind: outKind}, nil

	default:
		// Encrypted × plaintext column: sdb_scale keeps the key unchanged.
		return &rval{
			expr:  &sqlparser.FuncCall{Name: "sdb_scale", Args: []sqlparser.Expr{e.expr, o.expr, rw.nHex()}},
			enc:   &encInfo{factors: append([]factor{}, e.enc.factors...), aliases: e.enc.aliases},
			scale: outScale, kind: outKind,
		}, nil
	}
}

// addRV adds (or subtracts) two rewritten operands.
func (rw *rewriter) addRV(origL, origR sqlparser.Expr, l, r *rval, sub bool) (*rval, error) {
	if err := rw.alignScales(l, r); err != nil {
		return nil, err
	}
	outKind := types.KindInt
	if l.kind == types.KindDecimal || r.kind == types.KindDecimal {
		outKind = types.KindDecimal
	}
	if l.kind == types.KindDate || r.kind == types.KindDate {
		outKind = types.KindDate
		if sub && l.kind == types.KindDate && r.kind == types.KindDate {
			outKind = types.KindInt
		}
	}
	op := "+"
	fn := "sdb_add"
	if sub {
		op, fn = "-", "sdb_sub"
	}

	if l.enc == nil && r.enc == nil {
		out := &rval{expr: &sqlparser.BinaryExpr{Op: op, L: l.expr, R: r.expr}, scale: l.scale, kind: outKind}
		if l.constVal != nil && r.constVal != nil {
			i := l.constVal.I + r.constVal.I
			if sub {
				i = l.constVal.I - r.constVal.I
			}
			v := types.Value{K: outKind, I: i}
			out.constVal = &v
			out.expr = sqlparser.IntLit{V: v.I}
		}
		return out, nil
	}

	// Same-alias single-factor EE addition can stay row-keyed (no
	// determinism leak): key-update both to a fresh random key.
	if l.enc != nil && r.enc != nil &&
		len(l.enc.factors) == 1 && len(r.enc.factors) == 1 &&
		l.enc.factors[0].alias != "" && l.enc.factors[0].alias == r.enc.factors[0].alias {
		alias := l.enc.factors[0].alias
		target, err := rw.p.secret.NewColumnKey()
		if err != nil {
			return nil, err
		}
		tokL, err := rw.p.secret.KeyUpdateToken(l.enc.factors[0].key, target)
		if err != nil {
			return nil, err
		}
		tokR, err := rw.p.secret.KeyUpdateToken(r.enc.factors[0].key, target)
		if err != nil {
			return nil, err
		}
		expr := &sqlparser.FuncCall{Name: fn, Args: []sqlparser.Expr{
			rw.keyUpdateCall(l.expr, wRef(alias), tokL),
			rw.keyUpdateCall(r.expr, wRef(alias), tokR),
			rw.nHex(),
		}}
		return &rval{
			expr:  expr,
			enc:   &encInfo{factors: []factor{{alias: alias, key: target}}, aliases: unionAliases(l.enc.aliases, r.enc.aliases)},
			scale: l.scale, kind: outKind,
		}, nil
	}

	// General case: both sides become flat shares under one fresh flat key.
	target, err := rw.p.secret.FlatKey()
	if err != nil {
		return nil, err
	}
	le, err := rw.makeFlatUnder(origL, l, target)
	if err != nil {
		return nil, err
	}
	re, err := rw.makeFlatUnder(origR, r, target)
	if err != nil {
		return nil, err
	}
	var aliases []string
	if l.enc != nil {
		aliases = unionAliases(aliases, l.enc.aliases)
	}
	if r.enc != nil {
		aliases = unionAliases(aliases, r.enc.aliases)
	}
	return &rval{
		expr:  &sqlparser.FuncCall{Name: fn, Args: []sqlparser.Expr{le, re, rw.nHex()}},
		enc:   &encInfo{factors: []factor{{key: target}}, aliases: aliases},
		scale: l.scale, kind: outKind,
	}, nil
}

// cmpRV rewrites a comparison with at least one encrypted side.
func (rw *rewriter) cmpRV(op string, origL, origR sqlparser.Expr, l, r *rval) (sqlparser.Expr, error) {
	if err := rw.alignScales(l, r); err != nil {
		return nil, err
	}
	target, err := rw.p.secret.FlatKey()
	if err != nil {
		return nil, err
	}
	le, err := rw.makeFlatUnder(origL, l, target)
	if err != nil {
		return nil, err
	}
	re, err := rw.makeFlatUnder(origR, r, target)
	if err != nil {
		return nil, err
	}

	// Equality compares deterministic tags directly (hash-joinable).
	if op == "=" || op == "!=" {
		return &sqlparser.BinaryExpr{Op: op, L: le, R: re}, nil
	}

	// Order comparison: sign((L−R)·mask) via the masked-reveal protocol.
	var aliases []string
	if l.enc != nil {
		aliases = unionAliases(aliases, l.enc.aliases)
	}
	if r.enc != nil {
		aliases = unionAliases(aliases, r.enc.aliases)
	}
	mtag, mt, err := rw.maskTag(aliases)
	if err != nil {
		return nil, err
	}
	diff := &sqlparser.FuncCall{Name: "sdb_sub", Args: []sqlparser.Expr{le, re, rw.nHex()}}
	masked := &sqlparser.FuncCall{Name: "sdb_mul", Args: []sqlparser.Expr{diff, mtag, rw.nHex()}}
	reveal := bigmod.Mul(target.M, mt.M, rw.n())
	sign := &sqlparser.FuncCall{Name: "sdb_sign", Args: []sqlparser.Expr{
		masked, one, sqlparser.HexLit{V: reveal}, sqlparser.HexLit{V: new(big.Int)}, rw.nHex(),
	}}
	switch op {
	case "<":
		return &sqlparser.BinaryExpr{Op: "=", L: sign, R: sqlparser.IntLit{V: -1}}, nil
	case "<=":
		return &sqlparser.BinaryExpr{Op: "<=", L: sign, R: sqlparser.IntLit{V: 0}}, nil
	case ">":
		return &sqlparser.BinaryExpr{Op: "=", L: sign, R: sqlparser.IntLit{V: 1}}, nil
	case ">=":
		return &sqlparser.BinaryExpr{Op: ">=", L: sign, R: sqlparser.IntLit{V: 0}}, nil
	default:
		return nil, fmt.Errorf("proxy: unsupported comparison %q on encrypted data", op)
	}
}

func unionAliases(a, b []string) []string {
	out := append([]string{}, a...)
	for _, x := range b {
		found := false
		for _, y := range out {
			if y == x {
				found = true
				break
			}
		}
		if !found {
			out = append(out, x)
		}
	}
	return out
}
