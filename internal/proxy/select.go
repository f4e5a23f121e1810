package proxy

import (
	"fmt"
	"strings"

	"sdb/internal/secure"
	"sdb/internal/sqlparser"
	"sdb/internal/types"
)

// outMode says how the proxy decrypts one server-result column.
type outMode int

const (
	// omPlain: value arrives in plaintext.
	omPlain outMode = iota
	// omRowKey: share whose item key is a product over per-alias row ids;
	// the proxy regenerates each factor's item key from the row id columns
	// shipped alongside (the paper's "row-id added to the rewritten
	// query", §2.2).
	omRowKey
	// omFlat: share under a flat key (aggregates, tags); row-independent.
	omFlat
	// omAvg: pairs a flat SUM column with a COUNT column; the proxy
	// divides after decryption.
	omAvg
)

// outCol is the decryption plan for one server-result column.
type outCol struct {
	name    string
	kind    types.Kind
	scale   int
	mode    outMode
	factors []factor         // omRowKey
	rids    []int            // omRowKey: server column of the row id of each factor with an alias, in factor order
	flatKey secure.ColumnKey // omFlat / omAvg (the SUM part)
	cntIdx  int              // omAvg: server column index of COUNT
	hidden  bool
}

// postKey is a client-side ORDER BY key over decrypted output.
type postKey struct {
	srvIdx int
	desc   bool
}

// selectPlan drives result decryption and post-processing. Columns marked
// hidden (row ids, deferred order keys, AVG counts) are consumed during
// decryption and stripped from the user-visible result.
type selectPlan struct {
	// tables are the tables whose keys the plan embeds: the key locks an
	// execution holds until the SP pins its snapshot.
	tables    []string
	out       []outCol
	postOrder []postKey
	postLimit *int64
}

// rewriteSelect rewrites one SELECT statement. When forSubquery is set,
// row-keyed outputs are flattened instead (derived tables cannot carry
// per-alias row ids upward) and post-processing is disallowed.
func (rw *rewriter) rewriteSelect(s *sqlparser.Select, forSubquery bool) (*sqlparser.Select, *selectPlan, error) {
	out := &sqlparser.Select{Distinct: s.Distinct, Limit: s.Limit}
	plan := &selectPlan{}

	// 1. FROM: build scopes and rewritten refs.
	for _, ref := range s.From {
		rref, err := rw.buildScope(ref)
		if err != nil {
			return nil, nil, err
		}
		out.From = append(out.From, rref)
	}

	// 2. Expand SELECT *.
	items, err := rw.expandStars(s.Items)
	if err != nil {
		return nil, nil, err
	}

	// 3. GROUP BY (flatten sensitive keys; record for reuse).
	rw.groupFlat = make(map[string]*rval)
	for _, g := range s.GroupBy {
		rv, err := rw.rewriteScalar(g)
		if err != nil {
			return nil, nil, err
		}
		if rv.enc != nil && !rv.enc.isFlat() {
			t, err := rw.p.secret.FlatKey()
			if err != nil {
				return nil, nil, err
			}
			fe, err := rw.flattenEnc(rv, t)
			if err != nil {
				return nil, nil, err
			}
			rv = &rval{
				expr:  fe,
				enc:   &encInfo{factors: []factor{{key: t}}, aliases: rv.enc.aliases},
				kind:  rv.kind,
				scale: rv.scale,
			}
		}
		rw.groupFlat[g.String()] = rv
		out.GroupBy = append(out.GroupBy, rv.expr)
	}

	// 4. SELECT items.
	for _, item := range items {
		// Top-level AVG over encrypted data decomposes into SUM + COUNT.
		if fc, ok := item.Expr.(*sqlparser.FuncCall); ok && strings.EqualFold(fc.Name, "avg") && len(fc.Args) == 1 {
			if rv, err := rw.aggArg(fc.Args[0]); err == nil && rv.enc != nil {
				sumRV, err := rw.rewriteFunc(&sqlparser.FuncCall{Name: "sum", Args: fc.Args})
				if err != nil {
					return nil, nil, err
				}
				cntRV, err := rw.rewriteFunc(&sqlparser.FuncCall{Name: "count", Args: fc.Args})
				if err != nil {
					return nil, nil, err
				}
				name := itemName(item, len(plan.out))
				sumIdx := len(plan.out)
				out.Items = append(out.Items, sqlparser.SelectItem{Expr: sumRV.expr, Alias: fmt.Sprintf("_s%d", sumIdx)})
				out.Items = append(out.Items, sqlparser.SelectItem{Expr: cntRV.expr, Alias: fmt.Sprintf("_s%d", sumIdx+1)})
				plan.out = append(plan.out, outCol{
					name: name, kind: rv.kind, scale: rv.scale + 2,
					mode: omAvg, flatKey: sumRV.enc.flatKey(), cntIdx: sumIdx + 1,
				})
				plan.out = append(plan.out, outCol{name: "_cnt", kind: types.KindInt, mode: omPlain, hidden: true})
				continue
			}
		}

		rv, err := rw.rewriteScalar(item.Expr)
		if err != nil {
			return nil, nil, err
		}
		// DISTINCT or subquery output must be deterministic: flatten.
		if rv.enc != nil && !rv.enc.isFlat() && (s.Distinct || forSubquery) {
			t, err := rw.p.secret.FlatKey()
			if err != nil {
				return nil, nil, err
			}
			fe, err := rw.flattenEnc(rv, t)
			if err != nil {
				return nil, nil, err
			}
			rv = &rval{expr: fe, enc: &encInfo{factors: []factor{{key: t}}, aliases: rv.enc.aliases}, kind: rv.kind, scale: rv.scale}
		}
		name := itemName(item, len(plan.out))
		oc := outCol{name: name, kind: rv.kind, scale: rv.scale, mode: omPlain}
		if rv.enc != nil {
			if rv.enc.isFlat() {
				oc.mode = omFlat
				oc.flatKey = rv.enc.flatKey()
			} else {
				oc.mode = omRowKey
				oc.factors = rv.enc.factors
			}
		}
		out.Items = append(out.Items, sqlparser.SelectItem{Expr: rv.expr, Alias: fmt.Sprintf("_s%d", len(plan.out))})
		plan.out = append(plan.out, oc)
	}
	// 5. WHERE.
	if s.Where != nil {
		grouped := rw.grouped
		rw.grouped = false
		w, err := rw.rewriteBool(s.Where)
		rw.grouped = grouped
		if err != nil {
			return nil, nil, err
		}
		out.Where = w
	}

	// 6. HAVING (masks become per-group SUMs).
	if s.Having != nil {
		rw.grouped = true
		h, err := rw.rewriteBool(s.Having)
		rw.grouped = false
		if err != nil {
			return nil, nil, err
		}
		out.Having = h
	}

	// 7. ORDER BY: sensitive keys are deferred to the proxy (decrypt, then
	// sort); plaintext keys stay server-side.
	defer_ := false
	type obItem struct {
		rv   *rval
		desc bool
	}
	var obs []obItem
	for _, o := range s.OrderBy {
		// An alias naming an output item orders by that item.
		if cr, ok := o.Expr.(sqlparser.ColRef); ok && cr.Table == "" {
			matched := false
			for i := range plan.out {
				if plan.out[i].hidden {
					continue
				}
				if strings.EqualFold(plan.out[i].name, cr.Name) {
					if plan.out[i].mode != omPlain {
						defer_ = true
					}
					obs = append(obs, obItem{rv: &rval{expr: sqlparser.ColRef{Name: fmt.Sprintf("_s%d", i)}}, desc: o.Desc})
					plan.postOrder = append(plan.postOrder, postKey{srvIdx: i, desc: o.Desc})
					matched = true
					break
				}
			}
			if matched {
				continue
			}
		}
		rv, err := rw.rewriteScalar(o.Expr)
		if err != nil {
			return nil, nil, err
		}
		if rv.enc != nil {
			defer_ = true
			// Ship the encrypted key as a hidden output column.
			oc := outCol{name: fmt.Sprintf("_ob%d", len(plan.out)), kind: rv.kind, scale: rv.scale, hidden: true}
			if rv.enc.isFlat() {
				oc.mode = omFlat
				oc.flatKey = rv.enc.flatKey()
			} else {
				oc.mode = omRowKey
				oc.factors = rv.enc.factors
			}
			plan.postOrder = append(plan.postOrder, postKey{srvIdx: len(plan.out), desc: o.Desc})
			out.Items = append(out.Items, sqlparser.SelectItem{Expr: rv.expr, Alias: fmt.Sprintf("_s%d", len(plan.out))})
			plan.out = append(plan.out, oc)
			continue
		}
		obs = append(obs, obItem{rv: rv, desc: o.Desc})
		plan.postOrder = append(plan.postOrder, postKey{srvIdx: -1, desc: o.Desc}) // placeholder; replaced below if deferring
	}
	if defer_ {
		if forSubquery {
			return nil, nil, fmt.Errorf("proxy: ORDER BY on encrypted data inside a derived table is not supported")
		}
		// Mixed keys: ship plaintext keys as hidden outputs too, so the
		// client-side sort sees every key.
		ki := 0
		for i, pk := range plan.postOrder {
			if pk.srvIdx >= 0 {
				continue
			}
			ob := obs[ki]
			ki++
			plan.postOrder[i].srvIdx = len(plan.out)
			out.Items = append(out.Items, sqlparser.SelectItem{Expr: ob.rv.expr, Alias: fmt.Sprintf("_s%d", len(plan.out))})
			plan.out = append(plan.out, outCol{name: fmt.Sprintf("_ob%d", len(plan.out)), kind: ob.rv.kind, scale: ob.rv.scale, mode: omPlain, hidden: true})
		}
		plan.postLimit = s.Limit
		out.Limit = nil
		out.OrderBy = nil
	} else {
		plan.postOrder = nil
		for i, o := range s.OrderBy {
			_ = o
			ob := obs[i]
			out.OrderBy = append(out.OrderBy, sqlparser.OrderItem{Expr: ob.rv.expr, Desc: ob.desc})
		}
	}

	// 8. Hidden row-id columns for row-keyed outputs (the paper's §2.2
	// "the row-id is added in the rewritten query"): one per alias, shipped
	// once however many columns draw on it.
	ridCols := make(map[string]int) // alias -> server column of its row_id
	for c := range plan.out {
		for _, f := range plan.out[c].factors {
			if f.alias == "" {
				continue
			}
			idx, ok := ridCols[f.alias]
			if !ok {
				idx = len(plan.out)
				ridCols[f.alias] = idx
				out.Items = append(out.Items, sqlparser.SelectItem{
					Expr:  sqlparser.ColRef{Table: f.alias, Name: "row_id"},
					Alias: fmt.Sprintf("_s%d", idx),
				})
				plan.out = append(plan.out, outCol{name: "_rid_" + f.alias, kind: types.KindShare, mode: omPlain, hidden: true})
			}
			plan.out[c].rids = append(plan.out[c].rids, idx)
		}
	}

	if len(plan.postOrder) > 0 && len(out.GroupBy) > 0 {
		// Deferred ordering over grouped output is fine: all order keys
		// are output columns already.
	}
	plan.tables = rw.tables
	return out, plan, nil
}

// buildScope registers scopes for a FROM item and returns its rewrite.
func (rw *rewriter) buildScope(ref sqlparser.TableRef) (sqlparser.TableRef, error) {
	switch r := ref.(type) {
	case sqlparser.TableName:
		meta, err := rw.p.store.Get(r.Name)
		if err != nil {
			return nil, err
		}
		alias := r.Alias
		if alias == "" {
			alias = r.Name
		}
		sc := &scope{alias: alias, hasAux: len(meta.Keys) > 0, maskKey: meta.MaskKey}
		for _, c := range meta.Schema.Columns {
			col := scopeCol{name: c.Name, kind: c.Type.Kind, scale: c.Type.Scale}
			if k, ok := meta.Key(c.Name); ok {
				col.sensitive = true
				col.key = k
			}
			sc.cols = append(sc.cols, col)
		}
		rw.scopes = append(rw.scopes, sc)
		rw.tables = append(rw.tables, r.Name)
		return r, nil

	case *sqlparser.SubqueryRef:
		sub := &rewriter{p: rw.p}
		rsel, rplan, err := sub.rewriteSelect(r.Sel, true)
		if err != nil {
			return nil, err
		}
		sc := &scope{alias: r.Alias}
		for i := range rplan.out {
			oc := rplan.out[i]
			if oc.hidden {
				return nil, fmt.Errorf("proxy: derived table requires hidden columns (row-keyed outputs or AVG), which is not supported; aggregate or flatten inside the subquery")
			}
			col := scopeCol{name: oc.name, kind: oc.kind, scale: oc.scale}
			switch oc.mode {
			case omPlain:
			case omFlat:
				col.sensitive = true
				col.flat = true
				col.key = oc.flatKey
			default:
				return nil, fmt.Errorf("proxy: derived table column %q has unsupported encryption shape", oc.name)
			}
			sc.cols = append(sc.cols, col)
		}
		// Derived-table column names inside the rewritten subquery are the
		// synthetic _sN aliases; rename them to the user-facing names so
		// outer references bind.
		for i := range rplan.out {
			rsel.Items[i].Alias = rplan.out[i].name
		}
		rw.scopes = append(rw.scopes, sc)
		rw.tables = append(rw.tables, rplan.tables...)
		return &sqlparser.SubqueryRef{Sel: rsel, Alias: r.Alias}, nil

	case *sqlparser.JoinRef:
		left, err := rw.buildScope(r.Left)
		if err != nil {
			return nil, err
		}
		right, err := rw.buildScope(r.Right)
		if err != nil {
			return nil, err
		}
		on, err := rw.rewriteBool(r.On)
		if err != nil {
			return nil, err
		}
		return &sqlparser.JoinRef{Left: left, Right: right, On: on}, nil

	default:
		return nil, fmt.Errorf("proxy: unsupported FROM item %T", ref)
	}
}

// expandStars replaces * with explicit column references over all scopes.
func (rw *rewriter) expandStars(items []sqlparser.SelectItem) ([]sqlparser.SelectItem, error) {
	var out []sqlparser.SelectItem
	for _, item := range items {
		if !item.Star {
			out = append(out, item)
			continue
		}
		for _, sc := range rw.scopes {
			for _, c := range sc.cols {
				out = append(out, sqlparser.SelectItem{
					Expr:  sqlparser.ColRef{Table: sc.alias, Name: c.name},
					Alias: c.name,
				})
			}
		}
	}
	return out, nil
}

// itemName derives the output column name for a select item.
func itemName(item sqlparser.SelectItem, idx int) string {
	if item.Alias != "" {
		return strings.ToLower(item.Alias)
	}
	if cr, ok := item.Expr.(sqlparser.ColRef); ok {
		return strings.ToLower(cr.Name)
	}
	return fmt.Sprintf("_col%d", idx)
}
