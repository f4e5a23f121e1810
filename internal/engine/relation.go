package engine

import (
	"fmt"
	"strings"

	"sdb/internal/sqlparser"
	"sdb/internal/storage"
	"sdb/internal/types"
)

// relCol describes one column of an intermediate relation.
type relCol struct {
	qual   string // table alias (lower-cased), "" for derived expressions
	name   string // column name (lower-cased)
	kind   types.Kind
	hidden bool // auxiliary columns excluded from SELECT *
}

// relation is a column schema plus (optionally) materialised rows. The
// streaming operator tree uses schema-only relations to bind expressions;
// the UPDATE path still materialises one via scanTable.
type relation struct {
	cols []relCol
	rows []types.Row
}

// resolve finds the index of a (qualified) column name, erroring on
// ambiguity or absence.
func (r *relation) resolve(qual, name string) (int, error) {
	qual = strings.ToLower(qual)
	name = strings.ToLower(name)
	found := -1
	for i, c := range r.cols {
		if c.name != name {
			continue
		}
		if qual != "" && c.qual != qual {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("engine: ambiguous column %q", name)
		}
		found = i
	}
	if found < 0 {
		if qual != "" {
			return 0, fmt.Errorf("engine: no column %s.%s", qual, name)
		}
		return 0, fmt.Errorf("engine: no column %q", name)
	}
	return found, nil
}

func lowered(s string) string { return strings.ToLower(s) }

// tableSchema is the relational schema of a stored table under an alias:
// its columns (sensitive ones surface as shares) plus the two hidden SDB
// auxiliary columns (encrypted row id and the row helper w) that rewritten
// queries reference.
func tableSchema(t *storage.Table, alias string) []relCol {
	if alias == "" {
		alias = t.Name
	}
	alias = strings.ToLower(alias)
	cols := make([]relCol, 0, len(t.Schema.Columns)+2)
	for _, c := range t.Schema.Columns {
		kind := c.Type.Kind
		if c.Type.Sensitive {
			kind = types.KindShare
		}
		cols = append(cols, relCol{qual: alias, name: strings.ToLower(c.Name), kind: kind})
	}
	return append(cols,
		relCol{qual: alias, name: RowIDColumn, kind: types.KindShare, hidden: true},
		relCol{qual: alias, name: HelperColumn, kind: types.KindShare, hidden: true},
	)
}

// scanVersion materialises one pinned version of a stored table as a
// relation under the alias. The streaming SELECT path uses scanOp instead;
// this remains for UPDATE, which needs a stable row set to evaluate SET
// expressions against while it builds the replacement columns.
func scanVersion(t *storage.Table, v *storage.Version, alias string) *relation {
	return &relation{
		cols: tableSchema(t, alias),
		rows: versionRows(v.Cols, v.RowEnc, v.Helper, 0, v.NumRows()),
	}
}

// scanTable materialises the table's newest published version.
func scanTable(t *storage.Table, alias string) *relation {
	return scanVersion(t, t.Load(), alias)
}

// splitConjuncts flattens an AND tree into its conjuncts.
func splitConjuncts(ex sqlparser.Expr) (conjuncts []sqlparser.Expr) {
	var walk func(sqlparser.Expr)
	walk = func(x sqlparser.Expr) {
		if be, ok := x.(*sqlparser.BinaryExpr); ok && be.Op == "AND" {
			walk(be.L)
			walk(be.R)
			return
		}
		conjuncts = append(conjuncts, x)
	}
	walk(ex)
	return conjuncts
}

func conjoin(exprs []sqlparser.Expr) sqlparser.Expr {
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = &sqlparser.BinaryExpr{Op: "AND", L: out, R: e}
	}
	return out
}
