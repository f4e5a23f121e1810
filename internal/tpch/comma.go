package tpch

import (
	"fmt"

	"sdb/internal/sqlparser"
)

// CommaForm derives a SELECT's comma-join form mechanically, at every
// SELECT level: FROM lists the leaves of the join tree in declaration order
// and every ON condition moves, in order, in front of the WHERE
// conjunction. All joins of the dialect are INNER, so the two forms mean the
// same; the workload is written with JOIN … ON throughout, and tests and
// benchmarks use this form to hold the engine's planner to one plan for
// both syntaxes.
func CommaForm(sql string) (string, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		return "", fmt.Errorf("tpch: not a SELECT: %s", sql)
	}
	return commaForm(sel).String(), nil
}

func commaForm(s *sqlparser.Select) *sqlparser.Select {
	out := *s
	out.From = nil
	where := sqlparser.Expr(nil)
	and := func(ex sqlparser.Expr) {
		if where == nil {
			where = ex
		} else if ex != nil {
			where = &sqlparser.BinaryExpr{Op: "AND", L: where, R: ex}
		}
	}
	var flatten func(sqlparser.TableRef)
	flatten = func(ref sqlparser.TableRef) {
		switch r := ref.(type) {
		case *sqlparser.JoinRef:
			flatten(r.Left)
			flatten(r.Right)
			and(r.On)
		case *sqlparser.SubqueryRef:
			sub := *r
			sub.Sel = commaForm(r.Sel)
			out.From = append(out.From, &sub)
		default:
			out.From = append(out.From, ref)
		}
	}
	for _, ref := range s.From {
		flatten(ref)
	}
	and(s.Where)
	out.Where = where
	return &out
}
