package integration

import (
	"strings"
	"testing"

	"sdb/internal/sqlparser"
	"sdb/internal/tpch"
)

// shareSums returns the distinct encrypted SUM calls of a rewritten
// statement — the aggregates the SP's aggregation folds, after its own
// dedup of identical calls.
func shareSums(t *testing.T, rewritten string) map[string]bool {
	t.Helper()
	sel, err := sqlparser.ParseSelect(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]bool{}
	var walk func(sqlparser.Expr)
	walk = func(ex sqlparser.Expr) {
		switch x := ex.(type) {
		case *sqlparser.FuncCall:
			if strings.EqualFold(x.Name, "sum") && strings.Contains(x.String(), "sdb_") {
				sums[x.String()] = true
				return
			}
			for _, a := range x.Args {
				walk(a)
			}
		case *sqlparser.BinaryExpr:
			walk(x.L)
			walk(x.R)
		case *sqlparser.UnaryExpr:
			walk(x.E)
		}
	}
	for _, it := range sel.Items {
		walk(it.Expr)
	}
	if sel.Having != nil {
		walk(sel.Having)
	}
	return sums
}

// TestIdenticalAggregatesRewriteOnce: the rewriter gives every encrypted
// SUM of one argument one flat key, so identical aggregates reach the SP
// as identical SQL and are folded once — Q1's SUM(x) and the SUM inside
// AVG(x) for two columns (7 share sums → 5), Q18's SELECT and HAVING
// copies of SUM(l_quantity) (3 → 2) — and the answers do not move.
func TestIdenticalAggregatesRewriteOnce(t *testing.T) {
	f := setup(t)
	want := map[int]int{1: 5, 18: 2}
	for _, q := range tpch.RunnableQueries() {
		sums, ok := want[q.Num]
		if !ok {
			continue
		}
		got, err := f.sdb.Exec(q.SQL)
		if err != nil {
			t.Fatalf("Q%d: %v", q.Num, err)
		}
		plain, err := f.plain.Exec(q.SQL)
		if err != nil {
			t.Fatalf("plaintext Q%d: %v", q.Num, err)
		}
		requireEqualResults(t, "secure vs plaintext", q.SQL, got, plain)
		if n := len(shareSums(t, got.Stats.RewrittenSQL)); n != sums {
			t.Errorf("Q%d: %d distinct share sums, want %d:\n%s", q.Num, n, sums, got.Stats.RewrittenSQL)
		}
		delete(want, q.Num)
	}
	if len(want) != 0 {
		t.Fatalf("queries not runnable: %v", want)
	}
}
