package engine

import (
	"testing"

	"sdb/internal/sqlparser"
	"sdb/internal/storage"
	"sdb/internal/types"
)

func TestRelationResolveAmbiguity(t *testing.T) {
	rel := &relation{cols: []relCol{
		{qual: "a", name: "x"},
		{qual: "b", name: "x"},
		{qual: "a", name: "y"},
	}}
	if _, err := rel.resolve("", "x"); err == nil {
		t.Error("unqualified ambiguous reference should fail")
	}
	idx, err := rel.resolve("b", "x")
	if err != nil || idx != 1 {
		t.Errorf("resolve(b.x) = %d, %v", idx, err)
	}
	if _, err := rel.resolve("", "nope"); err == nil {
		t.Error("missing column should fail")
	}
	if _, err := rel.resolve("c", "x"); err == nil {
		t.Error("missing qualifier should fail")
	}
}

func TestScanTableExposesAuxAsHidden(t *testing.T) {
	schema, _ := types.NewSchema([]types.Column{
		{Name: "a", Type: types.ColumnType{Kind: types.KindInt}},
	})
	tbl := storage.NewTable("t", schema)
	if err := tbl.Append(types.Row{types.NewInt(1)}, nil, nil); err != nil {
		t.Fatal(err)
	}
	rel := scanTable(tbl, "alias")
	if len(rel.cols) != 3 {
		t.Fatalf("cols: %+v", rel.cols)
	}
	if !rel.cols[1].hidden || !rel.cols[2].hidden {
		t.Error("aux columns must be hidden")
	}
	if rel.cols[0].qual != "alias" {
		t.Errorf("qualifier: %q", rel.cols[0].qual)
	}
}

func TestCrossJoinCardinality(t *testing.T) {
	e := New(storage.NewCatalog(), nil)
	mustExec(t, e, `CREATE TABLE a (x INT)`)
	mustExec(t, e, `INSERT INTO a VALUES (1), (2)`)
	mustExec(t, e, `CREATE TABLE b (y INT)`)
	mustExec(t, e, `INSERT INTO b VALUES (10), (20), (30)`)
	res := mustExec(t, e, `SELECT x, y FROM a, b`)
	if len(res.Rows) != 6 || len(res.Columns) != 2 {
		t.Errorf("cross join: %d rows, %d cols", len(res.Rows), len(res.Columns))
	}
	// Left-deep comma order: a's rows outer, b's rows inner.
	if res.Rows[0][0].I != 1 || res.Rows[0][1].I != 10 || res.Rows[1][1].I != 20 {
		t.Errorf("cross join order: %v", res.Rows)
	}
}

func TestSplitConjuncts(t *testing.T) {
	e := mustExpr(t, "a = 1 AND b = 2 AND (c = 3 OR d = 4)")
	conj := splitConjuncts(e)
	if len(conj) != 3 {
		t.Errorf("conjuncts: %d", len(conj))
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%lo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_zlo", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "%a%b%c%", true},
		{"PROMO BRUSHED", "PROMO%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.s, c.p, got)
		}
	}
}

func mustExpr(t *testing.T, src string) sqlparser.Expr {
	t.Helper()
	sel, err := sqlparser.ParseSelect("SELECT " + src)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Items) != 1 || sel.Items[0].Star {
		t.Fatalf("%q is not one expression", src)
	}
	return sel.Items[0].Expr
}
