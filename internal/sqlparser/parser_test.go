package sqlparser

import (
	"fmt"
	"math/big"
	"strings"
	"testing"

	"sdb/internal/types"
)

// ParseExpr parses a standalone scalar expression.
func ParseExpr(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sqlparser: trailing input at %q", p.peek().text)
	}
	return e, nil
}

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func TestParseCreateTable(t *testing.T) {
	stmt := mustParse(t, `CREATE TABLE accounts (
		id INT,
		balance DECIMAL(2) SENSITIVE,
		opened DATE SENSITIVE,
		owner STRING,
		active BOOL
	)`)
	ct, ok := stmt.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if ct.Name != "accounts" || len(ct.Cols) != 5 {
		t.Fatalf("bad create: %+v", ct)
	}
	if !ct.Cols[1].Type.Sensitive || ct.Cols[1].Type.Kind != types.KindDecimal || ct.Cols[1].Type.Scale != 2 {
		t.Errorf("balance type wrong: %+v", ct.Cols[1])
	}
	if !ct.Cols[2].Type.Sensitive || ct.Cols[2].Type.Kind != types.KindDate {
		t.Errorf("opened type wrong: %+v", ct.Cols[2])
	}
	if ct.Cols[3].Type.Sensitive {
		t.Error("owner should not be sensitive")
	}
}

func TestParseCreateTableDecimalPrecScale(t *testing.T) {
	stmt := mustParse(t, "CREATE TABLE t (x DECIMAL(15, 2))")
	ct := stmt.(*CreateTable)
	if ct.Cols[0].Type.Scale != 2 {
		t.Errorf("scale = %d, want 2", ct.Cols[0].Type.Scale)
	}
}

func TestParseInsert(t *testing.T) {
	stmt := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y''z')")
	ins := stmt.(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("bad insert: %+v", ins)
	}
	if s, ok := ins.Rows[1][1].(StrLit); !ok || s.V != "y'z" {
		t.Errorf("escaped string: %+v", ins.Rows[1][1])
	}
}

func TestParseSelectBasic(t *testing.T) {
	sel := mustParse(t, "SELECT a, b AS bb, a * b FROM t WHERE a > 5 ORDER BY a DESC LIMIT 10").(*Select)
	if len(sel.Items) != 3 || sel.Items[1].Alias != "bb" {
		t.Fatalf("items: %+v", sel.Items)
	}
	if sel.Limit == nil || *sel.Limit != 10 {
		t.Error("limit missing")
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Error("order by missing desc")
	}
}

func TestParseSelectStar(t *testing.T) {
	sel := mustParse(t, "SELECT * FROM t").(*Select)
	if len(sel.Items) != 1 || !sel.Items[0].Star {
		t.Fatalf("star: %+v", sel.Items)
	}
}

func TestParseJoin(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t JOIN u ON t.id = u.id JOIN v ON u.k = v.k").(*Select)
	j, ok := sel.From[0].(*JoinRef)
	if !ok {
		t.Fatalf("got %T", sel.From[0])
	}
	if _, ok := j.Left.(*JoinRef); !ok {
		t.Error("joins should left-associate")
	}
}

func TestParseImplicitJoinAndAliases(t *testing.T) {
	sel := mustParse(t, "SELECT c.name FROM customer c, orders AS o WHERE c.id = o.cid").(*Select)
	if len(sel.From) != 2 {
		t.Fatalf("from: %+v", sel.From)
	}
	tn := sel.From[0].(TableName)
	if tn.Alias != "c" {
		t.Errorf("alias = %q", tn.Alias)
	}
}

func TestParseSubqueryInFrom(t *testing.T) {
	sel := mustParse(t, "SELECT x FROM (SELECT a AS x FROM t WHERE a > 1) AS sub WHERE x < 10").(*Select)
	sub, ok := sel.From[0].(*SubqueryRef)
	if !ok || sub.Alias != "sub" {
		t.Fatalf("subquery: %+v", sel.From[0])
	}
}

func TestParseGroupByHaving(t *testing.T) {
	sel := mustParse(t, "SELECT k, SUM(v) FROM t GROUP BY k HAVING SUM(v) > 100").(*Select)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatalf("group/having: %+v", sel)
	}
	fc := sel.Items[1].Expr.(*FuncCall)
	if fc.Name != "sum" {
		t.Errorf("func name: %q", fc.Name)
	}
}

func TestParseAggregates(t *testing.T) {
	sel := mustParse(t, "SELECT COUNT(*), COUNT(DISTINCT a), AVG(b), MIN(c), MAX(d) FROM t").(*Select)
	if !sel.Items[0].Expr.(*FuncCall).Star {
		t.Error("count(*) star flag")
	}
	if !sel.Items[1].Expr.(*FuncCall).Distinct {
		t.Error("count distinct flag")
	}
}

func TestParsePredicates(t *testing.T) {
	sel := mustParse(t, `SELECT a FROM t WHERE a BETWEEN 1 AND 10
		AND b NOT IN (1, 2, 3) AND c LIKE '%x%' AND d IS NOT NULL
		AND NOT (e = 1 OR f != 2)`).(*Select)
	if sel.Where == nil {
		t.Fatal("where missing")
	}
	s := sel.Where.String()
	for _, frag := range []string{"BETWEEN", "NOT IN", "LIKE", "IS NOT NULL", "NOT "} {
		if !strings.Contains(s, frag) {
			t.Errorf("deparse missing %q in %q", frag, s)
		}
	}
}

func TestParseDateAndDecimalLiterals(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE d >= DATE '1995-01-01' AND p < 0.07").(*Select)
	s := sel.Where.String()
	if !strings.Contains(s, "DATE '1995-01-01'") {
		t.Errorf("date literal deparse: %q", s)
	}
	if !strings.Contains(s, "0.07") {
		t.Errorf("decimal literal deparse: %q", s)
	}
}

func TestParseDecimalScale(t *testing.T) {
	e, err := ParseExpr("12.345")
	if err != nil {
		t.Fatal(err)
	}
	d := e.(DecLit)
	if d.Scaled != 12345 || d.Scale != 3 {
		t.Errorf("decimal: %+v", d)
	}
}

func TestParseNegativeLiteralFolding(t *testing.T) {
	e, _ := ParseExpr("-42")
	if l, ok := e.(IntLit); !ok || l.V != -42 {
		t.Errorf("got %+v", e)
	}
	e, _ = ParseExpr("-1.5")
	if l, ok := e.(DecLit); !ok || l.Scaled != -15 {
		t.Errorf("got %+v", e)
	}
}

func TestParseHexLiteral(t *testing.T) {
	e, err := ParseExpr("0xDEADBEEF")
	if err != nil {
		t.Fatal(err)
	}
	h := e.(HexLit)
	if h.V.Cmp(big.NewInt(0xDEADBEEF)) != 0 {
		t.Errorf("hex: %s", h.V)
	}
}

func TestParseCase(t *testing.T) {
	e, err := ParseExpr("CASE WHEN a = 1 THEN 10 WHEN a = 2 THEN 20 ELSE 0 END")
	if err != nil {
		t.Fatal(err)
	}
	c := e.(*CaseExpr)
	if len(c.Whens) != 2 || c.Else == nil {
		t.Errorf("case: %+v", c)
	}
}

func TestParsePrecedence(t *testing.T) {
	e, _ := ParseExpr("1 + 2 * 3")
	if e.String() != "(1 + (2 * 3))" {
		t.Errorf("precedence: %s", e)
	}
	e, _ = ParseExpr("a = 1 AND b = 2 OR c = 3")
	if e.String() != "(((a = 1) AND (b = 2)) OR (c = 3))" {
		t.Errorf("bool precedence: %s", e)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"CREATE TABLE t",
		"CREATE TABLE t (a BLOB)",
		"INSERT INTO t VALUES",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM (SELECT b FROM u)", // derived table needs alias
		"SELECT 'unterminated",
		"SELECT 0x",
		"SELECT a FROM t; SELECT b FROM u", // one statement at a time
		"SELECT CASE END",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestDeparseRoundTrip is the property the proxy relies on: for every
// statement we can parse, String() must re-parse to a statement with the
// same deparse.
func TestDeparseRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT a, b AS bb FROM t WHERE (a > 5) ORDER BY a DESC LIMIT 3",
		"SELECT DISTINCT a FROM t",
		"SELECT COUNT(*), SUM(a * b) FROM t GROUP BY k HAVING COUNT(*) > 2",
		"SELECT x FROM (SELECT a AS x FROM t) AS s JOIN u ON s.x = u.y",
		"SELECT sdb_mul(ae, be, 0xabc123) AS ce FROM t",
		"INSERT INTO t (a) VALUES (1), (-2)",
		"CREATE TABLE t (a INT SENSITIVE, b STRING)",
		"SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t",
		"SELECT a FROM t WHERE d BETWEEN DATE '1994-01-01' AND DATE '1995-01-01'",
		"SELECT a FROM t WHERE s LIKE '%green%' AND v NOT IN (1, 2)",
	}
	for _, src := range srcs {
		s1 := mustParse(t, src).String()
		s2 := mustParse(t, s1).String()
		if s1 != s2 {
			t.Errorf("deparse not stable:\n  first:  %s\n  second: %s", s1, s2)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	sel := mustParse(t, "SELECT a -- trailing comment\nFROM t -- another\n").(*Select)
	if len(sel.Items) != 1 {
		t.Fatal("comment handling broken")
	}
}

func TestParseUpdate(t *testing.T) {
	stmt := mustParse(t, "UPDATE t SET a = 1, b = b + 1 WHERE c > 0")
	upd, ok := stmt.(*Update)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if upd.Table != "t" || len(upd.Set) != 2 || upd.Where == nil {
		t.Fatalf("update: %+v", upd)
	}
	// deparse round trip
	s1 := upd.String()
	s2 := mustParse(t, s1).String()
	if s1 != s2 {
		t.Errorf("deparse: %q vs %q", s1, s2)
	}
}

func TestParseUpdateErrors(t *testing.T) {
	for _, src := range []string{
		"UPDATE",
		"UPDATE t",
		"UPDATE t SET",
		"UPDATE t SET a",
		"UPDATE t SET a = ",
		"UPDATE t SET a = 1 WHERE",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseDropTable(t *testing.T) {
	stmt := mustParse(t, "DROP TABLE accounts")
	dt, ok := stmt.(*DropTable)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if dt.Name != "accounts" {
		t.Fatalf("bad drop: %+v", dt)
	}
	if got := dt.String(); got != "DROP TABLE accounts" {
		t.Errorf("String() = %q", got)
	}
	for _, bad := range []string{"DROP", "DROP TABLE", "DROP VIEW v", "DROP TABLE a b"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}
