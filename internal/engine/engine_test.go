package engine

import (
	"strings"
	"testing"

	"sdb/internal/storage"
	"sdb/internal/types"
)

// plainEngine builds an engine with a small plaintext dataset:
//
//	emp(id INT, name STRING, dept STRING, salary INT, hired DATE)
func plainEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(storage.NewCatalog(), nil)
	mustExec(t, e, `CREATE TABLE emp (id INT, name STRING, dept STRING, salary INT, hired DATE)`)
	mustExec(t, e, `INSERT INTO emp VALUES
		(1, 'alice',   'eng',   120, '2019-04-01'),
		(2, 'bob',     'eng',   100, '2020-05-02'),
		(3, 'carol',   'sales',  90, '2018-06-03'),
		(4, 'dave',    'sales',  95, '2021-07-04'),
		(5, 'erin',    'hr',     80, '2017-08-05')`)
	mustExec(t, e, `CREATE TABLE dept (name STRING, floor INT)`)
	mustExec(t, e, `INSERT INTO dept VALUES ('eng', 3), ('sales', 2), ('hr', 1)`)
	return e
}

func mustExec(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatalf("ExecuteSQL(%q): %v", sql, err)
	}
	return res
}

func ints(res *Result, col int) []int64 {
	out := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[col].I
	}
	return out
}

func strs(res *Result, col int) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[col].S
	}
	return out
}

func eqInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSelectWhereOrder(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT id, salary FROM emp WHERE salary >= 95 ORDER BY salary DESC`)
	if !eqInts(ints(res, 0), []int64{1, 2, 4}) {
		t.Errorf("ids = %v", ints(res, 0))
	}
}

func TestSelectStarHidesAuxColumns(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT * FROM emp LIMIT 1`)
	if len(res.Columns) != 5 {
		t.Errorf("star should expose 5 columns, got %d (%v)", len(res.Columns), res.Columns)
	}
}

func TestAuxColumnsAddressable(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT row_id, sdb_w FROM emp LIMIT 1`)
	if len(res.Columns) != 2 {
		t.Fatalf("columns: %v", res.Columns)
	}
}

func TestProjectionExpressionsAndAliases(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT id * 2 AS dbl, salary + 1 FROM emp WHERE id = 1`)
	if res.Columns[0].Name != "dbl" || res.Rows[0][0].I != 2 || res.Rows[0][1].I != 121 {
		t.Errorf("rows: %v cols: %v", res.Rows, res.Columns)
	}
}

func TestGroupByAggregates(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT dept, COUNT(*), SUM(salary), AVG(salary), MIN(salary), MAX(salary)
		FROM emp GROUP BY dept ORDER BY dept`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows: %v", res.Rows)
	}
	// eng: count 2 sum 220 avg 110 min 100 max 120
	r := res.Rows[0]
	if r[0].S != "eng" || r[1].I != 2 || r[2].I != 220 || r[3].I != 11000 || r[4].I != 100 || r[5].I != 120 {
		t.Errorf("eng row: %v", r)
	}
}

func TestHaving(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept HAVING SUM(salary) > 100 ORDER BY total DESC`)
	if len(res.Rows) != 2 || res.Rows[0][0].S != "eng" {
		t.Errorf("rows: %v", res.Rows)
	}
}

func TestGlobalAggregateOnEmptyInput(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 1000`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("rows: %v", res.Rows)
	}
}

func TestJoinExplicit(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT e.name, d.floor FROM emp e JOIN dept d ON e.dept = d.name WHERE d.floor >= 2 ORDER BY e.name`)
	got := strs(res, 0)
	want := []string{"alice", "bob", "carol", "dave"}
	if len(got) != len(want) {
		t.Fatalf("names: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("names: %v", got)
			break
		}
	}
}

func TestJoinImplicit(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT COUNT(*) FROM emp, dept WHERE emp.dept = dept.name`)
	if res.Rows[0][0].I != 5 {
		t.Errorf("count = %d", res.Rows[0][0].I)
	}
}

func TestSubqueryInFrom(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT dept, total FROM
		(SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept) AS sums
		WHERE total > 100 ORDER BY total`)
	if len(res.Rows) != 2 || res.Rows[1][0].S != "eng" {
		t.Errorf("rows: %v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT DISTINCT dept FROM emp ORDER BY dept`)
	if len(res.Rows) != 3 {
		t.Errorf("rows: %v", res.Rows)
	}
}

func TestLimit(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT id FROM emp ORDER BY id LIMIT 2`)
	if !eqInts(ints(res, 0), []int64{1, 2}) {
		t.Errorf("ids: %v", ints(res, 0))
	}
}

func TestPredicates(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT id FROM emp WHERE name LIKE '%a%' AND id BETWEEN 1 AND 4 AND dept IN ('eng', 'sales') ORDER BY id`)
	// names with 'a': alice, carol, dave; ids 1,3,4 all in [1,4]; depts ok.
	if !eqInts(ints(res, 0), []int64{1, 3, 4}) {
		t.Errorf("ids: %v", ints(res, 0))
	}
}

func TestCaseExpression(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT SUM(CASE WHEN dept = 'eng' THEN salary ELSE 0 END) FROM emp`)
	if res.Rows[0][0].I != 220 {
		t.Errorf("case sum = %d", res.Rows[0][0].I)
	}
}

func TestDateComparisonsAndYear(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT id FROM emp WHERE hired >= DATE '2019-01-01' ORDER BY id`)
	if !eqInts(ints(res, 0), []int64{1, 2, 4}) {
		t.Errorf("ids: %v", ints(res, 0))
	}
	res = mustExec(t, e, `SELECT year(hired) FROM emp WHERE id = 1`)
	if res.Rows[0][0].I != 2019 {
		t.Errorf("year = %d", res.Rows[0][0].I)
	}
}

func TestStringFunctions(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT substr(name, 1, 2), length(name) FROM emp WHERE id = 3`)
	if res.Rows[0][0].S != "ca" || res.Rows[0][1].I != 5 {
		t.Errorf("row: %v", res.Rows[0])
	}
}

func TestOrderByAlias(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT id, salary * 2 AS ds FROM emp ORDER BY ds DESC LIMIT 1`)
	if res.Rows[0][0].I != 1 {
		t.Errorf("row: %v", res.Rows[0])
	}
}

func TestCountDistinct(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `SELECT COUNT(DISTINCT dept) FROM emp`)
	if res.Rows[0][0].I != 3 {
		t.Errorf("count distinct = %d", res.Rows[0][0].I)
	}
}

func TestAvgDistinct(t *testing.T) {
	e := New(storage.NewCatalog(), nil)
	mustExec(t, e, `CREATE TABLE ad (x INT)`)
	mustExec(t, e, `INSERT INTO ad VALUES (1), (1), (4)`)
	// SUM(DISTINCT)/COUNT(DISTINCT) = 5/2 = 2.50 (AVG carries two extra
	// decimal digits), not the deduped sum over the raw row count.
	res := mustExec(t, e, `SELECT AVG(DISTINCT x), AVG(x) FROM ad`)
	if res.Rows[0][0].I != 250 {
		t.Errorf("AVG(DISTINCT) = %d, want 250", res.Rows[0][0].I)
	}
	if res.Rows[0][1].I != 200 {
		t.Errorf("AVG = %d, want 200", res.Rows[0][1].I)
	}
}

func TestInsertColumnSubsetAndNulls(t *testing.T) {
	e := plainEngine(t)
	mustExec(t, e, `INSERT INTO emp (id, name) VALUES (6, 'zed')`)
	res := mustExec(t, e, `SELECT salary FROM emp WHERE id = 6`)
	if !res.Rows[0][0].IsNull() {
		t.Errorf("expected NULL salary, got %v", res.Rows[0][0])
	}
	res = mustExec(t, e, `SELECT id FROM emp WHERE salary IS NULL`)
	if len(res.Rows) != 1 {
		t.Errorf("IS NULL rows: %v", res.Rows)
	}
}

func TestErrors(t *testing.T) {
	e := plainEngine(t)
	bad := []string{
		`SELECT nosuch FROM emp`,
		`SELECT id FROM nosuch`,
		`SELECT id FROM emp WHERE name > 5`,
		`SELECT * FROM emp GROUP BY dept`,
		`SELECT id FROM emp HAVING id > 1`,
		`INSERT INTO emp VALUES (1)`,
		`INSERT INTO nosuch VALUES (1)`,
		`CREATE TABLE emp (x INT)`,
		`SELECT unknownfunc(id) FROM emp`,
	}
	for _, sql := range bad {
		if _, err := e.ExecuteSQL(sql); err == nil {
			t.Errorf("ExecuteSQL(%q) should fail", sql)
		}
	}
}

// TestEmptyAggregateArguments: COUNT() and friends parse, and their
// transition states index the first argument — on a pool goroutine, where a
// panic takes the whole process down. They must fail at plan time instead,
// and leave the engine serving.
func TestEmptyAggregateArguments(t *testing.T) {
	e := plainEngine(t)
	for _, fn := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
		for _, tail := range []string{``, ` FROM emp`, ` FROM emp GROUP BY dept`} {
			sql := `SELECT ` + fn + `()` + tail
			want := "engine: " + strings.ToLower(fn) + "() needs an argument"
			if _, err := e.ExecuteSQL(sql); err == nil || err.Error() != want {
				t.Errorf("%s: error %v, want %q", sql, err, want)
			}
		}
	}
	if res := mustExec(t, e, `SELECT COUNT(*), COUNT(id) FROM emp`); res.Rows[0][0].I == 0 || res.Rows[0][0].I != res.Rows[0][1].I {
		t.Errorf("engine unusable after the refused statements: %v", res.Rows)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	e := plainEngine(t)
	if _, err := e.ExecuteSQL(`SELECT name FROM emp, dept`); err == nil {
		t.Error("ambiguous column should fail")
	}
}

func TestDecimalColumns(t *testing.T) {
	e := New(storage.NewCatalog(), nil)
	mustExec(t, e, `CREATE TABLE p (id INT, price DECIMAL(2))`)
	mustExec(t, e, `INSERT INTO p VALUES (1, 10.50), (2, 0.99), (3, 5)`)
	res := mustExec(t, e, `SELECT SUM(price) FROM p`)
	if res.Rows[0][0].I != 1649 { // 10.50+0.99+5.00 = 16.49 scaled ×100
		t.Errorf("sum = %d, want 1649", res.Rows[0][0].I)
	}
	if res.Rows[0][0].K != types.KindDecimal {
		t.Errorf("kind = %s", res.Rows[0][0].K)
	}
}

func TestUpdatePlaintext(t *testing.T) {
	e := plainEngine(t)
	res := mustExec(t, e, `UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'`)
	if res.Rows[0][0].I != 2 {
		t.Errorf("updated = %v", res.Rows[0][0])
	}
	check := mustExec(t, e, `SELECT salary FROM emp WHERE id = 1`)
	if check.Rows[0][0].I != 130 {
		t.Errorf("salary = %v", check.Rows[0][0])
	}
	// unfiltered update touches every row
	res = mustExec(t, e, `UPDATE emp SET salary = 0`)
	if res.Rows[0][0].I != 5 {
		t.Errorf("updated = %v", res.Rows[0][0])
	}
}

func TestUpdateValidation(t *testing.T) {
	e := plainEngine(t)
	if _, err := e.ExecuteSQL(`UPDATE nosuch SET a = 1`); err == nil {
		t.Error("unknown table")
	}
	if _, err := e.ExecuteSQL(`UPDATE emp SET nosuch = 1`); err == nil {
		t.Error("unknown column")
	}
	if _, err := e.ExecuteSQL(`UPDATE emp SET name = 5`); err == nil {
		t.Error("type mismatch should fail")
	}
}

func TestDropTable(t *testing.T) {
	e := plainEngine(t)
	mustExec(t, e, "DROP TABLE dept")
	if _, err := e.ExecuteSQL("SELECT * FROM dept"); err == nil {
		t.Fatal("dropped table still queryable")
	}
	if _, err := e.ExecuteSQL("DROP TABLE dept"); err == nil {
		t.Fatal("double drop should fail")
	}
	// The other table is untouched, and the name is reusable.
	mustExec(t, e, "SELECT id FROM emp")
	mustExec(t, e, "CREATE TABLE dept (name STRING)")
	mustExec(t, e, "INSERT INTO dept VALUES ('ops')")
	if res := mustExec(t, e, "SELECT name FROM dept"); len(res.Rows) != 1 || res.Rows[0][0].S != "ops" {
		t.Fatalf("recreated table: %+v", res.Rows)
	}
}

// TestGenerationCounters pins which statements bump which plan-cache
// generation: every write bumps the catalog generation, and only a
// key-update rewrite bumps the rotation generation.
func TestGenerationCounters(t *testing.T) {
	e := New(storage.NewCatalog(), nil)
	rot0, cat0 := e.Generations()
	if rot0 != 0 || cat0 != 0 {
		t.Fatalf("fresh engine generations = %d/%d", rot0, cat0)
	}
	mustExec(t, e, "CREATE TABLE t (a INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1)")
	mustExec(t, e, "UPDATE t SET a = a + 1")
	mustExec(t, e, "DROP TABLE t")
	rot, cat := e.Generations()
	if rot != 0 || cat != 4 {
		t.Fatalf("generations after 4 writes = %d/%d, want 0/4", rot, cat)
	}
	// Reads never bump either counter.
	mustExec(t, e, "CREATE TABLE t (a INT)")
	mustExec(t, e, "SELECT a FROM t")
	if rot2, cat2 := e.Generations(); rot2 != 0 || cat2 != 5 {
		t.Fatalf("generations after select = %d/%d, want 0/5", rot2, cat2)
	}
}
