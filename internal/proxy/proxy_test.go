package proxy

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"reflect"
	"strings"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/secure"
	"sdb/internal/sqlparser"
	"sdb/internal/storage"
	"sdb/internal/types"
)

// testSystem wires a proxy to an in-process engine, like the demo's two
// machines collapsed into one test process.
func testSystem(t testing.TB) (*Proxy, *engine.Engine) {
	t.Helper()
	secret, err := secure.Setup(512, 62, 80)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	eng := engine.New(storage.NewCatalog(), secret.N())
	p, err := New(secret, eng)
	if err != nil {
		t.Fatalf("New proxy: %v", err)
	}
	return p, eng
}

// bankSystem uploads the paper's bank scenario: account balances are
// sensitive, owner names are not.
func bankSystem(t testing.TB) (*Proxy, *engine.Engine) {
	p, eng := testSystem(t)
	mustP(t, p, `CREATE TABLE accounts (
		id INT,
		owner STRING,
		branch STRING,
		balance INT SENSITIVE,
		opened DATE SENSITIVE
	)`)
	mustP(t, p, `INSERT INTO accounts VALUES
		(1, 'alice', 'north', 1200, '2019-04-01'),
		(2, 'bob',   'north',  300, '2020-05-02'),
		(3, 'carol', 'south', 5000, '2018-06-03'),
		(4, 'dave',  'south', -200, '2021-07-04'),
		(5, 'erin',  'east',  1200, '2017-08-05')`)
	return p, eng
}

func mustP(t testing.TB, p *Proxy, sql string) *Result {
	t.Helper()
	res, err := p.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func colInts(res *Result, c int) []int64 {
	out := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[c].I
	}
	return out
}

func wantInts(t *testing.T, got []int64, want ...int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestUploadStoresOnlyShares(t *testing.T) {
	p, eng := bankSystem(t)
	_ = p
	tbl, err := eng.Catalog().Get("accounts")
	if err != nil {
		t.Fatal(err)
	}
	balIdx := tbl.Schema.Find("balance")
	ver := tbl.Load()
	for i := 0; i < ver.NumRows(); i++ {
		v := ver.Cols[balIdx][i]
		if v.K != types.KindShare {
			t.Fatalf("row %d: balance stored as %s, not a share", i, v.K)
		}
		if v.B.IsInt64() && (v.B.Int64() == 1200 || v.B.Int64() == 300 || v.B.Int64() == 5000) {
			t.Fatalf("row %d: share equals plaintext!", i)
		}
	}
}

func TestSelectPlainColumns(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT id, owner FROM accounts WHERE branch = 'north' ORDER BY id`)
	wantInts(t, colInts(res, 0), 1, 2)
}

func TestSelectSensitiveColumnDecrypts(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT id, balance FROM accounts ORDER BY id`)
	wantInts(t, colInts(res, 1), 1200, 300, 5000, -200, 1200)
	if !strings.Contains(res.Stats.RewrittenSQL, "row_id") {
		t.Errorf("rewritten SQL should ship row ids: %s", res.Stats.RewrittenSQL)
	}
}

// walkAST calls visit on every struct and pointer reachable from v through
// exported fields — by reflection, so no clause or expression form of a
// rewritten statement can be forgotten.
func walkAST(v reflect.Value, visit func(node any)) {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			walkAST(v.Elem(), visit)
		}
	case reflect.Pointer:
		if !v.IsNil() && v.CanInterface() {
			visit(v.Interface())
			if _, isBig := v.Interface().(*big.Int); !isBig {
				walkAST(v.Elem(), visit)
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			walkAST(v.Index(i), visit)
		}
	case reflect.Struct:
		if v.CanInterface() {
			visit(v.Interface())
			for i := 0; i < v.NumField(); i++ {
				walkAST(v.Field(i), visit)
			}
		}
	}
}

// requireConstantHidden parses rewritten SQL and walks it: no numeric
// literal may carry the plaintext constant at any decimal scale, and the
// comparison must have become an sdb_sign call. (Substring-matching the
// digits against the text is a coin flip: the token material is thousands
// of random hex digits.)
func requireConstantHidden(t *testing.T, rewritten string, constant int64) {
	t.Helper()
	stmt, err := sqlparser.Parse(rewritten)
	if err != nil {
		t.Fatalf("rewritten SQL does not parse: %v\n%s", err, rewritten)
	}
	leaks := func(v *big.Int) bool {
		q, r := new(big.Int).QuoRem(v, big.NewInt(constant), new(big.Int))
		for r.Sign() == 0 && q.Cmp(big.NewInt(1)) > 0 {
			q.QuoRem(q, big.NewInt(10), r)
		}
		return r.Sign() == 0 && q.Cmp(big.NewInt(1)) == 0
	}
	masked := false
	walkAST(reflect.ValueOf(stmt), func(node any) {
		switch x := node.(type) {
		case sqlparser.IntLit:
			if leaks(big.NewInt(x.V)) {
				t.Errorf("rewritten SQL carries the constant as %v", x)
			}
		case sqlparser.DecLit:
			if leaks(big.NewInt(x.Scaled)) {
				t.Errorf("rewritten SQL carries the constant as %v", x)
			}
		case sqlparser.HexLit:
			if leaks(x.V) {
				t.Errorf("rewritten SQL carries the constant as %v", x)
			}
		case *sqlparser.FuncCall:
			masked = masked || x.Name == "sdb_sign"
		}
	})
	if !masked {
		t.Errorf("expected a masked comparison (sdb_sign) in: %s", rewritten)
	}
}

func TestRewrittenSQLHidesConstants(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT id FROM accounts WHERE balance > 1000`)
	requireConstantHidden(t, res.Stats.RewrittenSQL, 1000)
}

// TestEmptyAggregateRefused: `COUNT()` used to reach the SP and panic it on
// a pool goroutine. Plain or over a SENSITIVE column's table, the statement
// is an error and the proxy answers the next one.
func TestEmptyAggregateRefused(t *testing.T) {
	p, _ := bankSystem(t)
	for _, sql := range []string{
		`SELECT COUNT() FROM accounts GROUP BY branch`,
		`SELECT SUM() FROM accounts WHERE balance > 0`,
		`SELECT AVG() FROM accounts`,
		`SELECT branch, MIN() FROM accounts GROUP BY branch`,
		`SELECT MAX()`,
	} {
		// COUNT() is the one the rewriter passes on; the engine refuses it.
		// The others never leave the proxy ("expects one argument").
		if _, err := p.Exec(sql); err == nil || !strings.Contains(err.Error(), "argument") {
			t.Errorf("%s: error %v, want a clean argument-count error", sql, err)
		}
	}
	res := mustP(t, p, `SELECT COUNT(*), SUM(balance) FROM accounts`)
	wantInts(t, colInts(res, 0), 5)
	wantInts(t, colInts(res, 1), 7500)
}

func TestWhereGreaterConstant(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT id FROM accounts WHERE balance > 1000 ORDER BY id`)
	wantInts(t, colInts(res, 0), 1, 3, 5)
}

func TestWhereLessNegative(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT id FROM accounts WHERE balance < 0`)
	wantInts(t, colInts(res, 0), 4)
}

func TestWhereEqualityOnSensitive(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT id FROM accounts WHERE balance = 1200 ORDER BY id`)
	wantInts(t, colInts(res, 0), 1, 5)
}

func TestWhereBetweenOnSensitive(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT id FROM accounts WHERE balance BETWEEN 0 AND 2000 ORDER BY id`)
	wantInts(t, colInts(res, 0), 1, 2, 5)
}

func TestWhereSensitiveVsSensitive(t *testing.T) {
	p, _ := bankSystem(t)
	// opened date vs constant date plus balance vs balance shape
	res := mustP(t, p, `SELECT id FROM accounts WHERE opened >= DATE '2019-01-01' ORDER BY id`)
	wantInts(t, colInts(res, 0), 1, 2, 4)
}

func TestArithmeticOnSensitive(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT id, balance * 2 AS dbl FROM accounts WHERE id = 1`)
	wantInts(t, colInts(res, 1), 2400)
	res = mustP(t, p, `SELECT balance + balance AS s FROM accounts WHERE id = 2`)
	wantInts(t, colInts(res, 0), 600)
	res = mustP(t, p, `SELECT balance - 100 AS m FROM accounts WHERE id = 2`)
	wantInts(t, colInts(res, 0), 200)
	res = mustP(t, p, `SELECT balance * balance AS sq FROM accounts WHERE id = 2`)
	wantInts(t, colInts(res, 0), 90000)
	res = mustP(t, p, `SELECT -balance AS neg FROM accounts WHERE id = 4`)
	wantInts(t, colInts(res, 0), 200)
}

func TestSumAggregate(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT SUM(balance) FROM accounts`)
	wantInts(t, colInts(res, 0), 1200+300+5000-200+1200)
}

func TestGroupBySumSensitive(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT branch, SUM(balance) AS total FROM accounts GROUP BY branch ORDER BY branch`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows: %v", res.Rows)
	}
	// east=1200, north=1500, south=4800
	wantInts(t, colInts(res, 1), 1200, 1500, 4800)
}

func TestGroupByOnSensitiveColumn(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT balance, COUNT(*) AS c FROM accounts GROUP BY balance ORDER BY balance`)
	// balances: -200, 300, 1200(x2), 5000
	wantInts(t, colInts(res, 0), -200, 300, 1200, 5000)
	wantInts(t, colInts(res, 1), 1, 1, 2, 1)
}

func TestAvgSensitive(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT AVG(balance) FROM accounts`)
	// mean = 7500/5 = 1500, with 2 extra decimal digits => 150000
	wantInts(t, colInts(res, 0), 150000)
	if res.Columns[0].Scale != 2 {
		t.Errorf("avg scale = %d, want 2", res.Columns[0].Scale)
	}
}

// TestAvgSensitiveSumPastInt64: an encrypted AVG whose sum passes 2^63
// still answers when its mean fits, as the plaintext engine does, while
// the SUM itself is an error that names no value.
func TestAvgSensitiveSumPastInt64(t *testing.T) {
	p, _ := testSystem(t)
	mustP(t, p, `CREATE TABLE big (id INT, v INT SENSITIVE)`)
	const rows, base = 200, int64(1) << 56
	vals := make([]string, rows)
	sum := new(big.Int)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, %d)", i, base+int64(i))
		sum.Add(sum, big.NewInt(base+int64(i)))
	}
	mustP(t, p, "INSERT INTO big VALUES "+strings.Join(vals, ", "))
	if sum.IsInt64() {
		t.Fatalf("sum %v fits an int64: nothing to test", sum)
	}
	for _, q := range []string{`SELECT AVG(v) FROM big`, `SELECT AVG(v) FROM big WHERE v > 0`} {
		res := mustP(t, p, q)
		wantInts(t, colInts(res, 0), base*100+(rows-1)*100/2) // Σi/rows = 99.5
	}
	_, err := p.Exec(`SELECT SUM(v) FROM big`)
	if err == nil {
		t.Fatal("a SUM past int64 answered")
	}
	if strings.Contains(err.Error(), sum.String()) || strings.Contains(err.Error(), sum.Text(16)) {
		t.Fatalf("SUM error shows the sum: %v", err)
	}
}

func TestMinMaxSensitive(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT MIN(balance), MAX(balance) FROM accounts`)
	wantInts(t, colInts(res, 0), -200)
	wantInts(t, colInts(res, 1), 5000)
	if !strings.Contains(res.Stats.RewrittenSQL, "sdb_min") {
		t.Errorf("expected sdb_min in rewritten SQL: %s", res.Stats.RewrittenSQL)
	}
}

func TestMinMaxPerGroup(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT branch, MAX(balance) AS m FROM accounts GROUP BY branch ORDER BY branch`)
	wantInts(t, colInts(res, 1), 1200, 1200, 5000)
}

func TestHavingOnEncryptedSum(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT branch, SUM(balance) AS total FROM accounts
		GROUP BY branch HAVING SUM(balance) > 1300 ORDER BY branch`)
	// north=1500, south=4800
	wantInts(t, colInts(res, 1), 1500, 4800)
}

func TestOrderBySensitiveDeferred(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT id FROM accounts ORDER BY balance DESC LIMIT 2`)
	wantInts(t, colInts(res, 0), 3, 1) // 5000, then one of the 1200s... ids 1 or 5
	res2 := mustP(t, p, `SELECT id, balance FROM accounts ORDER BY balance`)
	wantInts(t, colInts(res2, 1), -200, 300, 1200, 1200, 5000)
}

func TestDistinctSensitive(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT DISTINCT balance FROM accounts ORDER BY balance`)
	wantInts(t, colInts(res, 0), -200, 300, 1200, 5000)
}

func TestInListSensitive(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT id FROM accounts WHERE balance IN (300, 5000) ORDER BY id`)
	wantInts(t, colInts(res, 0), 2, 3)
}

func TestCountDistinctSensitive(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT COUNT(DISTINCT balance) FROM accounts`)
	wantInts(t, colInts(res, 0), 4)
}

func TestJoinOnSensitiveEquality(t *testing.T) {
	p, _ := bankSystem(t)
	mustP(t, p, `CREATE TABLE loans (id INT, amount INT SENSITIVE)`)
	mustP(t, p, `INSERT INTO loans VALUES (10, 1200), (11, 99), (12, -200)`)
	res := mustP(t, p, `SELECT a.id, l.id FROM accounts a JOIN loans l ON a.balance = l.amount ORDER BY a.id`)
	// balance 1200 (ids 1,5) matches loan 10; balance -200 (id 4) matches loan 12.
	wantInts(t, colInts(res, 0), 1, 4, 5)
}

func TestSelectStarThroughProxy(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT * FROM accounts WHERE id = 3`)
	if len(res.Columns) != 5 {
		t.Fatalf("star columns: %v", res.Columns)
	}
	if res.Rows[0][3].I != 5000 {
		t.Errorf("balance via star = %v", res.Rows[0][3])
	}
	if res.Rows[0][4].K != types.KindDate {
		t.Errorf("opened kind = %s", res.Rows[0][4].K)
	}
}

func TestSubqueryWithAggregates(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT branch, total FROM
		(SELECT branch, SUM(balance) AS total FROM accounts GROUP BY branch) AS sums
		WHERE total > 1300 ORDER BY branch`)
	wantInts(t, colInts(res, 1), 1500, 4800)
}

func TestCaseSumSensitive(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT SUM(CASE WHEN branch = 'north' THEN balance ELSE 0 END) FROM accounts`)
	wantInts(t, colInts(res, 0), 1500)
}

func TestDecimalSensitiveColumn(t *testing.T) {
	p, _ := testSystem(t)
	mustP(t, p, `CREATE TABLE sales (id INT, price DECIMAL(2) SENSITIVE, qty INT)`)
	mustP(t, p, `INSERT INTO sales VALUES (1, 10.50, 3), (2, 0.99, 10), (3, 20.00, 1)`)
	res := mustP(t, p, `SELECT SUM(price) FROM sales`)
	wantInts(t, colInts(res, 0), 1050+99+2000)
	if res.Columns[0].Scale != 2 {
		t.Errorf("scale = %d", res.Columns[0].Scale)
	}
	// sensitive × insensitive column
	res = mustP(t, p, `SELECT SUM(price * qty) FROM sales`)
	wantInts(t, colInts(res, 0), 3*1050+10*99+2000)
	// decimal comparison
	res = mustP(t, p, `SELECT id FROM sales WHERE price >= 10.50 ORDER BY id`)
	wantInts(t, colInts(res, 0), 1, 3)
}

func TestTPCHQ6Shape(t *testing.T) {
	// SUM(extendedprice * discount) with range predicates on encrypted
	// columns — the TPC-H Q6 shape.
	p, _ := testSystem(t)
	mustP(t, p, `CREATE TABLE lineitem (
		l_quantity INT SENSITIVE,
		l_extendedprice DECIMAL(2) SENSITIVE,
		l_discount DECIMAL(2) SENSITIVE,
		l_shipdate DATE
	)`)
	mustP(t, p, `INSERT INTO lineitem VALUES
		(10, 1000.00, 0.05, '1994-03-01'),
		(30, 2000.00, 0.06, '1994-06-01'),
		(10, 3000.00, 0.09, '1994-09-01'),
		(10, 4000.00, 0.06, '1995-03-01')`)
	res := mustP(t, p, `SELECT SUM(l_extendedprice * l_discount) AS revenue
		FROM lineitem
		WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
		AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`)
	// rows 1 and 2 qualify... row2 has qty 30 (excluded). Only row 1:
	// 1000.00*0.05 = 50.0000 => scaled 4 digits = 500000
	wantInts(t, colInts(res, 0), 500000)
	if res.Columns[0].Scale != 4 {
		t.Errorf("scale = %d, want 4", res.Columns[0].Scale)
	}
}

func TestClientCostBreakdownPopulated(t *testing.T) {
	p, _ := bankSystem(t)
	res := mustP(t, p, `SELECT SUM(balance) FROM accounts`)
	st := res.Stats
	if st.Total() <= 0 || st.Server <= 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

func TestKeyStoreSize(t *testing.T) {
	// E10: key store is O(#columns), independent of row count.
	p, _ := bankSystem(t)
	before := p.KeyStore().NumKeys()
	for i := 0; i < 50; i++ {
		mustP(t, p, `INSERT INTO accounts VALUES (99, 'x', 'west', 1, '2020-01-01')`)
	}
	if p.KeyStore().NumKeys() != before {
		t.Errorf("key store grew with rows: %d -> %d", before, p.KeyStore().NumKeys())
	}
}

func TestRejectsUnsupportedEncryptedOps(t *testing.T) {
	p, _ := bankSystem(t)
	bad := []string{
		`SELECT balance / 2 FROM accounts`,
		`SELECT id FROM accounts WHERE owner LIKE balance`,
		`SELECT substr(balance, 1, 2) FROM accounts`,
		`SELECT balance + id FROM accounts`, // enc + plain column
	}
	for _, sql := range bad {
		if _, err := p.Exec(sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
}

func TestUnknownTableRejected(t *testing.T) {
	p, _ := testSystem(t)
	if _, err := p.Exec(`SELECT x FROM nosuch`); err == nil {
		t.Error("expected unknown-table error")
	}
}

// TestCursorBatchBounded is the DO half of the streaming memory claim (the
// SP half is the engine's TestStreamScanBatchBounded): a scan much larger
// than one batch reaches the application through the decrypting cursor in
// batches of at most the pool geometry, chunk × workers, never as the
// whole result.
func TestCursorBatchBounded(t *testing.T) {
	const rows, workers, chunk = 500, 2, 16
	secret, err := secure.Setup(512, 62, 80)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.NewWithOptions(storage.NewCatalog(), secret.N(), engine.Options{Parallelism: workers, ChunkSize: chunk})
	p, err := NewWithOptions(secret, eng, Options{Parallelism: workers, ChunkSize: chunk})
	if err != nil {
		t.Fatal(err)
	}
	mustP(t, p, `CREATE TABLE big (id INT, v INT SENSITIVE)`)
	vals := make([]string, rows)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, %d)", i, i*7-100)
	}
	mustP(t, p, "INSERT INTO big VALUES "+strings.Join(vals, ", "))

	cur, err := p.QueryContext(context.Background(), `SELECT id, v FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	total, batches := 0, 0
	for {
		batch, err := cur.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 || len(batch) > workers*chunk {
			t.Fatalf("decrypted batch of %d rows, want 1..%d", len(batch), workers*chunk)
		}
		for _, row := range batch {
			if row[1].I != row[0].I*7-100 {
				t.Fatalf("row %v decrypted wrong", row)
			}
		}
		total += len(batch)
		batches++
	}
	if total != rows || batches < rows/(workers*chunk) {
		t.Fatalf("%d rows in %d batches, want %d rows in at least %d", total, batches, rows, rows/(workers*chunk))
	}
}
