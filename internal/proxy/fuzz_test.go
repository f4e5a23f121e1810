package proxy

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/secure"
	"sdb/internal/sqlparser"
	"sdb/internal/storage"
	"sdb/internal/tpch"
)

// fuzzDeployment is a shared secure + plaintext TPC-H pair for FuzzExecSelect
// (built once; fuzz bodies must not mutate it, which is why the target only
// executes SELECTs).
type fuzzDeployment struct {
	sdb   *Proxy
	plain *Proxy
}

var (
	fuzzDepOnce sync.Once
	fuzzDep     *fuzzDeployment
	fuzzDepErr  error
)

func getFuzzDeployment() (*fuzzDeployment, error) {
	fuzzDepOnce.Do(func() {
		secret, err := secure.Setup(384, 62, 80)
		if err != nil {
			fuzzDepErr = err
			return
		}
		sdb, err := New(secret, engine.New(storage.NewCatalog(), secret.N()))
		if err != nil {
			fuzzDepErr = err
			return
		}
		plain, err := New(secret, engine.New(storage.NewCatalog(), nil))
		if err != nil {
			fuzzDepErr = err
			return
		}
		for _, ddl := range tpch.CreateStatements() {
			if _, err := sdb.Exec(ddl); err != nil {
				fuzzDepErr = err
				return
			}
			stmt, _ := sqlparser.Parse(ddl)
			ct := stmt.(*sqlparser.CreateTable)
			for i := range ct.Cols {
				ct.Cols[i].Type.Sensitive = false
			}
			if _, err := plain.Exec(ct.String()); err != nil {
				fuzzDepErr = err
				return
			}
		}
		fuzzDepErr = tpch.Generate(tpch.Config{ScaleFactor: 0.0001, Seed: 3}, func(sql string) error {
			if _, err := sdb.Exec(sql); err != nil {
				return err
			}
			_, err := plain.Exec(sql)
			return err
		})
		fuzzDep = &fuzzDeployment{sdb: sdb, plain: plain}
	})
	return fuzzDep, fuzzDepErr
}

// FuzzExecSelect feeds SQL through the full SDB pipeline (rewrite → secure
// execution → decrypt) and through a plaintext deployment over the same
// TPC-H data. It must never panic, and whenever both deployments accept a
// SELECT, the decrypted results must match — the paper's correctness claim
// under adversarial query shapes. The corpus seeds every TPC-H query plus
// tricky expression and literal shapes.
func FuzzExecSelect(f *testing.F) {
	for _, q := range tpch.Queries() {
		f.Add(q.SQL)
	}
	for _, s := range []string{
		`SELECT l_orderkey, l_extendedprice * (1 - l_discount) FROM lineitem WHERE l_quantity < 24`,
		`SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_discount BETWEEN 0.05 AND 0.07`,
		`SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority`,
		`SELECT CASE WHEN l_quantity > 25 THEN -l_quantity ELSE l_quantity + 1 END FROM lineitem LIMIT 5`,
		`SELECT c_name || '-' || 'x', length(c_name) FROM customer WHERE c_name LIKE 'Customer%'`,
		`SELECT DISTINCT l_returnflag FROM lineitem ORDER BY l_returnflag DESC`,
		`SELECT l_quantity FROM lineitem WHERE l_quantity IN (1, 2, 3) OR l_quantity IS NULL`,
		`SELECT 'it''s', 0x2a, -0x1f, year(l_shipdate) FROM lineitem LIMIT 1`,
		`SELECT t.a FROM (SELECT l_orderkey AS a FROM lineitem) AS t WHERE t.a > 0 LIMIT 3`,
		// SDB UDF calls with malformed token material: each once crashed
		// the SP; the proxy refuses hex literals, the engine refuses them
		// at plan time.
		`SELECT sdb_keyupdate(l_quantity, sdb_w, 0x3, 0x5, 0x0) FROM lineitem`,
		`SELECT sdb_sign(l_quantity, sdb_w, 0x3, 0x5, 0x0) FROM lineitem`,
		`SELECT sdb_const(sdb_w, 0x3, 0x5, 0x0) FROM lineitem`,
		`SELECT sdb_mul(l_quantity, sdb_mask, 0x0) FROM lineitem`,
		`SELECT sdb_add(l_quantity, sdb_mask, 0x0) FROM lineitem`,
		`SELECT sdb_scale(l_quantity, l_orderkey, 0x0) FROM lineitem`,
		`SELECT l_orderkey FROM lineitem ORDER BY sdb_ord(l_quantity, l_orderkey, 0x3, 0x5)`,
		`SELECT l_orderkey FROM lineitem ORDER BY sdb_ord(l_quantity, sdb_mask, 1, 2)`,
		`SELECT l_orderkey FROM lineitem ORDER BY sdb_ord(l_quantity, sdb_mask, 0x3, 0x0)`,
		`SELECT sum(sdb_keyupdate(l_quantity, sdb_w, 0x3, 0x5, 0x0)) FROM lineitem`,
		`SELECT sdb_min(l_quantity, sdb_mask, 0x3, 0x0) FROM lineitem`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		dep, err := getFuzzDeployment()
		if err != nil {
			t.Skip("deployment unavailable:", err)
		}
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			return
		}
		if _, ok := stmt.(*sqlparser.Select); !ok {
			return // writes would diverge the shared deployments
		}
		encRes, encErr := dep.sdb.Exec(sql)
		plainRes, plainErr := dep.plain.Exec(sql)
		if encErr != nil || plainErr != nil {
			return // acceptance divergence is allowed; divergent answers are not
		}
		if len(encRes.Rows) != len(plainRes.Rows) {
			t.Fatalf("query %q: %d vs %d rows", sql, len(encRes.Rows), len(plainRes.Rows))
		}
		for r := range encRes.Rows {
			for c := range encRes.Rows[r] {
				ev, pv := encRes.Rows[r][c], plainRes.Rows[r][c]
				if ev.IsNull() != pv.IsNull() {
					t.Fatalf("query %q row %d col %d: null divergence", sql, r, c)
				}
				if !ev.IsNull() && (ev.S != pv.S || ev.I != pv.I) {
					t.Fatalf("query %q row %d col %d: %v vs %v", sql, r, c, ev, pv)
				}
			}
		}
	})
}

// TestRewriterDifferentialFuzz generates random queries over a table with
// both sensitive and plain columns and checks that the full SDB pipeline
// (encrypt → rewrite → secure execution → decrypt) agrees with a plaintext
// deployment on every one. This is the rewriter's strongest correctness
// guarantee: whatever expression shape the generator finds, the secure
// operators must preserve semantics exactly.
func TestRewriterDifferentialFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz is slow")
	}
	secret, err := secure.Setup(512, 62, 80)
	if err != nil {
		t.Fatal(err)
	}
	sdbEng := engine.New(storage.NewCatalog(), secret.N())
	sdb, err := New(secret, sdbEng)
	if err != nil {
		t.Fatal(err)
	}
	plainEng := engine.New(storage.NewCatalog(), nil)
	plain, err := New(secret, plainEng)
	if err != nil {
		t.Fatal(err)
	}

	load := func(p *Proxy, ddl string) {
		t.Helper()
		if _, err := p.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	load(sdb, `CREATE TABLE f (id INT, grp STRING, a INT SENSITIVE, b INT SENSITIVE, c INT)`)
	load(plain, `CREATE TABLE f (id INT, grp STRING, a INT, b INT, c INT)`)

	rng := rand.New(rand.NewSource(1234))
	groups := []string{"x", "y", "z"}
	for i := 0; i < 40; i++ {
		row := fmt.Sprintf("(%d, '%s', %d, %d, %d)",
			i, groups[rng.Intn(3)], rng.Intn(2001)-1000, rng.Intn(201)-100, rng.Intn(21)-10)
		sql := "INSERT INTO f VALUES " + row
		if _, err := sdb.Exec(sql); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}

	// scalar terms over sensitive/plain columns and constants
	terms := []string{
		"a", "b", "a + b", "a - b", "a * b", "a * 3", "-a", "a + 100",
		"a * b + 7", "(a + b) * 2", "b * c", "a - 500", "b + b",
		"CASE WHEN c > 0 THEN a ELSE 0 END",
	}
	preds := []string{
		"a > 0", "a <= -100", "b = 0", "a > b", "a + b < 100",
		"a BETWEEN -200 AND 200", "b IN (1, 2, 3)", "a != b",
		"c > 0 AND a > 0", "a > 0 OR b > 50", "NOT (a > 0)",
		"a * b > 1000",
	}
	aggs := []string{"SUM", "MIN", "MAX", "COUNT"}

	queryOf := func(r *rand.Rand) string {
		switch r.Intn(4) {
		case 0: // projection + filter + order
			return fmt.Sprintf(
				"SELECT id, %s AS e FROM f WHERE %s ORDER BY id",
				terms[r.Intn(len(terms))], preds[r.Intn(len(preds))])
		case 1: // aggregate
			return fmt.Sprintf(
				"SELECT %s(%s) FROM f WHERE %s",
				aggs[r.Intn(len(aggs))], terms[r.Intn(len(terms))], preds[r.Intn(len(preds))])
		case 2: // group by plain key
			return fmt.Sprintf(
				"SELECT grp, SUM(%s) AS s, COUNT(*) FROM f GROUP BY grp ORDER BY grp",
				terms[r.Intn(len(terms))])
		default: // group by sensitive key
			return fmt.Sprintf(
				"SELECT a, COUNT(*) FROM f WHERE %s GROUP BY a ORDER BY a",
				preds[r.Intn(len(preds))])
		}
	}

	for i := 0; i < 120; i++ {
		sql := queryOf(rng)
		encRes, encErr := sdb.Exec(sql)
		plainRes, plainErr := plain.Exec(sql)
		if (encErr == nil) != (plainErr == nil) {
			t.Fatalf("query %q: error divergence: sdb=%v plain=%v", sql, encErr, plainErr)
		}
		if encErr != nil {
			continue
		}
		if len(encRes.Rows) != len(plainRes.Rows) {
			t.Fatalf("query %q: %d vs %d rows", sql, len(encRes.Rows), len(plainRes.Rows))
		}
		for r := range encRes.Rows {
			for c := range encRes.Rows[r] {
				ev, pv := encRes.Rows[r][c], plainRes.Rows[r][c]
				if ev.IsNull() != pv.IsNull() {
					t.Fatalf("query %q row %d col %d: null divergence", sql, r, c)
				}
				if ev.IsNull() {
					continue
				}
				if ev.S != pv.S || ev.I != pv.I {
					t.Fatalf("query %q row %d col %d: %v vs %v", sql, r, c, ev, pv)
				}
			}
		}
	}
}
