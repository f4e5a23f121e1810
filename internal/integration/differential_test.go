// Package integration holds the end-to-end differential suite: every
// runnable TPC-H query is executed through the full secure pipeline (proxy
// rewrite → secure engine → proxy decrypt) and through a plaintext
// deployment over the same generated data, and the results must be
// identical. This is the paper's core correctness claim — secure execution
// computes exactly the plaintext answer — checked end to end rather than
// per operator, in both serial and chunked-parallel execution modes.
package integration

import (
	"sync"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/sqlparser"
	"sdb/internal/storage"
	"sdb/internal/tpch"
)

// fixture is a pair of deployments over identical TPC-H data: one secure
// (sensitive columns encrypted, 512-bit modulus) and one plaintext.
type fixture struct {
	sdb    *proxy.Proxy
	plain  *proxy.Proxy
	sdbEng *engine.Engine
}

var (
	fxOnce sync.Once
	fx     *fixture
	fxErr  error
)

// setup loads TPC-H at a small scale factor into both deployments once per
// test binary (encryption at load time dominates the suite's cost).
func setup(t *testing.T) *fixture {
	t.Helper()
	if testing.Short() {
		t.Skip("integration differential suite is slow")
	}
	fxOnce.Do(func() {
		secret, err := secure.Setup(512, secure.DefaultValueBits, secure.DefaultMaskBits)
		if err != nil {
			fxErr = err
			return
		}
		sdbEng := engine.New(storage.NewCatalog(), secret.N())
		sdb, err := proxy.New(secret, sdbEng)
		if err != nil {
			fxErr = err
			return
		}
		plainEng := engine.New(storage.NewCatalog(), nil)
		plain, err := proxy.New(secret, plainEng)
		if err != nil {
			fxErr = err
			return
		}
		for _, ddl := range tpch.CreateStatements() {
			if _, err := sdb.Exec(ddl); err != nil {
				fxErr = err
				return
			}
			stmt, err := sqlparser.Parse(ddl)
			if err != nil {
				fxErr = err
				return
			}
			ct := stmt.(*sqlparser.CreateTable)
			for i := range ct.Cols {
				ct.Cols[i].Type.Sensitive = false
			}
			if _, err := plain.Exec(ct.String()); err != nil {
				fxErr = err
				return
			}
		}
		fxErr = tpch.Generate(tpch.Config{ScaleFactor: 0.0004, Seed: 17}, func(sql string) error {
			if _, err := sdb.Exec(sql); err != nil {
				return err
			}
			_, err := plain.Exec(sql)
			return err
		})
		fx = &fixture{sdb: sdb, plain: plain, sdbEng: sdbEng}
	})
	if fxErr != nil {
		t.Fatal(fxErr)
	}
	return fx
}

// requireEqualResults compares two decrypted results cell by cell.
func requireEqualResults(t *testing.T, label, sql string, got, want *proxy.Result) {
	t.Helper()
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: %d vs %d columns\n%s", label, len(got.Columns), len(want.Columns), sql)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d vs %d rows\n%s", label, len(got.Rows), len(want.Rows), sql)
	}
	for r := range got.Rows {
		for c := range got.Rows[r] {
			gv, wv := got.Rows[r][c], want.Rows[r][c]
			if gv.IsNull() != wv.IsNull() {
				t.Fatalf("%s: row %d col %d (%s): null divergence (%v vs %v)",
					label, r, c, got.Columns[c].Name, gv, wv)
			}
			if gv.IsNull() {
				continue
			}
			if gv.I != wv.I || gv.S != wv.S {
				t.Fatalf("%s: row %d col %d (%s): %v vs %v",
					label, r, c, got.Columns[c].Name, gv, wv)
			}
		}
	}
}

// execModes runs one SQL statement through the secure deployment in every
// execution mode and returns the per-mode results (restoring default
// options afterwards).
var execModes = []struct {
	name   string
	engine engine.Options
	proxy  proxy.Options
}{
	{"serial", engine.Options{Parallelism: 1}, proxy.Options{Parallelism: 1}},
	{"parallel-default", engine.Options{}, proxy.Options{}},
	{"parallel-tiny-chunks", engine.Options{Parallelism: 4, ChunkSize: 7}, proxy.Options{Parallelism: 4}},
	// Forced spill: a resident-row budget far below the Q3-shaped join
	// build sides and aggregation tables at this scale factor, so every
	// blocking operator runs its Grace/external path while the plaintext
	// reference stays in memory — the strongest order-sensitive check
	// that spilled execution is indistinguishable.
	{"forced-spill", engine.Options{Parallelism: 4, ChunkSize: 7, MemBudgetRows: 48}, proxy.Options{Parallelism: 4}},
}

// TestTPCHSecureMatchesPlaintext is the headline differential: every
// runnable TPC-H query, secure == plaintext, in serial and parallel modes.
func TestTPCHSecureMatchesPlaintext(t *testing.T) {
	f := setup(t)
	for _, q := range tpch.RunnableQueries() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			want, err := f.plain.Exec(q.SQL)
			if err != nil {
				t.Fatalf("plaintext Q%d: %v", q.Num, err)
			}
			if len(want.Rows) == 0 {
				t.Logf("Q%d returns no rows at this scale factor; divergence coverage is weaker", q.Num)
			}
			for _, mode := range execModes {
				f.sdb.SetOptions(mode.proxy)
				f.sdbEng.SetOptions(mode.engine)
				got, err := f.sdb.Exec(q.SQL)
				if err != nil {
					t.Fatalf("secure Q%d (%s): %v", q.Num, mode.name, err)
				}
				requireEqualResults(t, "secure/"+mode.name+" vs plaintext", q.SQL, got, want)
			}
			f.sdb.SetOptions(proxy.Options{})
			f.sdbEng.SetOptions(engine.Options{})
		})
	}
}

// TestRotationPreservesQueryAnswers rotates every sensitive lineitem
// column key (the server-side re-keying path, chunk-parallel in the
// engine) and re-checks a query against plaintext afterwards. The query
// runs through a deliberately warm plan cache on both sides of the
// rotation: the pre-rotation rewrite (with now-stale tokens) is sitting
// in the cache when the post-rotation execution arrives, so a missed
// invalidation would decrypt re-keyed shares into garbage here.
func TestRotationPreservesQueryAnswers(t *testing.T) {
	f := setup(t)
	const sql = `SELECT l_returnflag, SUM(l_extendedprice), COUNT(*) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`
	want, err := f.plain.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache: run the statement twice pre-rotation so the second
	// execution is served from the cache (when the cache is enabled).
	for i := 0; i < 2; i++ {
		got, err := f.sdb.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, "pre-rotation", sql, got, want)
	}
	_, missesBefore := f.sdb.PlanCacheStats()
	for _, col := range []string{"l_quantity", "l_extendedprice", "l_discount", "l_tax"} {
		if _, err := f.sdb.RotateColumn("lineitem", col); err != nil {
			t.Fatalf("rotate %s: %v", col, err)
		}
	}
	if _, err := f.sdb.RotateMask("lineitem"); err != nil {
		t.Fatal(err)
	}
	got, err := f.sdb.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "post-rotation", sql, got, want)
	if hits, misses := f.sdb.PlanCacheStats(); hits > 0 && misses == missesBefore {
		t.Fatal("post-rotation execution was served from the stale plan cache")
	}
}
