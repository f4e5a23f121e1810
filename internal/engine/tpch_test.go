package engine_test

// TPC-H against the planner: every benchmarked join is written JOIN … ON,
// so these tests hold the two FROM syntaxes to one plan and pin the spill
// numbers that follow from it.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/storage"
	"sdb/internal/tpch"
)

// plainCreateStatements is tpch.CreateStatements without the SENSITIVE
// annotations: the schema of the plaintext twin the differentials load.
func plainCreateStatements() []string {
	ddl := tpch.CreateStatements()
	for i := range ddl {
		ddl[i] = strings.ReplaceAll(ddl[i], " SENSITIVE", "")
	}
	return ddl
}

// createTPCH creates the TPC-H tables through exec.
func createTPCH(t *testing.T, ddl []string, exec func(sql string) error) {
	t.Helper()
	for _, sql := range ddl {
		if err := exec(sql); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTPCHJoinSyntaxEquivalence: for every runnable TPC-H statement, as
// written and as the proxy rewrites it for the SP, the plan of the statement
// equals the plan of its mechanically derived comma form, and no filter is
// left sitting on a join — every WHERE and ON conjunct of the workload names
// a leaf or bridges two, so each has a place below.
func TestTPCHJoinSyntaxEquivalence(t *testing.T) {
	secret, err := secure.Setup(384, 62, 80)
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{Planner: "on"}
	plainEng := engine.NewWithOptions(storage.NewCatalog(), nil, opts)
	sdbEng := engine.NewWithOptions(storage.NewCatalog(), secret.N(), opts)
	sdb, err := proxy.New(secret, sdbEng)
	if err != nil {
		t.Fatal(err)
	}
	execPlain := func(sql string) error { _, err := plainEng.ExecuteSQL(sql); return err }
	execSDB := func(sql string) error { _, err := sdb.Exec(sql); return err }
	createTPCH(t, plainCreateStatements(), execPlain)
	createTPCH(t, tpch.CreateStatements(), execSDB)
	err = tpch.Generate(tpch.Config{ScaleFactor: 0.0002, Seed: 5}, func(sql string) error {
		if err := execPlain(sql); err != nil {
			return err
		}
		return execSDB(sql)
	})
	if err != nil {
		t.Fatal(err)
	}

	check := func(label string, e *engine.Engine, sql string) {
		t.Helper()
		comma, err := tpch.CommaForm(sql)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, err := engine.PlanSig(e, sql)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := engine.PlanSig(e, comma)
		if err != nil {
			t.Fatalf("%s, comma form: %v\n%s", label, err, comma)
		}
		if got != want {
			t.Errorf("%s: JOIN form plans %s\n  comma form plans %s", label, got, want)
		}
		if engine.FilterOnJoin(got) {
			t.Errorf("%s: a filter sits on a join: %s", label, got)
		}
	}
	joins := 0
	for _, q := range tpch.RunnableQueries() {
		label := fmt.Sprintf("Q%d", q.Num)
		check(label, plainEng, q.SQL)
		res, err := sdb.Exec(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		check(label+" rewritten", sdbEng, res.Stats.RewrittenSQL)
		if strings.Contains(q.SQL, "JOIN") {
			joins++
		}
	}
	if joins < 10 {
		t.Fatalf("only %d runnable statements use JOIN … ON: the equivalence above is vacuous", joins)
	}
}

// TestTPCHSpillPins pins the spill numbers of the benchmark's plain-spill
// sizing (SF 0.003, 2 400 resident rows), to the row. Q3, Q5, Q10 and Q21
// used to spill the unfiltered orders ⋈ lineitem — 45 348 rows each, digit
// for digit — before looking at their WHERE clause; with the filters on the
// scans their build sides fit and nothing spills. Q13's GROUP BY state,
// folded into one table, fits too. Q18 still spills its join: 4 500 orders
// and 20 424 lineitem rows partitioned, 1 spill. Its GROUP BY sits directly
// on the join, so the leaves fold their matches into group tables instead
// of writing the 20 424 joined rows: each leaf table flushes when it
// reaches the leaf's share of the budget (144 generations), lineitem's
// clustering by order key keeps every group in one generation, so 4 500
// group records reach disk, and the finalize writes the 4 500 groups as
// output runs. Every answer equals the unbudgeted run's and the
// planner-off run's.
func TestTPCHSpillPins(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-H at SF 0.003 three times")
	}
	build := func(planner string, budget int) *engine.Engine {
		e := engine.NewWithOptions(storage.NewCatalog(), nil, engine.Options{
			Parallelism: 2, MemBudgetRows: budget, SpillDir: t.TempDir(), Planner: planner})
		exec := func(sql string) error { _, err := e.ExecuteSQL(sql); return err }
		createTPCH(t, plainCreateStatements(), exec)
		if err := tpch.Generate(tpch.Config{ScaleFactor: 0.003, Seed: 42}, exec); err != nil {
			t.Fatal(err)
		}
		return e
	}
	resident, budgeted, off := build("on", -1), build("on", 2400), build("off", -1)
	run := func(e *engine.Engine, sql string) (*engine.Result, engine.ExecStats) {
		t.Helper()
		it, err := e.QuerySQL(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		res, err := engine.Drain(it)
		if err != nil {
			t.Fatal(err)
		}
		return res, it.(interface{ Stats() engine.ExecStats }).Stats()
	}
	pins := map[int]struct{ spills, rows int }{
		3: {0, 0}, 5: {0, 0}, 10: {0, 0}, 21: {0, 0},
		13: {0, 0}, 18: {145, 33924},
	}
	for _, q := range tpch.RunnableQueries() {
		pin, ok := pins[q.Num]
		if !ok {
			continue
		}
		want, st := run(resident, q.SQL)
		// (No supplier of Q21's nation exists at this size and seed: its
		// answer is empty, its joins are not.)
		if st.Spills != 0 || (len(want.Rows) == 0 && q.Num != 21) {
			t.Fatalf("Q%d unbudgeted: %d rows, stats %+v", q.Num, len(want.Rows), st)
		}
		got, st := run(budgeted, q.SQL)
		t.Logf("Q%d under 2400 rows: %d spills, %d rows spilled, peak %d resident", q.Num, st.Spills, st.SpilledRows, st.PeakResidentRows)
		if st.Spills != pin.spills || st.SpilledRows != pin.rows {
			t.Errorf("Q%d under 2400 rows: %d spills of %d rows, want %d of %d",
				q.Num, st.Spills, st.SpilledRows, pin.spills, pin.rows)
		}
		engine.RequireSameRows(t, fmt.Sprintf("Q%d budgeted vs resident", q.Num), got, want)
		naive, _ := run(off, q.SQL)
		engine.RequireSameRows(t, fmt.Sprintf("Q%d planner on vs off", q.Num), want, naive)
	}
}

// TestTPCHPoolMarks pins which operators of the TPC-H plans get the worker
// pool ("‖" in a plan signature): exactly those doing secure arithmetic per
// row. In the rewritten Q1 the aggregation runs the share SUMs' row
// programs, while the date filter compares plaintext dates and the
// projection only forwards the aggregate's columns; Q6's filter runs
// sdb_sign over the discount; Q19's join residual runs sdb_sign on every
// joined row; Q22's derived table projects a share product. No plan over
// the plaintext schema does secure arithmetic, so none of its operators is
// marked.
func TestTPCHPoolMarks(t *testing.T) {
	secret, err := secure.Setup(384, 62, 80)
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{Parallelism: 2, Planner: "on"}
	plainEng := engine.NewWithOptions(storage.NewCatalog(), nil, opts)
	sdbEng := engine.NewWithOptions(storage.NewCatalog(), secret.N(), opts)
	sdb, err := proxy.New(secret, sdbEng)
	if err != nil {
		t.Fatal(err)
	}
	execPlain := func(sql string) error { _, err := plainEng.ExecuteSQL(sql); return err }
	execSDB := func(sql string) error { _, err := sdb.Exec(sql); return err }
	createTPCH(t, plainCreateStatements(), execPlain)
	createTPCH(t, tpch.CreateStatements(), execSDB)
	err = tpch.Generate(tpch.Config{ScaleFactor: 0.0002, Seed: 5}, func(sql string) error {
		if err := execPlain(sql); err != nil {
			return err
		}
		return execSDB(sql)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{
		1:  "sort(π(agg‖(σ(lineitem))))",
		6:  "π(agg‖(σ‖(lineitem)))",
		19: "π(agg‖(hash1+‖(lineitem, part)))",
		22: "sort(π(agg‖([π‖(σ‖(customer))])))",
	}
	for _, q := range tpch.RunnableQueries() {
		label := fmt.Sprintf("Q%d", q.Num)
		plain, err := engine.PlanSig(plainEng, q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if strings.Contains(plain, "‖") {
			t.Errorf("%s over plaintext columns: an operator got the worker pool: %s", label, plain)
		}
		w, ok := want[q.Num]
		if !ok {
			continue
		}
		delete(want, q.Num)
		res, err := sdb.Exec(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, err := engine.PlanSig(sdbEng, res.Stats.RewrittenSQL)
		if err != nil {
			t.Fatalf("%s rewritten: %v", label, err)
		}
		if got != w {
			t.Errorf("%s rewritten plans %s, want %s", label, got, w)
		}
	}
	if len(want) != 0 {
		t.Fatalf("queries not runnable any more: %v", want)
	}
}
