package engine

// Planner regression and differential suite. The plan-shape tests pin the
// headline bugfix (comma-join + equi-WHERE plans a hash join, not a
// nested-loop cross product) and the size-aware build-side choice; the
// randomized differential runs identical statements through a planner-off
// reference engine, a planner-on engine and a planner-on engine under a
// forced tiny spill budget, requiring bit-identical rows and order. The
// generated queries ORDER BY every output column, so their output order is
// canonical: a build-side swap (the one planner decision that changes
// intermediate row order) cannot show through.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sdb/internal/sqlparser"
	"sdb/internal/storage"
)

// planFor compiles one SELECT without executing it.
func planFor(t *testing.T, e *Engine, sql string) *queryPlan {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %s: %v", sql, err)
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		t.Fatalf("not a SELECT: %s", sql)
	}
	qs := e.newQuerySpill()
	defer qs.close()
	pl, err := e.planQuery(sel, e.PinSnapshot(), qs)
	if err != nil {
		t.Fatalf("plan %s: %v", sql, err)
	}
	return pl
}

// opsIn flattens an operator tree pre-order.
func opsIn(op operator) []operator {
	out := []operator{op}
	switch o := op.(type) {
	case *filterOp:
		out = append(out, opsIn(o.child)...)
	case *projectOp:
		out = append(out, opsIn(o.child)...)
	case *renameOp:
		out = append(out, opsIn(o.child)...)
	case *limitOp:
		out = append(out, opsIn(o.child)...)
	case *distinctOp:
		out = append(out, opsIn(o.child)...)
	case *sortOp:
		out = append(out, opsIn(o.child)...)
	case *topKOp:
		out = append(out, opsIn(o.child)...)
	case *hashAggOp:
		out = append(out, opsIn(o.child)...)
	case *hashJoinOp:
		out = append(out, opsIn(o.left)...)
		out = append(out, opsIn(o.right)...)
	case *nestedLoopJoinOp:
		out = append(out, opsIn(o.left)...)
		out = append(out, opsIn(o.right)...)
	}
	return out
}

func countOps[T operator](ops []operator) (n int, last T) {
	for _, op := range ops {
		if t, ok := op.(T); ok {
			n++
			last = t
		}
	}
	return n, last
}

func plannerEngines(t *testing.T) (on, off *Engine) {
	t.Helper()
	onOpts := spillOptions(-1, t.TempDir())
	onOpts.Planner = "on"
	offOpts := spillOptions(-1, t.TempDir())
	offOpts.Planner = "off"
	return NewWithOptions(storage.NewCatalog(), nil, onOpts),
		NewWithOptions(storage.NewCatalog(), nil, offOpts)
}

// TestCommaJoinPlansHashJoin is the headline plan-shape regression: a
// comma join with an equi-join WHERE predicate must plan a hash join. On
// the pre-planner tree (still reachable via Planner: "off") the same
// statement plans a nested-loop cross product with a post-join filter.
func TestCommaJoinPlansHashJoin(t *testing.T) {
	on, off := plannerEngines(t)
	for _, e := range []*Engine{on, off} {
		mustExec(t, e, `CREATE TABLE a (k INT, x INT)`)
		mustExec(t, e, `CREATE TABLE b (k INT, y INT)`)
		mustExec(t, e, `INSERT INTO a VALUES (1, 10), (2, 20), (3, 30), (2, 21)`)
		mustExec(t, e, `INSERT INTO b VALUES (2, 200), (3, 300), (3, 301), (9, 900)`)
	}
	sql := `SELECT a.x, b.y FROM a, b WHERE a.k = b.k`

	ops := opsIn(planFor(t, on, sql).root)
	if n, _ := countOps[*hashJoinOp](ops); n != 1 {
		t.Fatalf("planner on: %d hashJoinOps, want 1", n)
	}
	if n, _ := countOps[*nestedLoopJoinOp](ops); n != 0 {
		t.Fatalf("planner on: comma join still plans a nested-loop cross product")
	}

	ops = opsIn(planFor(t, off, sql).root)
	if n, _ := countOps[*nestedLoopJoinOp](ops); n != 1 {
		t.Fatalf("planner off: %d nestedLoopJoinOps, want 1 (naive tree)", n)
	}
	if n, _ := countOps[*hashJoinOp](ops); n != 0 {
		t.Fatalf("planner off: unexpected hashJoinOp in naive tree")
	}

	// The conversion is exactly order-preserving: a hash join emits probe
	// order × build insertion order, which is the filtered nested-loop
	// order on the same inputs — so even without ORDER BY the two modes
	// must agree cell for cell.
	got, _ := queryWithStats(t, on, sql)
	want, _ := queryWithStats(t, off, sql)
	if len(want.Rows) == 0 {
		t.Fatalf("degenerate fixture: no join matches")
	}
	requireSameRows(t, "comma join on-vs-off", got, want)
}

// TestPushdownBelowJoin checks single-table WHERE conjuncts land below the
// join on their own input, leaving no residual filter above it.
func TestPushdownBelowJoin(t *testing.T) {
	on, _ := plannerEngines(t)
	mustExec(t, on, `CREATE TABLE a (k INT, x INT)`)
	mustExec(t, on, `CREATE TABLE b (k INT, y INT)`)
	mustExec(t, on, `INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)`)
	mustExec(t, on, `INSERT INTO b VALUES (2, 200), (3, 300)`)

	pl := planFor(t, on, `SELECT a.x, b.y FROM a, b WHERE a.k = b.k AND a.x > 5 AND b.y < 250`)
	ops := opsIn(pl.root)
	njoins, join := countOps[*hashJoinOp](ops)
	if njoins != 1 {
		t.Fatalf("%d hashJoinOps, want 1", njoins)
	}
	if _, ok := join.left.(*filterOp); !ok {
		t.Fatalf("probe input is %T, want the pushed-down filterOp", join.left)
	}
	if _, ok := join.right.(*filterOp); !ok {
		t.Fatalf("build input is %T, want the pushed-down filterOp", join.right)
	}
	// Both single-table conjuncts were consumed below the join, so no
	// filter may remain above it (the projection sits directly on the
	// join).
	proj, ok := pl.root.(*projectOp)
	if !ok {
		t.Fatalf("root is %T, want projectOp", pl.root)
	}
	if _, ok := proj.child.(*hashJoinOp); !ok {
		t.Fatalf("projection input is %T, want the join (no residual filter)", proj.child)
	}
}

// TestBuildSideSwap pins the size-aware build-side choice: joining a small
// input to a big one must hash the small side regardless of which side of
// the join it appears on, proven by peak-resident-rows — the naive
// build-on-the-right plan materializes the large table.
func TestBuildSideSwap(t *testing.T) {
	const smallRows, bigRows = 16, 2000
	on, off := plannerEngines(t)
	for _, e := range []*Engine{on, off} {
		mustExec(t, e, `CREATE TABLE small (k INT, v INT)`)
		mustExec(t, e, `CREATE TABLE big (k INT, w INT)`)
		loadRows(t, []*Engine{e}, "small", smallRows, func(i int) string {
			return fmt.Sprintf("(%d, %d)", i, i*10)
		})
		loadRows(t, []*Engine{e}, "big", bigRows, func(i int) string {
			return fmt.Sprintf("(%d, %d)", i%smallRows, i)
		})
	}
	// big is on the right — the naive hash join builds on it. The join
	// output feeds an aggregation (retained state O(#groups)) rather than
	// a sort sink, so peak-resident-rows isolates the build side: only
	// the materialized build table is O(input).
	sql := `SELECT small.k, COUNT(*) FROM small JOIN big ON small.k = big.k GROUP BY small.k ORDER BY small.k`

	ops := opsIn(planFor(t, on, sql).root)
	if _, join := countOps[*hashJoinOp](ops); !join.flip {
		t.Fatalf("planner on: join did not swap its build side onto the small input")
	} else if join.buildHint != smallRows {
		t.Fatalf("planner on: buildHint = %d, want %d", join.buildHint, smallRows)
	}

	got, stOn := queryWithStats(t, on, sql)
	want, stOff := queryWithStats(t, off, sql)
	if stOff.PeakResidentRows < bigRows {
		t.Fatalf("planner off: peak %d resident rows — expected the naive plan to materialize big (%d rows)",
			stOff.PeakResidentRows, bigRows)
	}
	if stOn.PeakResidentRows >= bigRows/2 {
		t.Fatalf("planner on: peak %d resident rows — still materializes the big side", stOn.PeakResidentRows)
	}
	// Aggregation output is deterministic and the ORDER BY makes its
	// order canonical, so the swap cannot show through.
	requireSameRows(t, "build-side swap on-vs-off", got, want)
}

// TestPlannerDifferential is the randomized planner-off vs planner-on vs
// planner-on-under-spill differential. Every generated query orders by all
// of its output columns, making the output canonical, so all three
// executions must match bit for bit, row for row.
func TestPlannerDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			off := newPlannerDiffEngine(t, "off", -1)
			on := newPlannerDiffEngine(t, "on", -1)
			onSpill := newPlannerDiffEngine(t, "on", 48)
			engines := []*Engine{off, on, onSpill}

			for _, e := range engines {
				mustExec(t, e, `CREATE TABLE l (k INT, a INT, s STRING)`)
				mustExec(t, e, `CREATE TABLE r (k INT, b INT)`)
				mustExec(t, e, `CREATE TABLE r2 (k INT, c INT)`)
			}
			nl := 20 + rng.Intn(100)
			// r is sometimes much larger than l, exercising the
			// build-side swap inside the differential.
			nr := 10 + rng.Intn(300)
			nr2 := 5 + rng.Intn(40)
			key := func(n int) string {
				if rng.Intn(10) == 0 {
					return "NULL"
				}
				return fmt.Sprintf("%d", rng.Intn(n/4+2))
			}
			loadRows(t, engines, "l", nl, func(i int) string {
				return fmt.Sprintf("(%s, %d, 's%d')", key(nl), rng.Intn(50), rng.Intn(6))
			})
			loadRows(t, engines, "r", nr, func(i int) string {
				return fmt.Sprintf("(%s, %d)", key(nl), rng.Intn(50))
			})
			loadRows(t, engines, "r2", nr2, func(i int) string {
				return fmt.Sprintf("(%s, %d)", key(nl), rng.Intn(50))
			})

			queries := []string{
				`SELECT l.k, a, s, r.b FROM l, r WHERE l.k = r.k ORDER BY l.k, a, s, r.b`,
				fmt.Sprintf(`SELECT l.k, a, r.b FROM l, r WHERE l.k = r.k AND a > %d AND r.b < %d ORDER BY l.k, a, r.b`,
					rng.Intn(30), 20+rng.Intn(30)),
				`SELECT l.k, s, r.b FROM l JOIN r ON l.k = r.k WHERE a % 3 = 0 ORDER BY l.k, s, r.b`,
				fmt.Sprintf(`SELECT l.k, r.b, r2.c FROM l, r, r2 WHERE l.k = r.k AND r.k = r2.k AND r2.c > %d ORDER BY l.k, r.b, r2.c`,
					rng.Intn(25)),
				`SELECT l.k, COUNT(*), SUM(a) FROM l, r WHERE l.k = r.k GROUP BY l.k ORDER BY l.k`,
				fmt.Sprintf(`SELECT l.k, a, r.b FROM l, r WHERE l.k = r.k AND a + r.b %% 7 > %d ORDER BY l.k, a, r.b`,
					rng.Intn(5)),
				`SELECT l.k, r.b FROM l, r WHERE a < r.b ORDER BY l.k, r.b`,
				`SELECT DISTINCT l.k FROM l, r WHERE l.k = r.k ORDER BY l.k`,
				fmt.Sprintf(`SELECT l.k, a FROM l, r WHERE l.k = r.k AND s = 's%d' ORDER BY l.k, a LIMIT %d`,
					rng.Intn(6), 5+rng.Intn(40)),
				// Column pruning: `*` at either level keeps its scope whole,
				// aliases qualify, and a scan may keep nothing at all.
				`SELECT * FROM l, r WHERE l.k = r.k ORDER BY l.k, a, s, b`,
				fmt.Sprintf(`SELECT x.k, x.a, y.b FROM l AS x, r AS y WHERE x.k = y.k AND x.a > %d ORDER BY x.k, x.a, y.b`,
					rng.Intn(30)),
				fmt.Sprintf(`SELECT * FROM (SELECT * FROM l WHERE a > %d) q ORDER BY k, a, s`, rng.Intn(30)),
				`SELECT q.k, r.b FROM (SELECT * FROM l) q, r WHERE q.k = r.k ORDER BY q.k, r.b`,
				`SELECT * FROM (SELECT k, a FROM l) q JOIN r ON q.k = r.k ORDER BY q.k, a, b`,
				`SELECT COUNT(*) FROM l`,
				`SELECT COUNT(*) FROM l, r2`,
			}
			for _, sql := range queries {
				want, stOff := queryWithStats(t, off, sql)
				got, stOn := queryWithStats(t, on, sql)
				requireSameRows(t, "planner-on: "+sql, got, want)
				gotSpill, _ := queryWithStats(t, onSpill, sql)
				requireSameRows(t, "planner-on spilled: "+sql, gotSpill, want)
				// No query here names a hidden column, so the planner
				// always has something to drop and the reference nothing.
				if stOff.ScanCols != stOff.TableCols || stOn.ScanCols >= stOn.TableCols {
					t.Fatalf("%s: scans kept %d/%d columns planner-off, %d/%d planner-on",
						sql, stOff.ScanCols, stOff.TableCols, stOn.ScanCols, stOn.TableCols)
				}
			}
		})
	}
}

func newPlannerDiffEngine(t *testing.T, mode string, budget int) *Engine {
	t.Helper()
	opts := spillOptions(budget, t.TempDir())
	opts.Planner = mode
	return NewWithOptions(storage.NewCatalog(), nil, opts)
}

// TestPruneScanCols pins what scans keep, statement by statement, through
// ExecStats: l has 3 stored + 2 hidden columns, r has 2 + 2.
func TestPruneScanCols(t *testing.T) {
	on, off := plannerEngines(t)
	for _, e := range []*Engine{on, off} {
		mustExec(t, e, `CREATE TABLE l (k INT, a INT, s STRING)`)
		mustExec(t, e, `CREATE TABLE r (k INT, b INT)`)
		mustExec(t, e, `INSERT INTO l VALUES (1, 10, 'x'), (2, 20, 'y'), (2, 21, 'z')`)
		mustExec(t, e, `INSERT INTO r VALUES (2, 200), (3, 300)`)
	}
	for _, tc := range []struct {
		sql         string
		scan, table int
	}{
		{`SELECT a FROM l`, 1, 5},
		{`SELECT * FROM l`, 3, 5},
		{`SELECT COUNT(*) FROM l`, 0, 5},
		{`SELECT l.a FROM l, r WHERE l.k = r.k`, 3, 9}, // k is kept on both sides
		{`SELECT q.k FROM (SELECT * FROM l) q`, 3, 5},
		{`SELECT * FROM (SELECT a FROM l) q, r`, 3, 9}, // outer * covers r, not l
		{`SELECT b FROM l JOIN r ON l.k = r.k ORDER BY s`, 4, 9},
		{`SELECT row_id, sdb_w FROM r`, 2, 4},
	} {
		got, st := queryWithStats(t, on, tc.sql)
		if st.ScanCols != tc.scan || st.TableCols != tc.table {
			t.Errorf("%s: scans keep %d/%d columns, want %d/%d", tc.sql, st.ScanCols, st.TableCols, tc.scan, tc.table)
		}
		want, st := queryWithStats(t, off, tc.sql)
		if st.ScanCols != tc.table || st.TableCols != tc.table {
			t.Errorf("%s: planner off pruned: %d/%d", tc.sql, st.ScanCols, st.TableCols)
		}
		requireSameRows(t, tc.sql, got, want)
	}
	if res := mustExec(t, on, `SELECT COUNT(*) FROM l, r`); res.Rows[0][0].I != 6 {
		t.Errorf("COUNT(*) over zero-column scans = %v, want 6", res.Rows[0][0])
	}
}

// TestPruneErrorsUnchanged: a scan drops a column only when no reference
// in the statement could resolve to it, so ambiguity and absence are
// reported word for word as the full-width schemas report them.
func TestPruneErrorsUnchanged(t *testing.T) {
	off := newPlannerDiffEngine(t, "off", -1)
	on := newPlannerDiffEngine(t, "on", -1)
	onSpill := newPlannerDiffEngine(t, "on", 48)
	for _, e := range []*Engine{off, on, onSpill} {
		mustExec(t, e, `CREATE TABLE l (k INT, a INT, s STRING)`)
		mustExec(t, e, `CREATE TABLE r (k INT, b INT)`)
		mustExec(t, e, `INSERT INTO l VALUES (1, 10, 'x')`)
		mustExec(t, e, `INSERT INTO r VALUES (1, 100)`)
	}
	queryErr := func(e *Engine, sql string) string {
		it, err := e.QuerySQL(context.Background(), sql)
		if err == nil {
			_, err = Drain(it)
		}
		if err == nil {
			t.Fatalf("%s: no error", sql)
		}
		return err.Error()
	}
	for _, sql := range []string{
		`SELECT k FROM l, r`,
		`SELECT l.a FROM l, r WHERE k = 1`,
		`SELECT l.a FROM l JOIN r ON l.k = r.k WHERE k > 0`,
		`SELECT k FROM (SELECT * FROM l) q, r`,
		`SELECT nope FROM l`,
		`SELECT l.a FROM l WHERE r.b = 1`,
		`SELECT q.a FROM (SELECT k FROM l) q`,
		`SELECT a FROM l ORDER BY b`,
		`SELECT a, COUNT(*) FROM l GROUP BY nope`,
		`SELECT * FROM l GROUP BY k`,
	} {
		want := queryErr(off, sql)
		for _, e := range []*Engine{on, onSpill} {
			if got := queryErr(e, sql); got != want {
				t.Errorf("%s: error %q, planner off says %q", sql, got, want)
			}
		}
	}
}
