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
	"os"
	"strings"
	"testing"

	"sdb/internal/parallel"
	"sdb/internal/spill"
	"sdb/internal/sqlparser"
	"sdb/internal/storage"
)

// planSQL compiles one SELECT without executing it.
func planSQL(e *Engine, sql string) (*queryPlan, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %s", sql)
	}
	qs := e.newQuerySpill()
	defer qs.close()
	return e.planQuery(sel, e.PinSnapshot(), qs)
}

func planFor(t *testing.T, e *Engine, sql string) *queryPlan {
	t.Helper()
	pl, err := planSQL(e, sql)
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

// treeSig renders an operator tree as one string — the plan-shape
// signature. Leaves print their alias (a zero-column scan prints "scan"),
// a derived table is bracketed around its own plan, σ is a filter and π the
// projection; a join prints its children in declared order, with the number
// of hash keys, "~" when the build side is swapped and "+" when it carries a
// residual condition: `π(hash1(σ(a), σ(b)))`. "‖" marks a filter,
// projection, aggregation or join given the worker pool because it does
// secure arithmetic per row: `π‖(agg‖(σ(lineitem)))`.
func treeSig(op operator) string {
	unary := func(name string, child operator) string { return name + "(" + treeSig(child) + ")" }
	mark := func(on bool, m string) string {
		if on {
			return m
		}
		return ""
	}
	// ‖ marks an operator given the worker pool (rowPool).
	par := func(p *parallel.Pool) string { return mark(p != serialPool, "‖") }
	switch o := op.(type) {
	case *scanOp:
		if len(o.schema) == 0 {
			return "scan"
		}
		return o.schema[0].qual
	case *valuesOp:
		return "values"
	case *renameOp:
		return "[" + treeSig(o.child) + "]"
	case *filterOp:
		return unary("σ"+par(o.pool), o.child)
	case *projectOp:
		return unary("π"+par(o.pool), o.child)
	case *limitOp:
		return unary("limit", o.child)
	case *distinctOp:
		return unary("distinct", o.child)
	case *sortOp:
		return unary("sort", o.child)
	case *topKOp:
		return unary("topK", o.child)
	case *hashAggOp:
		return unary("agg"+par(o.pool), o.child)
	case *hashJoinOp:
		l, r := o.left, o.right
		if o.flip {
			l, r = r, l
		}
		return fmt.Sprintf("hash%d%s%s%s(%s, %s)", len(o.leftKeys), mark(o.flip, "~"), mark(o.residual != nil, "+"),
			par(o.pool), treeSig(l), treeSig(r))
	case *nestedLoopJoinOp:
		return fmt.Sprintf("loop%s%s(%s, %s)", mark(o.cond != nil, "+"), par(o.pool), treeSig(o.left), treeSig(o.right))
	}
	return fmt.Sprintf("%T", op)
}

// filterOnJoin reports whether a plan signature holds a filter sitting
// directly on a join — where the naive plan evaluates WHERE, and where the
// planner leaves only conjuncts it cannot place (constants, unresolvable
// names).
func filterOnJoin(sig string) bool {
	sig = strings.ReplaceAll(sig, "‖", "")
	return strings.Contains(sig, "σ(hash") || strings.Contains(sig, "σ(loop")
}

// planSig plans one SELECT and returns its signature.
func planSig(e *Engine, sql string) (string, error) {
	pl, err := planSQL(e, sql)
	if err != nil {
		return "", err
	}
	return treeSig(pl.root), nil
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

// TestPushdownBelowJoin pins where conjuncts land, in every FROM syntax:
// each conjunct naming one leaf of the join tree — WHERE or ON, table or
// derived table — sits in a filter directly above that leaf, bridging
// equalities are hash keys at the step that first covers them, and no
// filter remains above the joins. The answers must equal the planner-off
// engine's, whose tree for the same statement is the AST-shaped one.
func TestPushdownBelowJoin(t *testing.T) {
	on, off := plannerEngines(t)
	for _, e := range []*Engine{on, off} {
		mustExec(t, e, `CREATE TABLE a (k INT, x INT)`)
		mustExec(t, e, `CREATE TABLE b (k INT, y INT)`)
		mustExec(t, e, `CREATE TABLE c (k INT, z INT)`)
		mustExec(t, e, `INSERT INTO a VALUES (1, 10), (2, 20), (3, 30), (3, 4)`)
		mustExec(t, e, `INSERT INTO b VALUES (2, 200), (3, 300), (3, 100)`)
		mustExec(t, e, `INSERT INTO c VALUES (3, 1), (2, 2), (3, 3)`)
	}
	for _, tc := range []struct{ name, sql, on, off string }{
		{"comma",
			`SELECT a.x, b.y FROM a, b WHERE a.k = b.k AND a.x > 5 AND b.y < 250`,
			`π(hash1(σ(a), σ(b)))`, `π(σ(loop(a, b)))`},
		{"join-on",
			`SELECT a.x, b.y FROM a JOIN b ON a.k = b.k WHERE a.x > 5 AND b.y < 250`,
			`π(hash1(σ(a), σ(b)))`, `π(σ(hash1(a, b)))`},
		{"three-table chain",
			`SELECT a.x, b.y, c.z FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k WHERE a.x > 5 AND c.z < 3`,
			`π(hash1(hash1(σ(a), b), σ(c)))`, `π(σ(hash1(hash1(a, b), c)))`},
		{"single-side ON conjunct, no WHERE",
			`SELECT a.x, b.y FROM a JOIN b ON a.k = b.k AND b.y < 250`,
			`π(hash1(a, σ(b)))`, `π(hash1+(a, b))`},
		{"derived-table leaf",
			`SELECT q.x, b.y FROM (SELECT k, x FROM a) q JOIN b ON q.k = b.k WHERE q.x > 5 AND b.y < 250`,
			`π(hash1(σ([π(a)]), σ(b)))`, `π(σ(hash1([π(a)], b)))`},
		{"mixed JOIN and comma",
			`SELECT a.x, b.y, c.z FROM a JOIN b ON a.k = b.k, c WHERE c.k = a.k AND c.z > 1 AND b.y < 250`,
			`π(hash1(hash1(a, σ(b)), σ(c)))`, `π(σ(loop(hash1(a, b), c)))`},
		{"key declared a step late, ON scoped to a later comma ref",
			`SELECT a.x, b.y, c.z FROM c, a JOIN b ON a.x < b.y AND a.k = b.k WHERE c.k = a.k AND b.k = a.k`,
			// Planner off is left-deep too: c × a first, then a's own JOIN —
			// the rows and their order are those of c × (a ⋈ b).
			`π(hash2+(hash1(c, a), b))`, `π(σ(hash1+(loop(c, a), b)))`},
	} {
		for _, m := range []struct {
			e    *Engine
			want string
		}{{on, tc.on}, {off, tc.off}} {
			got, err := planSig(m.e, tc.sql)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if got != m.want {
				t.Errorf("%s: plan %s, want %s", tc.name, got, m.want)
			}
		}
		got, _ := queryWithStats(t, on, tc.sql)
		want, _ := queryWithStats(t, off, tc.sql)
		if len(want.Rows) == 0 {
			t.Fatalf("%s: degenerate fixture, no rows", tc.name)
		}
		// No ORDER BY: pushdown and key conversion are exactly
		// order-preserving, and nothing here is big enough to swap.
		requireSameRows(t, tc.name, got, want)
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
			// One planner for both FROM syntaxes: JOIN … ON, comma and
			// mixtures, with predicates written in either clause.
			x, y, z := rng.Intn(30), 20+rng.Intn(30), rng.Intn(25)
			queries = append(queries,
				// WHERE filters on each side of an explicit join.
				fmt.Sprintf(`SELECT l.k, a, r.b FROM l JOIN r ON l.k = r.k WHERE a > %d AND r.b < %d ORDER BY l.k, a, r.b`, x, y),
				// A single-side ON conjunct and no WHERE at all.
				fmt.Sprintf(`SELECT l.k, a, r.b FROM l JOIN r ON l.k = r.k AND r.b < %d ORDER BY l.k, a, r.b`, y),
				// A crossing non-equi ON conjunct, with and without a key.
				`SELECT l.k, a, r.b FROM l JOIN r ON l.k = r.k AND a < r.b ORDER BY l.k, a, r.b`,
				fmt.Sprintf(`SELECT l.k, a, r.b FROM l JOIN r ON a + %d < r.b WHERE s = 's1' ORDER BY l.k, a, r.b`, x),
				// A chain with a filter on every leaf.
				fmt.Sprintf(`SELECT l.k, a, r.b, r2.c FROM l JOIN r ON l.k = r.k JOIN r2 ON r.k = r2.k
					WHERE a > %d AND r.b < %d AND r2.c > %d ORDER BY l.k, a, r.b, r2.c`, x, y, z),
				// Keys used at another step than the clause that declares
				// them: an ON equality of the second join keys the first,
				// and a WHERE equality keys the comma step.
				`SELECT l.k, a, r.b, r2.c FROM l JOIN r ON a < r.b JOIN r2 ON r.k = r2.k AND l.k = r.k ORDER BY l.k, a, r.b, r2.c`,
				fmt.Sprintf(`SELECT l.k, r.b, r2.c FROM l JOIN r ON l.k = r.k, r2 WHERE r2.k = l.k AND r2.c > %d ORDER BY l.k, r.b, r2.c`, z),
				// An ON clause in a later comma ref sees its own join only.
				fmt.Sprintf(`SELECT l.k, a, r.b, r2.c FROM r2, l JOIN r ON l.k = r.k AND a > %d WHERE r2.k = l.k ORDER BY l.k, a, r.b, r2.c`, x),
				// A join over a filtered derived table.
				fmt.Sprintf(`SELECT q.k, q.a, r.b FROM (SELECT k, a FROM l WHERE a > %d) q JOIN r ON q.k = r.k
					WHERE r.b < %d AND q.a < 45 ORDER BY q.k, q.a, r.b`, x, y),
				// A pushed filter that empties the build side.
				`SELECT l.k, a, r.b FROM l JOIN r ON l.k = r.k WHERE r.b > 1000 ORDER BY l.k, a, r.b`,
				`SELECT l.k, r.b, r2.c FROM l JOIN r ON l.k = r.k JOIN r2 ON r.k = r2.k AND r2.c < 0 ORDER BY l.k, r.b, r2.c`,
			)
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
	if got, want := queryErr(on, `SELECT l.a FROM l JOIN r ON l.k = q.k JOIN (SELECT k FROM l) q ON q.k = r.k`),
		"engine: no column q.k"; got != want {
		t.Errorf("ON naming a later table: error %q, want %q", got, want)
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
		// ON resolves against its own join's inputs only: not a table
		// joined later, not an earlier comma-separated ref; a bare name two
		// of its inputs share is ambiguous, as in WHERE.
		`SELECT l.a FROM l JOIN r ON l.k = q.k JOIN (SELECT k FROM l) q ON q.k = r.k`,
		`SELECT r.b FROM l, l AS l2 JOIN r ON l.k = r.k`,
		`SELECT l.a FROM l JOIN r ON k = 1`,
		`SELECT l.a FROM l JOIN r ON k = r.k`,
		`SELECT l.a FROM l JOIN r ON l.k = r.k AND nope = 1 WHERE r.b > 0`,
		`SELECT l.a FROM l JOIN r ON l.k = r.k WHERE nope > 1 AND l.a > 0`,
		`SELECT COUNT() FROM l GROUP BY k`,
		`SELECT SUM() FROM l JOIN r ON l.k = r.k`,
	} {
		want := queryErr(off, sql)
		for _, e := range []*Engine{on, onSpill} {
			if got := queryErr(e, sql); got != want {
				t.Errorf("%s: error %q, planner off says %q", sql, got, want)
			}
		}
	}
}

// TestManyLeafFrom: the classifier keeps a conjunct's lowest and highest
// leaf, not a bitmask, so a FROM with more leaves than a machine word has
// bits plans like any other — filters on leaf 3 and on leaf 69, a WHERE
// equality keyed at step 68 — and answers as the planner-off tree does.
func TestManyLeafFrom(t *testing.T) {
	const leaves = 70
	on, off := plannerEngines(t)
	for _, e := range []*Engine{on, off} {
		mustExec(t, e, `CREATE TABLE t (k INT, v INT)`)
		mustExec(t, e, `INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)`)
	}
	var from strings.Builder
	from.WriteString("t AS t0")
	for i := 1; i < leaves; i++ {
		fmt.Fprintf(&from, " JOIN t AS t%d ON t%d.k = t%d.k", i, i-1, i)
	}
	sql := fmt.Sprintf(`SELECT t0.v, t%d.v FROM %s WHERE t3.v < 25 AND t%d.v > 10 AND t%d.k = t0.k`,
		leaves-1, from.String(), leaves-1, leaves-2)
	sig, err := planSig(on, sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"σ(t3)", fmt.Sprintf("σ(t%d)", leaves-1), "hash2("} {
		if !strings.Contains(sig, want) {
			t.Errorf("plan lacks %s: %s", want, sig)
		}
	}
	if n := strings.Count(sig, "σ("); n != 2 || filterOnJoin(sig) {
		t.Errorf("%d filters, want the two pushed ones and none on a join: %s", n, sig)
	}
	got, _ := queryWithStats(t, on, sql)
	want, _ := queryWithStats(t, off, sql)
	if len(want.Rows) != 1 || want.Rows[0][0].I != 20 {
		t.Fatalf("planner off answers %v, want the one row of k = 2", want.Rows)
	}
	requireSameRows(t, "70-leaf FROM on-vs-off", got, want)
}

// TestEmptyBuildClosesChildren: a pushed filter can empty a join's build
// side, and the join then answers EOF without ever pulling its probe side —
// which, one join down the chain, has already opened, built and (under the
// small budget) spilled. Closing the query must still close both children:
// no reservation, no run file and no descriptor may outlive it.
func TestEmptyBuildClosesChildren(t *testing.T) {
	openFDs := func() int {
		entries, _ := os.ReadDir("/proc/self/fd")
		return len(entries)
	}
	for _, tc := range []struct {
		name   string
		budget int
		spills bool
	}{
		{"lower join resident", 1000, false}, // holds a reservation at close
		{"lower join spilled", 24, true},     // holds run files at close
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := spill.NewPool(4000)
			dir := t.TempDir()
			e := NewWithOptions(storage.NewCatalog(), nil, Options{
				Parallelism: 2, ChunkSize: 4, MemBudgetRows: tc.budget,
				BudgetPool: pool, SpillDir: dir, Planner: "on"})
			mustExec(t, e, `CREATE TABLE l (k INT, a INT)`)
			mustExec(t, e, `CREATE TABLE r (k INT, b INT)`)
			mustExec(t, e, `CREATE TABLE r2 (k INT, c INT)`)
			for _, tbl := range []string{"l", "r", "r2"} {
				loadRows(t, []*Engine{e}, tbl, 200, func(i int) string { return fmt.Sprintf("(%d, %d)", i%50, i) })
			}
			sql := `SELECT l.k, a, b, c FROM l JOIN r ON l.k = r.k JOIN r2 ON r.k = r2.k WHERE r2.c < 0`
			if sig, _ := planSig(e, sql); sig != `π(hash1(hash1(l, r), σ(r2)))` {
				t.Fatalf("plan %s: the empty side must be the top join's build side", sig)
			}
			fds := openFDs()
			res, st, maxUsed := queryBudgetMax(t, e, sql)
			if len(res.Rows) != 0 {
				t.Fatalf("%d rows from a join with an empty side", len(res.Rows))
			}
			if (st.Spills > 0) != tc.spills || maxUsed == 0 {
				t.Fatalf("lower join: spills %d (want spilling: %v), %d rows reserved at most — the test is vacuous",
					st.Spills, tc.spills, maxUsed)
			}
			if pool.Used() != 0 {
				t.Errorf("%d rows still reserved after the query closed", pool.Used())
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Errorf("%d spill entries outlive the query", len(entries))
			}
			if now := openFDs(); now != fds {
				t.Errorf("%d descriptors open after the query, %d before", now, fds)
			}
		})
	}
}
