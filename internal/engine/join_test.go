package engine

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"sdb/internal/storage"
)

// joinEngine builds two tables with overlapping keys, NULL keys and
// duplicate keys so joins exercise every matching shape.
func joinEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewWithOptions(storage.NewCatalog(), nil, Options{Parallelism: 4, ChunkSize: 8})
	mustExec(t, e, `CREATE TABLE l (k INT, lv INT)`)
	mustExec(t, e, `CREATE TABLE r (k INT, rv INT)`)
	mustExec(t, e, `INSERT INTO l VALUES
		(1, 10), (2, 20), (2, 21), (3, 30), (NULL, 40), (7, 70)`)
	mustExec(t, e, `INSERT INTO r VALUES
		(1, 100), (2, 200), (2, 201), (4, 400), (NULL, 500)`)
	return e
}

// runQuery collects a query's rows as printable tuples.
func runQuery(t *testing.T, e *Engine, sql string) []string {
	t.Helper()
	res := mustExec(t, e, sql)
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for c, v := range row {
			parts[c] = v.String()
		}
		out[i] = strings.Join(parts, ",")
	}
	return out
}

// TestHashVsNestedLoopDifferential runs the same join through the hash path
// (equality conjunct) and the nested-loop path — the join on the empty key,
// with the equality rewritten as a <=/>= conjunction the planner cannot
// hash — and requires identical rows in identical order.
func TestHashVsNestedLoopDifferential(t *testing.T) {
	e := joinEngine(t)
	cases := []struct{ hash, nested string }{
		{
			`SELECT l.k, lv, rv FROM l JOIN r ON l.k = r.k`,
			`SELECT l.k, lv, rv FROM l JOIN r ON l.k <= r.k AND l.k >= r.k`,
		},
		{
			// Residual predicate on top of the hash key.
			`SELECT l.k, lv, rv FROM l JOIN r ON l.k = r.k AND lv * 10 < rv`,
			`SELECT l.k, lv, rv FROM l JOIN r ON l.k <= r.k AND l.k >= r.k AND lv * 10 < rv`,
		},
	}
	for _, c := range cases {
		hash := runQuery(t, e, c.hash)
		nested := runQuery(t, e, c.nested)
		if fmt.Sprint(hash) != fmt.Sprint(nested) {
			t.Errorf("hash join %v != nested loop %v\n  hash:   %q\n  nested: %q", c.hash, c.nested, hash, nested)
		}
		if len(hash) == 0 {
			t.Errorf("%s: expected matches", c.hash)
		}
	}
}

// TestJoinNullKeysNeverMatch pins SQL equality semantics in the hash path:
// a NULL join key matches nothing, including another NULL.
func TestJoinNullKeysNeverMatch(t *testing.T) {
	e := joinEngine(t)
	rows := runQuery(t, e, `SELECT lv, rv FROM l JOIN r ON l.k = r.k WHERE lv = 40 OR rv = 500`)
	if len(rows) != 0 {
		t.Errorf("NULL keys joined: %q", rows)
	}
	// Every survivor must come from a non-NULL key pair.
	all := runQuery(t, e, `SELECT l.k, lv, rv FROM l JOIN r ON l.k = r.k`)
	want := []string{"1,10,100", "2,20,200", "2,20,201", "2,21,200", "2,21,201"}
	if fmt.Sprint(all) != fmt.Sprint(want) {
		t.Errorf("join rows: %q, want %q", all, want)
	}
}

// TestJoinEmptyBuildSide joins against an empty table (the build side) and
// expects a clean empty result from both join strategies.
func TestJoinEmptyBuildSide(t *testing.T) {
	e := joinEngine(t)
	mustExec(t, e, `CREATE TABLE empty (k INT, ev INT)`)
	for _, sql := range []string{
		`SELECT lv, ev FROM l JOIN empty ON l.k = empty.k`,
		`SELECT lv, ev FROM l JOIN empty ON l.k < empty.k`,
	} {
		if rows := runQuery(t, e, sql); len(rows) != 0 {
			t.Errorf("%s: got %q", sql, rows)
		}
	}
}

// TestJoinResidualPredicate checks that non-equality ON conjuncts filter
// hash-join matches.
func TestJoinResidualPredicate(t *testing.T) {
	e := joinEngine(t)
	rows := runQuery(t, e, `SELECT lv, rv FROM l JOIN r ON l.k = r.k AND rv = 201`)
	want := []string{"20,201", "21,201"}
	if fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Errorf("residual join rows: %q, want %q", rows, want)
	}
}

// TestJoinCancelMidProbe cancels the query context after the first streamed
// batch of a join; the next pull must surface the cancellation instead of
// probing on.
func TestJoinCancelMidProbe(t *testing.T) {
	e := NewWithOptions(storage.NewCatalog(), nil, Options{Parallelism: 2, ChunkSize: 4})
	mustExec(t, e, `CREATE TABLE big (k INT, v INT)`)
	mustExec(t, e, `CREATE TABLE dim (k INT, d INT)`)
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i%10, i)
	}
	mustExec(t, e, "INSERT INTO big VALUES "+sb.String())
	mustExec(t, e, `INSERT INTO dim VALUES (0,0), (1,1), (2,2), (3,3), (4,4)`)

	ctx, cancel := context.WithCancel(context.Background())
	it, err := e.QuerySQL(ctx, `SELECT v, d FROM big JOIN dim ON big.k = dim.k`)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if _, err := it.NextBatch(); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	cancel()
	sawErr := false
	for i := 0; i < 1_000; i++ {
		_, err := it.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("cancelled join stream ran to completion")
	}
}

// TestJoinStreamPeakBounded pins the memory claim for joins: streaming a
// probe-heavy join retains the build side plus O(batch), never the full
// join output.
func TestJoinStreamPeakBounded(t *testing.T) {
	e := NewWithOptions(storage.NewCatalog(), nil, Options{Parallelism: 2, ChunkSize: 16})
	mustExec(t, e, `CREATE TABLE fact (k INT, v INT)`)
	mustExec(t, e, `CREATE TABLE dim (k INT, d INT)`)
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i%5, i)
	}
	mustExec(t, e, "INSERT INTO fact VALUES "+sb.String())
	mustExec(t, e, `INSERT INTO dim VALUES (0,0), (1,1), (2,2), (3,3), (4,4)`)

	it, err := e.QuerySQL(context.Background(), `SELECT v, d FROM fact JOIN dim ON fact.k = dim.k`)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	total := 0
	for {
		batch, err := it.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += len(batch)
	}
	if total != 2000 {
		t.Fatalf("joined %d rows, want 2000", total)
	}
	stats := it.(interface{ Stats() ExecStats }).Stats()
	const buildSide = 5
	bound := buildSide + 4*e.batchRows()
	if stats.PeakResidentRows > bound {
		t.Fatalf("peak resident rows %d exceeds build+O(batch) bound %d", stats.PeakResidentRows, bound)
	}
	if stats.PeakResidentRows >= total {
		t.Fatalf("peak resident rows %d not bounded below result size %d", stats.PeakResidentRows, total)
	}
}

// TestJoinAggStreamPeakBounded extends the claim to a join feeding GROUP
// BY without a budget: peak resident rows stay within the build side plus
// the aggregation state — workers × groups, since every pool worker
// accumulates its own partial table until the merge — plus O(batch) per
// pipeline stage, never the joined intermediate, and nothing spills.
func TestJoinAggStreamPeakBounded(t *testing.T) {
	const fact, dim, workers, chunk = 6000, 300, 4, 16
	e := NewWithOptions(storage.NewCatalog(), nil,
		Options{Parallelism: workers, ChunkSize: chunk, MemBudgetRows: -1})
	mustExec(t, e, `CREATE TABLE fact (f_key INT, f_val INT)`)
	mustExec(t, e, `CREATE TABLE dim (d_key INT, d_val INT)`)
	vals := make([]string, fact)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, %d)", i%dim, i%97)
	}
	mustExec(t, e, "INSERT INTO fact VALUES "+strings.Join(vals, ", "))
	vals = vals[:dim]
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, %d)", i, i*3)
	}
	mustExec(t, e, "INSERT INTO dim VALUES "+strings.Join(vals, ", "))

	it, err := e.QuerySQL(context.Background(),
		`SELECT d_key, COUNT(*), SUM(f_val) FROM fact JOIN dim ON f_key = d_key GROUP BY d_key`)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	groups := 0
	for {
		batch, err := it.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		groups += len(batch)
	}
	if groups != dim {
		t.Fatalf("aggregated %d groups, want %d", groups, dim)
	}
	stats := it.(interface{ Stats() ExecStats }).Stats()
	if stats.Spills != 0 {
		t.Fatalf("unbudgeted join + GROUP BY spilled: %+v", stats)
	}
	const bound = dim + workers*dim + 6*workers*chunk
	if stats.PeakResidentRows > bound {
		t.Fatalf("peak resident rows %d exceeds build + workers×groups + O(batch) bound %d", stats.PeakResidentRows, bound)
	}
	if stats.PeakResidentRows >= fact {
		t.Fatalf("peak resident rows %d not bounded below the %d-row joined intermediate", stats.PeakResidentRows, fact)
	}
}
