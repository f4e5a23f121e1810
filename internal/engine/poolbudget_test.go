package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sdb/internal/spill"
	"sdb/internal/storage"
)

// TestStmtCloseRefusesQuery is the regression for Stmt.Close being a
// no-op: a closed statement must refuse new cursors with ErrStmtClosed
// (so remote sessions can rely on close being terminal), while cursors
// already returned keep streaming, and Close stays idempotent.
func TestStmtCloseRefusesQuery(t *testing.T) {
	e := bigEngine(t, 64)
	stmt, err := e.Prepare(`SELECT id, v FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	it, err := stmt.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := stmt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := stmt.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := stmt.Query(context.Background()); !errors.Is(err, ErrStmtClosed) {
		t.Fatalf("Query after Close: %v, want ErrStmtClosed", err)
	}
	// The cursor handed out before Close still drains in full.
	if got := drainStream(t, it, e.batchRows()); len(got) != 64 {
		t.Fatalf("pre-Close cursor drained %d rows, want 64", len(got))
	}
	it.Close()
}

// TestBudgetPoolExhaustionSpills wires a deployment-wide resident-row
// pool smaller than one sort's input: reservations get refused, the sort
// spills instead of erroring, results stay correct, and the pool drains
// back to zero when the query finishes. A LIMIT larger than the pool
// sorts through the same spilling sink.
func TestBudgetPoolExhaustionSpills(t *testing.T) {
	pool := spill.NewPool(48)
	e := NewWithOptions(storage.NewCatalog(), nil, Options{
		Parallelism: 2, ChunkSize: 16,
		MemBudgetRows: -1, // per-query budget off: only the pool bounds residency
		BudgetPool:    pool,
		SpillDir:      t.TempDir(),
	})
	mustExec(t, e, `CREATE TABLE big (id INT, v INT)`)
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i*3)
	}
	mustExec(t, e, "INSERT INTO big VALUES "+sb.String())

	res := mustExec(t, e, `SELECT id, v FROM big ORDER BY id DESC`)
	if len(res.Rows) != 200 {
		t.Fatalf("pooled sort returned %d rows, want 200", len(res.Rows))
	}
	for i, row := range res.Rows {
		if int(row[0].I) != 199-i {
			t.Fatalf("row %d: id %d, want %d (spilled merge broke ordering)", i, row[0].I, 199-i)
		}
	}
	if pool.Refused() == 0 {
		t.Fatal("200-row sort over a 48-row pool never refused a reservation")
	}
	if pool.Used() != 0 {
		t.Fatalf("pool has %d rows still reserved after the query finished", pool.Used())
	}
	if hi, limit := pool.MaxUsed(), pool.Limit(); hi > limit {
		t.Fatalf("pool high-water %d exceeded limit %d", hi, limit)
	}

	// A LIMIT beyond the pool: the sort reserves the rows it keeps, the
	// query's own limit is unset, so the pool's is the bound, and the sort
	// spills.
	sql := `SELECT id, v FROM big ORDER BY id DESC LIMIT 150`
	got, st := queryWithStats(t, e, sql)
	if len(got.Rows) != 150 {
		t.Fatalf("%s: %d rows, want 150", sql, len(got.Rows))
	}
	for i, row := range got.Rows {
		if int(row[0].I) != 199-i || int(row[1].I) != 3*(199-i) {
			t.Fatalf("%s: row %d is %v, want (%d, %d)", sql, i, row, 199-i, 3*(199-i))
		}
	}
	if st.Spills == 0 || st.PeakResidentRows > pool.Limit() {
		t.Fatalf("%s: want spilling within the %d-row pool, got stats %+v", sql, pool.Limit(), st)
	}
}

// TestBudgetPoolHoldsSortedLimitRows: the rows an ORDER BY … LIMIT keeps
// are reserved from the pool for as long as the cursor holds them. Cursor A
// keeps its 40 rows charged to the 48-row pool while it streams, so cursor
// B, the same query run beside it, finds the pool nearly spent and spills
// instead of growing past it — and still answers row for row.
func TestBudgetPoolHoldsSortedLimitRows(t *testing.T) {
	pool := spill.NewPool(48)
	e := NewWithOptions(storage.NewCatalog(), nil, Options{
		Parallelism: 2, ChunkSize: 16,
		MemBudgetRows: -1, // per-query budget off: only the pool bounds residency
		BudgetPool:    pool,
		SpillDir:      t.TempDir(),
	})
	mustExec(t, e, `CREATE TABLE big (id INT, v INT)`)
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, (i*37)%23)
	}
	mustExec(t, e, "INSERT INTO big VALUES "+sb.String())
	const sql = `SELECT id, v FROM big ORDER BY v, id LIMIT 40`
	want := mustExec(t, e, sql)
	if len(want.Rows) != 40 || pool.Used() != 0 {
		t.Fatalf("reference run: %d rows, pool left at %d", len(want.Rows), pool.Used())
	}

	a, err := e.QuerySQL(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.NextBatch(); err != nil {
		t.Fatal(err)
	}
	if used := pool.Used(); used < 40 {
		t.Errorf("open cursor keeps 40 sorted rows but the pool holds %d", used)
	}

	got, st := queryWithStats(t, e, sql)
	requireSameRows(t, sql, got, want)
	if st.Spills == 0 {
		t.Errorf("%s beside an open cursor: want spilling, got stats %+v", sql, st)
	}
	if hi, limit := pool.MaxUsed(), pool.Limit(); hi > limit {
		t.Fatalf("pool high-water %d exceeded limit %d", hi, limit)
	}
	a.Close()
	if used := pool.Used(); used != 0 {
		t.Fatalf("pool has %d rows still reserved after both cursors closed", used)
	}
}
