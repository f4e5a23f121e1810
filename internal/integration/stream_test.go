package integration

import (
	"context"
	"io"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/tpch"
)

// drainCursor consumes a decrypting cursor into a materialized result.
func drainCursor(t *testing.T, rows *proxy.Rows) *proxy.Result {
	t.Helper()
	defer rows.Close()
	res := &proxy.Result{Columns: rows.Columns()}
	for {
		row, err := rows.Next()
		if err == io.EOF {
			return res
		}
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		res.Rows = append(res.Rows, row)
	}
}

// TestTPCHCursorMatchesDrain runs every runnable TPC-H query through both
// ways an application reads a secure result — a prepared statement's
// decrypting cursor pulled row by row, and the one-shot Exec that drains
// its cursor into a materialized result — and against the plaintext
// deployment. All three must agree cell by cell.
func TestTPCHCursorMatchesDrain(t *testing.T) {
	f := setup(t)
	ctx := context.Background()
	for _, q := range tpch.RunnableQueries() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			want, err := f.plain.Exec(q.SQL)
			if err != nil {
				t.Fatalf("plaintext Q%d: %v", q.Num, err)
			}
			drained, err := f.sdb.Exec(q.SQL)
			if err != nil {
				t.Fatalf("drain Q%d: %v", q.Num, err)
			}

			// Prepared statement + decrypting cursor, executed twice to
			// cover statement reuse.
			stmt, err := f.sdb.PrepareContext(ctx, q.SQL)
			if err != nil {
				t.Fatalf("prepare Q%d: %v", q.Num, err)
			}
			defer stmt.Close()
			for run := 0; run < 2; run++ {
				rows, err := stmt.QueryContext(ctx)
				if err != nil {
					t.Fatalf("cursor Q%d run %d: %v", q.Num, run, err)
				}
				cursor := drainCursor(t, rows)
				requireEqualResults(t, "cursor vs plaintext", q.SQL, cursor, want)
				requireEqualResults(t, "cursor vs drain", q.SQL, cursor, drained)
			}
			requireEqualResults(t, "drain vs plaintext", q.SQL, drained, want)
		})
	}
}

// TestStreamCancelMidTPCH cancels a streamed TPC-H scan after the first
// row; the cursor must surface the cancellation instead of completing.
// Tiny chunks force a many-batch stream so the cancellation point lands
// well before EOS.
func TestStreamCancelMidTPCH(t *testing.T) {
	f := setup(t)
	f.sdbEng.SetOptions(engine.Options{Parallelism: 2, ChunkSize: 8})
	defer f.sdbEng.SetOptions(engine.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := f.sdb.QueryContext(ctx, `SELECT l_orderkey, l_quantity FROM lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if _, err := rows.Next(); err != nil {
		t.Fatalf("first row: %v", err)
	}
	cancel()
	sawErr := false
	for i := 0; i < 1_000_000; i++ {
		_, err := rows.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("cancelled stream ran to completion without surfacing ctx error")
	}
}

// TestCursorPinnedAcrossRotation is the decrypted end-to-end torn-read
// detector: a cursor opened before a key rotation pins the pre-rotation
// table version, and its captured decryption keys match those shares — so
// every row it serves, including those drained after the rotation
// publishes, must decrypt to the correct plaintext. Before MVCC the
// rotation rewrote the shares under the open cursor and the stale keys
// decrypted garbage.
func TestCursorPinnedAcrossRotation(t *testing.T) {
	f := setup(t)
	f.sdbEng.SetOptions(engine.Options{Parallelism: 2, ChunkSize: 8})
	defer f.sdbEng.SetOptions(engine.Options{})
	ctx := context.Background()
	const sql = `SELECT l_orderkey, l_discount FROM lineitem`
	want, err := f.plain.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}

	rows, err := f.sdb.QueryContext(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	// Pull one row so the cursor is live mid-stream, then rotate the very
	// column it is decrypting.
	first, err := rows.Next()
	if err != nil {
		t.Fatalf("first row: %v", err)
	}
	if _, err := f.sdb.RotateColumn("lineitem", "l_discount"); err != nil {
		t.Fatal(err)
	}
	rest := drainCursor(t, rows)
	got := &proxy.Result{Columns: rest.Columns}
	got.Rows = append(got.Rows, first)
	got.Rows = append(got.Rows, rest.Rows...)
	requireEqualResults(t, "cursor pinned across rotation", sql, got, want)

	// A statement prepared after the rotation decrypts the re-keyed
	// shares with the new keys just as correctly.
	after, err := f.sdb.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "fresh statement post-rotation", sql, after, want)
}

// TestPreparedStmtSurvivesRotation pins the rotation/prepared-statement
// contract: a SELECT prepared before a key rotation must re-derive its
// tokens and decryption keys on the next execution, not decrypt re-keyed
// shares with stale keys.
func TestPreparedStmtSurvivesRotation(t *testing.T) {
	f := setup(t)
	ctx := context.Background()
	const sql = `SELECT l_returnflag, SUM(l_discount), COUNT(*) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`
	want, err := f.plain.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := f.sdb.PrepareContext(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	before, err := stmt.ExecContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "prepared pre-rotation", sql, before, want)
	if _, err := f.sdb.RotateColumn("lineitem", "l_discount"); err != nil {
		t.Fatal(err)
	}
	after, err := stmt.ExecContext(ctx)
	if err != nil {
		t.Fatalf("prepared statement after rotation: %v", err)
	}
	requireEqualResults(t, "prepared post-rotation", sql, after, want)
}
