package server

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/wire"
)

// streamFixture stands up a server with small batches, a connected
// client, and a proxy loaded with enough rows to span several batches.
type streamFixture struct {
	srv    *Server
	client *Client
	p      *proxy.Proxy
}

func newStreamFixture(t *testing.T, rows int) *streamFixture {
	t.Helper()
	secret, err := secure.Setup(256, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	// 2 workers × 8-row chunks: 16-row engine batches.
	srv := NewWithOptions(secret.N(), engine.Options{Parallelism: 2, ChunkSize: 8})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)

	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if client.Protocol() != wire.ProtocolV2 {
		t.Fatalf("protocol %d, want %d", client.Protocol(), wire.ProtocolV2)
	}
	// A frame cap below the engine batch exercises the server-side batch
	// splitting (pending-rows carry-over between frames).
	client.SetBatchRows(7)

	p, err := proxy.NewWithOptions(secret, client, proxy.Options{Parallelism: 2, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(`CREATE TABLE t (id INT, v INT SENSITIVE)`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%7)
	}
	if _, err := p.Exec("INSERT INTO t VALUES " + sb.String()); err != nil {
		t.Fatal(err)
	}
	return &streamFixture{srv: srv, client: client, p: p}
}

// unfused returns a second proxy holding f.p's keys over the same
// connection with QueryDirect hidden, so its one-shot SELECTs take the
// prepare/execute/close sequence.
func (f *streamFixture) unfused(t *testing.T) *proxy.Proxy {
	t.Helper()
	path := filepath.Join(t.TempDir(), "do-state.json")
	if err := f.p.SaveState(path); err != nil {
		t.Fatal(err)
	}
	p, err := proxy.NewFromStateFile(path, struct{ proxy.StreamExecutor }{f.client},
		proxy.Options{Parallelism: 2, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestStreamedQueryOverTCP is the happy path: a multi-batch stream through
// prepare/execute/fetch matches the fused one-shot's drained result, twice
// (statement reuse), and closing the statement frees the session slot.
func TestStreamedQueryOverTCP(t *testing.T) {
	f := newStreamFixture(t, 100)
	const q = `SELECT id, v FROM t WHERE v > 2`

	want, err := f.p.Exec(q)
	if err != nil {
		t.Fatal(err)
	}

	stmt, err := f.p.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if f.srv.OpenStmts() != 1 {
		t.Fatalf("OpenStmts = %d after prepare, want 1", f.srv.OpenStmts())
	}
	for run := 0; run < 2; run++ {
		rows, err := stmt.QueryContext(context.Background())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		var n int
		for {
			row, err := rows.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			if row[1].I != want.Rows[n][1].I || row[0].I != want.Rows[n][0].I {
				t.Fatalf("run %d row %d: %v, want %v", run, n, row, want.Rows[n])
			}
			n++
		}
		rows.Close()
		if n != len(want.Rows) {
			t.Fatalf("run %d: %d rows, want %d", run, n, len(want.Rows))
		}
	}
	stmt.Close()
	waitFor(t, "statement slot freed", func() bool { return f.srv.OpenStmts() == 0 })
}

// TestCtxCancelFreesSessionStmts is the cancellation contract: cancelling
// the query context between batches surfaces the ctx error on the cursor
// and frees the session's prepared statement server-side.
func TestCtxCancelFreesSessionStmts(t *testing.T) {
	f := newStreamFixture(t, 120)
	stmt, err := f.p.Prepare(`SELECT id, v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if f.srv.OpenStmts() != 1 {
		t.Fatalf("OpenStmts = %d, want 1", f.srv.OpenStmts())
	}
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := stmt.QueryContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatalf("first row: %v", err)
	}
	cancel()
	// Drain until the cancellation surfaces (buffered decrypted rows may
	// still be served first).
	var streamErr error
	for {
		_, err := rows.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			streamErr = err
			break
		}
	}
	if streamErr == nil || !strings.Contains(streamErr.Error(), context.Canceled.Error()) {
		t.Fatalf("stream error = %v, want context.Canceled", streamErr)
	}
	rows.Close()
	waitFor(t, "cancelled statement freed", func() bool { return f.srv.OpenStmts() == 0 })
}

// TestSessionStmtLimit bounds concurrent prepared statements per
// connection.
func TestSessionStmtLimit(t *testing.T) {
	secret, _ := secure.Setup(256, 40, 40)
	srv := New(secret.N())
	srv.SetMaxSessionStmts(2)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var stmts []engine.PreparedStmt
	for i := 0; i < 2; i++ {
		st, err := client.PrepareStream("SELECT 1")
		if err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
		stmts = append(stmts, st)
	}
	if _, err := client.PrepareStream("SELECT 1"); err == nil || !strings.Contains(err.Error(), "statement limit") {
		t.Fatalf("third prepare: got %v, want statement-limit error", err)
	}
	// Closing one statement frees a slot.
	if err := stmts[0].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PrepareStream("SELECT 1"); err != nil {
		t.Fatalf("prepare after close: %v", err)
	}
}

// TestDroppedConnMidStream kills the server while a cursor is open: the
// cursor must surface a clean error (not hang, not panic) and the session
// must be torn down.
func TestDroppedConnMidStream(t *testing.T) {
	f := newStreamFixture(t, 150)
	rows, err := f.p.QueryContext(context.Background(), `SELECT id, v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if _, err := rows.Next(); err != nil {
		t.Fatalf("first row: %v", err)
	}
	f.srv.Close()
	var streamErr error
	for {
		_, err := rows.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			streamErr = err
			break
		}
	}
	if streamErr == nil {
		t.Fatal("stream survived a dropped connection")
	}
	waitFor(t, "sessions torn down", func() bool { return f.srv.NumSessions() == 0 })
}

// TestDisconnectFreesSession covers the server side of a vanishing client:
// closing the client connection frees the session and its statements.
func TestDisconnectFreesSession(t *testing.T) {
	f := newStreamFixture(t, 40)
	if _, err := f.p.Prepare(`SELECT id FROM t`); err != nil {
		t.Fatal(err)
	}
	if f.srv.OpenStmts() != 1 || f.srv.NumSessions() != 1 {
		t.Fatalf("before disconnect: stmts=%d sessions=%d", f.srv.OpenStmts(), f.srv.NumSessions())
	}
	f.client.Close()
	waitFor(t, "session freed on disconnect", func() bool {
		return f.srv.NumSessions() == 0 && f.srv.OpenStmts() == 0
	})
}

// TestReexecuteAfterEarlyClose abandons a cursor mid-stream and re-runs
// the same prepared statement: the server-side teardown of the old cursor
// must be sequenced before the new execution (no stale reset/close frames
// killing the fresh cursor).
func TestReexecuteAfterEarlyClose(t *testing.T) {
	f := newStreamFixture(t, 120)
	stmt, err := f.p.Prepare(`SELECT id, v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for i := 0; i < 3; i++ {
		rows, err := stmt.QueryContext(context.Background())
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if _, err := rows.Next(); err != nil {
			t.Fatalf("iteration %d first row: %v", i, err)
		}
		rows.Close() // abandon mid-stream
	}
	rows, err := stmt.QueryContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := rows.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("final drain: %v", err)
		}
		n++
	}
	rows.Close()
	if n != 120 {
		t.Fatalf("final drain saw %d rows, want 120", n)
	}
}

// TestReexecuteClosesPreviousCursor runs a prepared statement again while
// its previous cursor is still open: the new execution must close the old
// cursor (one cursor per statement on the wire), the fresh stream must be
// complete, and the abandoned cursor must not serve stolen batches.
func TestReexecuteClosesPreviousCursor(t *testing.T) {
	f := newStreamFixture(t, 120)
	stmt, err := f.p.Prepare(`SELECT id, v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	rows1, err := stmt.QueryContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows1.Next(); err != nil {
		t.Fatalf("first cursor: %v", err)
	}
	rows2, err := stmt.QueryContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := rows2.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("second cursor: %v", err)
		}
		n++
	}
	rows2.Close()
	if n != 120 {
		t.Fatalf("second cursor saw %d rows, want 120 (batches stolen by the stale cursor?)", n)
	}
	// The abandoned cursor is closed: it may only report EOF or an error,
	// never more rows.
	if row, err := rows1.Next(); err == nil {
		t.Fatalf("stale cursor still serving rows: %v", row)
	}
}
