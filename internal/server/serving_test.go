package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/spill"
	"sdb/internal/wire"
)

// plainServer stands up a server with a small plaintext table (no
// SENSITIVE columns, so no proxy needed) for tests that drive the wire
// protocol directly.
func plainServer(t *testing.T, rows int) (*Server, net.Addr) {
	t.Helper()
	secret, err := secure.Setup(256, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(secret.N(), engine.Options{Parallelism: 2, ChunkSize: 8})
	seedPlainTable(t, srv, rows)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, addr
}

func seedPlainTable(t *testing.T, srv *Server, rows int) {
	t.Helper()
	if _, err := srv.eng.ExecuteSQL(`CREATE TABLE c (a INT, b INT)`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO c VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%13)
	}
	if _, err := srv.eng.ExecuteSQL(sb.String()); err != nil {
		t.Fatal(err)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestExecRunsUnderSessionContext: OpExecuteDirect — the path of every
// statement, writes included — runs under the session context,
// so dropping the connection or Server.Close cancels it. A cancelled
// session refuses a query and a write outright, holds no cursor for them,
// and leaves the table as it was; a live one serves both.
func TestExecRunsUnderSessionContext(t *testing.T) {
	srv, _ := plainServer(t, 8)
	direct := func(sess *session, sql string) *wire.Response {
		return srv.executeDirect(sess, &wire.Request{Op: wire.OpExecuteDirect, SQL: sql})
	}

	live := srv.newSession()
	defer live.shutdown()
	for _, sql := range []string{`SELECT a FROM c`, `INSERT INTO c VALUES (8, 8)`} {
		if resp := direct(live, sql); resp.Err != "" || !resp.EOS {
			t.Fatalf("live session %q: %+v", sql, resp)
		}
	}

	dead := srv.newSession()
	dead.cancel()
	for _, sql := range []string{`SELECT a FROM c`, `INSERT INTO c VALUES (9, 9)`} {
		resp := direct(dead, sql)
		if resp.Err == "" {
			t.Fatalf("%q on a cancelled session succeeded; the session context is not threaded through", sql)
		}
		if !strings.Contains(resp.Err, "canceled") {
			t.Fatalf("%q on a cancelled session failed with %q, want a context cancellation", sql, resp.Err)
		}
	}
	if len(dead.cursors) != 0 {
		t.Fatalf("refused statements left %d open cursors", len(dead.cursors))
	}
	if resp := direct(live, `SELECT COUNT(*) FROM c`); resp.Err != "" || len(resp.Rows) != 1 || resp.Rows[0][0].I != 9 {
		t.Fatalf("table after one live and one refused insert: %+v, want 9 rows", resp)
	}
}

// TestPrepareLifecycleSymmetry pins the cursor lifecycle invariant behind
// the slot-leak and shutdown-leak bugfixes: every cursor the server opens
// is freed exactly once, whether by OpClose, at the end of its stream or
// by session teardown, and a statement that fails to start claims no slot.
func TestPrepareLifecycleSymmetry(t *testing.T) {
	// 40 rows in 16-row engine batches: every full-table SELECT leaves
	// its cursor open.
	srv, addr := plainServer(t, 40)
	srv.SetMaxSessionStmts(3)

	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	base := srv.MetricsSnapshot()
	var open []engine.RowIterator
	for i := 0; i < 3; i++ {
		it, err := client.QueryDirect(ctx, `SELECT a FROM c`)
		if err != nil {
			t.Fatalf("cursor %d within the limit: %v", i, err)
		}
		open = append(open, it)
	}
	if _, err := client.QueryDirect(ctx, `SELECT b FROM c`); err == nil ||
		!strings.Contains(err.Error(), "statement limit (3)") {
		t.Fatalf("over-limit statement: got %v, want statement-limit rejection", err)
	}
	if got := srv.MetricsSnapshot().StmtsRejected - base.StmtsRejected; got != 1 {
		t.Fatalf("StmtsRejected delta = %d, want 1", got)
	}

	// A failed parse must not hold a slot, or the session would wedge
	// below its limit.
	open[0].Close()
	if got := srv.OpenStmts(); got != 2 {
		t.Fatalf("OpenStmts = %d after a close, want 2", got)
	}
	if _, err := client.QueryDirect(ctx, `SELECT FROM nope (`); err == nil {
		t.Fatal("want parse error")
	}
	if open[0], err = client.QueryDirect(ctx, `SELECT a FROM c`); err != nil {
		t.Fatalf("cursor after failed parse (slot leaked?): %v", err)
	}

	// A stream drained to its end frees its cursor without an OpClose.
	if _, err := engine.Drain(open[1]); err != nil {
		t.Fatal(err)
	}
	if got := srv.OpenStmts(); got != 2 {
		t.Fatalf("OpenStmts = %d after a drain, want 2", got)
	}

	// Drop the connection with two cursors still open: session shutdown
	// must free them both.
	client.Close()
	waitFor(t, "session cursors freed on disconnect", func() bool { return srv.OpenStmts() == 0 })
	waitFor(t, "cursor lifecycle symmetric", func() bool {
		m := srv.MetricsSnapshot()
		return m.StmtsPrepared == m.StmtsClosed && m.StmtsPrepared-base.StmtsPrepared == 4
	})
}

// rawSession dials the server and exchanges the hello by hand, for tests
// that need to put their own bytes on the stream afterwards.
func rawSession(t *testing.T, addr net.Addr) (net.Conn, *wire.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	wc := wire.NewConn(conn)
	if err := wc.SendRequest(&wire.Request{Op: wire.OpHello, Ver: wire.ProtocolV2}); err != nil {
		t.Fatal(err)
	}
	if resp, err := wc.ReadResponse(); err != nil || resp.Err != "" || resp.Ver != wire.ProtocolV2 {
		t.Fatalf("hello: %+v, %v", resp, err)
	}
	return conn, wc
}

// TestOversizeFrameDropped pins the frame cap as exact: a frame whose
// payload is exactly the cap is served, one byte more is refused on its
// header with the size-limit error and the connection is dropped (the
// peer is mid-payload; there is no frame boundary to resume at).
func TestOversizeFrameDropped(t *testing.T) {
	srv, addr := plainServer(t, 4)
	const limit = 64 << 10
	srv.SetMaxFrameBytes(limit)
	// ver and stmt id take one byte each, the SQL length three.
	sql := func(payload int) string { return `SELECT a FROM c -- ` + strings.Repeat("x", payload-5-19) }

	_, wc := rawSession(t, addr)
	if err := wc.SendRequest(&wire.Request{Op: wire.OpExecuteDirect, Ver: wire.ProtocolV2, SQL: sql(limit)}); err != nil {
		t.Fatal(err)
	}
	if resp, err := wc.ReadResponse(); err != nil || resp.Err != "" || !resp.EOS || len(resp.Rows) != 4 {
		t.Fatalf("frame of exactly the cap: %+v, %v", resp, err)
	}
	if got := srv.MetricsSnapshot().FramesOversize; got != 0 {
		t.Fatalf("FramesOversize = %d after a frame at the cap, want 0", got)
	}

	// The server refuses the next frame at its header and hangs up while
	// most of it is still in flight, so the send itself may fail with a
	// connection reset: that is the drop under test, not a test failure.
	sendErr := wc.SendRequest(&wire.Request{Op: wire.OpExecuteDirect, Ver: wire.ProtocolV2, SQL: sql(limit + 1)})
	if resp, err := wc.ReadResponse(); sendErr == nil && err == nil {
		if !strings.Contains(resp.Err, "size limit") {
			t.Fatalf("cap + 1 answered with %+v, want size-limit error", resp)
		}
		// After the error frame the connection must be gone.
		if _, err := wc.ReadResponse(); err == nil {
			t.Fatal("connection still alive after oversize frame")
		}
	}
	waitFor(t, "session dropped after oversize frame", func() bool { return srv.NumSessions() == 0 })
	if got := srv.MetricsSnapshot().FramesOversize; got != 1 {
		t.Fatalf("FramesOversize = %d, want 1", got)
	}

	// An under-limit session on the same server still works.
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.ExecuteSQL(`SELECT a FROM c`); err != nil {
		t.Fatalf("normal traffic after oversize rejection: %v", err)
	}
}

// TestSlowLorisDropped is the regression for missing read deadlines: a
// peer that connects and trickles bytes without ever completing a frame
// must be dropped by the idle deadline, freeing its session.
func TestSlowLorisDropped(t *testing.T) {
	srv, addr := plainServer(t, 4)
	srv.SetIdleTimeout(150 * time.Millisecond)

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitFor(t, "session admitted", func() bool { return srv.NumSessions() == 1 })

	// Trickle one byte every 50ms: the per-frame deadline is absolute, so
	// activity alone must not keep the session alive.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
				if _, err := conn.Write([]byte{0x01}); err != nil {
					return
				}
			}
		}
	}()
	waitFor(t, "slow-loris session dropped", func() bool { return srv.NumSessions() == 0 })

	// A session that completes frames promptly is unaffected by the idle
	// deadline as long as it keeps talking.
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 3; i++ {
		if _, err := client.ExecuteSQL(`SELECT a FROM c`); err != nil {
			t.Fatalf("prompt request %d under idle deadline: %v", i, err)
		}
	}
}

// TestSessionAdmissionLimit checks the -max-sessions bound: connections
// past it get one explanatory rejection frame, which Dial reports as the
// server's refusal (not as a protocol mismatch), and a freed slot
// re-admits.
func TestSessionAdmissionLimit(t *testing.T) {
	srv, addr := plainServer(t, 4)
	srv.SetMaxSessions(2)

	c1, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waitFor(t, "two sessions admitted", func() bool { return srv.NumSessions() == 2 })

	if _, err := Dial(addr.String()); err == nil || !strings.Contains(err.Error(), "session limit (2)") || errors.Is(err, wire.ErrProtocol) {
		t.Fatalf("third dial: got %v, want session-limit refusal", err)
	}
	if got := srv.MetricsSnapshot().SessionsRejected; got != 1 {
		t.Fatalf("SessionsRejected = %d, want 1", got)
	}

	c1.Close()
	waitFor(t, "slot freed", func() bool { return srv.NumSessions() == 1 })
	c3, err := Dial(addr.String())
	if err != nil {
		t.Fatalf("dial after a slot freed: %v", err)
	}
	c3.Close()
}

// TestHelloRefusesForeignPeers: a peer whose first bytes are not this
// protocol's hello — a gob stream (what wire v0/v1 spoke), a wrong magic,
// another version, a request without a hello before it — is answered with
// one error frame naming the protocol and the connection is closed, with
// no session state left behind.
func TestHelloRefusesForeignPeers(t *testing.T) {
	srv, addr := plainServer(t, 4)
	var gobHello bytes.Buffer
	if err := gob.NewEncoder(&gobHello).Encode(&wire.Request{Op: wire.OpHello, Ver: 1}); err != nil {
		t.Fatal(err)
	}
	hello := func(payload string) []byte {
		return append([]byte{0, 0, 0, byte(len(payload)), byte(wire.OpHello)}, payload...)
	}
	var noHello bytes.Buffer
	wire.NewConn(&noHello).SendRequest(&wire.Request{Op: wire.OpExecuteDirect, Ver: wire.ProtocolV2, SQL: `SELECT a FROM c`})
	for name, first := range map[string][]byte{
		"gob peer":      gobHello.Bytes(),
		"wrong magic":   hello("SDBX\x02"),
		"wrong version": hello(wire.Magic + "\x03"),
		"no hello":      noHello.Bytes(),
	} {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(first); err != nil {
			t.Fatal(err)
		}
		wc := wire.NewConn(conn)
		resp, err := wc.ReadResponse()
		if err != nil || !strings.Contains(resp.Err, wire.ErrProtocol.Error()) {
			t.Fatalf("%s: answered %+v, %v; want the protocol refusal", name, resp, err)
		}
		if _, err := wc.ReadResponse(); err == nil {
			t.Fatalf("%s: connection still open after the refusal", name)
		}
		conn.Close()
	}
	waitFor(t, "refused peers leave no session", func() bool { return srv.NumSessions() == 0 })
	if m := srv.MetricsSnapshot(); m.FramesIn != 0 || m.FramesOversize != 0 {
		t.Fatalf("refused peers counted as traffic: %+v", m)
	}

	// The other direction: dialing something that answers in gob fails the
	// handshake as a protocol error — which is how a caller tells it from
	// a full server (TestSessionAdmissionLimit), whose refusal carries the
	// server's reason.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.ReadFull(conn, make([]byte, 10)) // the dialer's hello
		gob.NewEncoder(conn).Encode(&wire.Response{Err: "legacy server"})
		conn.(*net.TCPConn).CloseWrite()
		io.Copy(io.Discard, conn)
	}()
	if _, err := Dial(l.Addr().String()); err == nil || strings.Contains(err.Error(), "refused connection") ||
		!strings.Contains(err.Error(), "handshake") {
		t.Fatalf("dial to a gob-speaking server: %v, want a handshake failure", err)
	}
}

// TestFrameKindZeroRefused: kind 0 is reserved, not a request, and so are
// the retired kinds of the server-side prepared statement (2 prepare, 3
// execute, 6 reset). A session that sends one after a good hello gets one
// ErrProtocol frame and is closed without the statement running, and the
// server goes on serving other sessions.
func TestFrameKindZeroRefused(t *testing.T) {
	srv, addr := plainServer(t, 4)
	for _, kind := range []wire.Op{0, 2, 3, 6} {
		_, wc := rawSession(t, addr)
		if err := wc.SendRequest(&wire.Request{Op: kind, Ver: wire.ProtocolV2, StmtID: 1, SQL: `INSERT INTO c VALUES (4, 4)`}); err != nil {
			t.Fatal(err)
		}
		resp, err := wc.ReadResponse()
		if err != nil || !strings.Contains(resp.Err, wire.ErrProtocol.Error()) {
			t.Fatalf("kind %d answered %+v, %v; want the protocol refusal", kind, resp, err)
		}
		if _, err := wc.ReadResponse(); err == nil {
			t.Fatalf("kind %d: connection still open after the refusal", kind)
		}
		waitFor(t, "refused session gone", func() bool { return srv.NumSessions() == 0 })
	}

	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res, err := client.ExecuteSQL(`SELECT COUNT(*) FROM c`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 4 {
		t.Fatalf("another session after the refusals: %+v, %v; want 4 rows counted", res, err)
	}
}

// TestDirectExecRoundTrips pins the latency of a one-shot SELECT whose
// result fits one frame: exactly 1 round trip.
func TestDirectExecRoundTrips(t *testing.T) {
	f := newStreamFixture(t, 5)
	before := f.client.RoundTrips()
	res, err := f.p.ExecContext(context.Background(), `SELECT id, v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("one-shot result: %d rows, want 5", len(res.Rows))
	}
	if trips := f.client.RoundTrips() - before; trips != 1 {
		t.Fatalf("one-frame one-shot cost %d round trips, want 1", trips)
	}
	if got := f.srv.MetricsSnapshot().DirectExecs; got < 1 {
		t.Fatalf("DirectExecs = %d, want >= 1", got)
	}
}

// drainFrames drains a decrypting cursor and reports its rows and the
// frames they came in (one NextBatch per frame).
func drainFrames(t *testing.T, rows *proxy.Rows) (n, frames int) {
	t.Helper()
	defer rows.Close()
	for {
		batch, err := rows.NextBatch()
		if err == io.EOF {
			return n, frames
		}
		if err != nil {
			t.Fatal(err)
		}
		n += len(batch)
		frames++
	}
}

// TestDirectExecMultiFrame checks a statement whose result spans frames:
// it costs the request plus one OpFetch per further frame, the server
// frees its cursor at EOS without an OpClose from the client, and a cursor
// abandoned mid-stream costs exactly one OpClose.
func TestDirectExecMultiFrame(t *testing.T) {
	f := newStreamFixture(t, 100)
	const q = `SELECT id, v FROM t`
	ctx := context.Background()

	before := f.client.RoundTrips()
	rows, err := f.p.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	n, frames := drainFrames(t, rows)
	if n != 100 || frames < 2 {
		t.Fatalf("multi-frame result: %d rows in %d frames, want 100 rows in several 16-row frames", n, frames)
	}
	if trips := f.client.RoundTrips() - before; trips != int64(frames) {
		t.Fatalf("%d frames cost %d round trips, want the request plus %d fetches", frames, trips, frames-1)
	}
	if got := f.srv.OpenStmts(); got != 0 {
		t.Fatalf("OpenStmts = %d after EOS, want 0 (freed by the server)", got)
	}

	before = f.client.RoundTrips()
	rows, err = f.p.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	if got := f.srv.OpenStmts(); got != 1 {
		t.Fatalf("OpenStmts = %d mid-stream, want 1", got)
	}
	rows.Close()
	if trips := f.client.RoundTrips() - before; trips != 2 {
		t.Fatalf("an abandoned stream cost %d round trips, want the request and one OpClose", trips)
	}
	if got := f.srv.OpenStmts(); got != 0 {
		t.Fatalf("OpenStmts = %d after the OpClose ack, want 0", got)
	}
}

// TestPreparedStmtRoundTrips: a statement is prepared at the proxy only,
// so over a connection Prepare and Close send nothing and each execution
// is the one request every one-shot is — a one-frame result costs 1 round
// trip, a longer one 1 plus its fetches, and abandoning it one OpClose.
func TestPreparedStmtRoundTrips(t *testing.T) {
	f := newStreamFixture(t, 5)
	ctx := context.Background()
	trips := func(what string, want int64, do func()) {
		t.Helper()
		before := f.client.RoundTrips()
		do()
		if got := f.client.RoundTrips() - before; got != want {
			t.Fatalf("%s cost %d round trips, want %d", what, got, want)
		}
	}

	var stmt *proxy.Stmt
	trips("Prepare", 0, func() {
		var err error
		if stmt, err = f.p.Prepare(`SELECT id, v FROM t`); err != nil {
			t.Fatal(err)
		}
	})
	for run := 0; run < 2; run++ {
		trips("a one-frame QueryContext", 1, func() {
			rows, err := stmt.QueryContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := drainFrames(t, rows); n != 5 {
				t.Fatalf("run %d: %d rows, want 5", run, n)
			}
		})
	}
	trips("Stmt.Close", 0, func() { stmt.Close() })

	for i := 5; i < 40; i++ {
		if _, err := f.p.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%7)); err != nil {
			t.Fatal(err)
		}
	}
	stmt, err := f.p.Prepare(`SELECT id, v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	before := f.client.RoundTrips()
	rows, err := stmt.QueryContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n, frames := drainFrames(t, rows)
	if got := f.client.RoundTrips() - before; n != 40 || frames < 2 || got != int64(frames) {
		t.Fatalf("multi-frame: %d rows in %d frames cost %d round trips, want 40 rows at 1 + %d fetches",
			n, frames, got, frames-1)
	}
	trips("an early Close", 2, func() {
		rows, err := stmt.QueryContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rows.Next(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
	})
	if got := f.srv.OpenStmts(); got != 0 {
		t.Fatalf("OpenStmts = %d after the early Close, want 0", got)
	}
}

// TestBackpressureStalledClient pins the exact bound: the server computes
// a batch only when a frame asks for one, so a client that executes and
// then stalls has cost at most the batch it was served plus the EOS peek,
// and each further fetch costs at most one more batch.
func TestBackpressureStalledClient(t *testing.T) {
	f := newStreamFixture(t, 2000)
	produced := func() int64 { return f.srv.MetricsSnapshot().RowsProduced }
	base := produced()

	stmt, err := f.client.PrepareStream(`SELECT id, v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	it, err := stmt.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One frame was served; stall without fetching, long enough for any
	// read-ahead on the server to overrun.
	time.Sleep(200 * time.Millisecond)
	// 16-row engine batches: the served batch plus the EOS peek.
	const batch = 16
	if got := produced() - base; got > 2*batch {
		t.Fatalf("stalled client saw %d rows produced server-side, want <= %d (served batch + EOS peek)", got, 2*batch)
	}
	// Draining still yields the full result, one batch per fetch at most.
	n := 0
	for {
		before := produced()
		rows, err := it.NextBatch()
		if got := produced() - before; got > batch {
			t.Fatalf("one fetch produced %d rows server-side, want <= %d (one engine batch)", got, batch)
		}
		if err != nil {
			break
		}
		n += len(rows)
	}
	if n != 2000 {
		t.Fatalf("drained %d rows after stall, want 2000", n)
	}
	it.Close()
	stmt.Close()
}

// TestCursorTeardownBeforeAck: the answer to an OpClose leaves the server
// only after the abandoned execution is torn down, so by the time the
// client holds the ack, the spilled sort's run files are gone and its pool
// reservations are back, every time.
func TestCursorTeardownBeforeAck(t *testing.T) {
	secret, err := secure.Setup(256, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	pool := spill.NewPool(96)
	spillDir := t.TempDir()
	srv := NewWithOptions(secret.N(), engine.Options{
		Parallelism: 2, ChunkSize: 8,
		MemBudgetRows: -1, // the shared pool is the only resident-row bound
		BudgetPool:    pool,
		SpillDir:      spillDir,
	})
	seedPlainTable(t, srv, 300)
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

	// 300 rows sorted against a 96-row pool: every execution spills.
	const q = `SELECT a, b FROM c ORDER BY a`
	for i := 0; i < 50; i++ {
		it, err := client.QueryDirect(context.Background(), q)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if _, err := it.NextBatch(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		it.Close()
		if used := pool.Used(); used != 0 {
			t.Fatalf("iteration %d: %d pool rows still reserved after the ack", i, used)
		}
		if left, err := os.ReadDir(spillDir); err != nil || len(left) != 0 {
			t.Fatalf("iteration %d: spill directory holds %d entries after the ack (%v)", i, len(left), err)
		}
	}
	if pool.Refused() == 0 {
		t.Fatal("300-row sorts over a 96-row pool never spilled; the test checked nothing")
	}
}

// dialRetry dials, retrying admission rejections: session teardown is
// asynchronous, so a freed slot may lag the connection close that freed
// it.
func dialRetry(addr string) (*Client, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := Dial(addr)
		if err == nil {
			return c, nil
		}
		if !strings.Contains(err.Error(), "session limit") || time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestConcurrentServing is the race-detected multi-client suite: many
// drivers against one admission-limited, pool-budgeted server, with half
// the clients disconnecting mid-stream, while the statement ledger, pool
// accounting and goroutine count stay coherent.
func TestConcurrentServing(t *testing.T) {
	goroutineLedger(t)
	secret, err := secure.Setup(256, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	pool := spill.NewPool(96)
	srv := NewWithOptions(secret.N(), engine.Options{
		Parallelism: 2, ChunkSize: 8,
		MemBudgetRows: -1, // the shared pool is the only resident-row bound
		BudgetPool:    pool,
		SpillDir:      t.TempDir(),
	})
	seedPlainTable(t, srv, 300)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	const clients = 12
	// The limit equals the worker count: every worker eventually gets in,
	// but asynchronous teardown makes redials race the limit for real.
	srv.SetMaxSessions(clients)

	// ORDER BY forces a blocking sort through the shared pool: 300
	// resident rows against a 96-row pool guarantees refusals, so every
	// sort spills — OOM-becomes-spill under real interleaving.
	const q = `SELECT a, b FROM c ORDER BY a`
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				c, err := dialRetry(addr.String())
				if err != nil {
					errs <- fmt.Errorf("worker %d dial: %w", w, err)
					return
				}
				it, err := c.QueryDirect(context.Background(), q)
				if err != nil {
					c.Close()
					errs <- fmt.Errorf("worker %d query: %w", w, err)
					return
				}
				if w%2 == 0 {
					// Disconnect storm: drop the TCP connection mid-stream.
					it.NextBatch()
					c.Close()
					continue
				}
				n, last := 0, -1
				for {
					batch, err := it.NextBatch()
					if err != nil {
						break
					}
					for _, row := range batch {
						v := int(row[0].I)
						if v < last {
							errs <- fmt.Errorf("worker %d: out-of-order row %d after %d (spill broke ordering)", w, v, last)
							return
						}
						last = v
						n++
					}
				}
				if n != 300 {
					errs <- fmt.Errorf("worker %d drained %d rows, want 300", w, n)
					return
				}
				it.Close()
				c.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	waitFor(t, "all sessions gone", func() bool { return srv.NumSessions() == 0 })
	waitFor(t, "all statements freed", func() bool { return srv.OpenStmts() == 0 })
	waitFor(t, "statement ledger balanced", func() bool {
		m := srv.MetricsSnapshot()
		return m.StmtsPrepared == m.StmtsClosed
	})
	waitFor(t, "pool reservations returned", func() bool { return pool.Used() == 0 })
	if pool.Refused() == 0 {
		t.Error("300-row sorts over a 96-row pool never spilled; pool budget not enforced")
	}
	m := srv.MetricsSnapshot()
	if m.SessionsTotal < clients || m.DirectExecs < clients || m.RowsProduced == 0 || m.BytesIn == 0 || m.BytesOut == 0 {
		t.Errorf("implausible metrics after load: %+v", m)
	}
}

// drainPairs drains a two-column iterator into (a,b) pairs.
func drainPairs(t *testing.T, it engine.RowIterator) [][2]int64 {
	t.Helper()
	var out [][2]int64
	for {
		batch, err := it.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range batch {
			out = append(out, [2]int64{r[0].I, r[1].I})
		}
	}
	it.Close()
	return out
}

func checkServedUntorn(t *testing.T, pairs [][2]int64, label string, wantFirst int64) {
	t.Helper()
	if len(pairs) == 0 {
		t.Fatalf("%s: no rows", label)
	}
	if pairs[0][0] != wantFirst {
		t.Fatalf("%s: first row a = %d, want %d", label, pairs[0][0], wantFirst)
	}
	for _, p := range pairs {
		if p[0] != p[1] {
			t.Fatalf("%s: torn read over the wire: a = %d, b = %d", label, p[0], p[1])
		}
	}
}

// TestSnapshotTornReadServing extends the engine-level torn-read family to
// the wire paths: while an UPDATE is held mid-commit on the server, both a
// cursor opened through a prepared handle and a direct one must serve the
// entirely-old rows; a cursor opened before the publish keeps serving them
// after it; and a fresh statement sees the entirely-new rows.
func TestSnapshotTornReadServing(t *testing.T) {
	srv, addr := plainServer(t, 4)
	if _, err := srv.eng.ExecuteSQL(`CREATE TABLE tt (a INT, b INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.eng.ExecuteSQL(`INSERT INTO tt VALUES (10, 10), (20, 20), (30, 30)`); err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const q = `SELECT a, b FROM tt ORDER BY a`

	built := make(chan struct{})
	release := make(chan struct{})
	srv.eng.SetCommitHook(func(phase engine.CommitPhase, table string) {
		if phase == engine.CommitBuilt && table == "tt" {
			close(built)
			<-release
		}
	})
	done := make(chan error, 1)
	go func() {
		_, err := srv.eng.ExecuteSQL(`UPDATE tt SET a = a + 1, b = b + 1`)
		done <- err
	}()
	<-built

	// A direct statement while the write is in flight: all-old.
	it, err := client.QueryDirect(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	checkServedUntorn(t, drainPairs(t, it), "direct read before publish", 10)

	// A cursor opened through a prepared handle before the publish,
	// drained after it.
	stmt, err := client.PrepareStream(q)
	if err != nil {
		t.Fatal(err)
	}
	cursor, err := stmt.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("update: %v", err)
	}
	srv.eng.SetCommitHook(nil)
	checkServedUntorn(t, drainPairs(t, cursor), "cursor pinned across publish", 10)
	stmt.Close()

	// A fresh statement sees the published version, whole.
	it, err = client.QueryDirect(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	checkServedUntorn(t, drainPairs(t, it), "direct read after publish", 11)
}

// TestConcurrentMixedServing is the race-detected mixed-workload suite the
// MVCC tentpole is judged by: driver goroutines stream decrypted SELECTs
// while writers rotate column keys and bulk-INSERT through the proxy.
// Every decrypted row must satisfy the data invariant (v = id % 7 at any
// snapshot), the proxy's key lock keeps every statement's keys coherent
// with the shares it reads, and the statement ledger balances after the
// storm.
func TestConcurrentMixedServing(t *testing.T) {
	f := newStreamFixture(t, 60)
	const readers = 4

	// The statements take no lock of their own: the proxy's per-table key
	// lock must keep their keys coherent with the shares their snapshots
	// pin, while reads and the bulk INSERTs run concurrently at the engine.
	stop := make(chan struct{})
	errs := make(chan error, readers+2)
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := f.p.ExecContext(context.Background(), `SELECT id, v FROM t`)
				if err != nil {
					errs <- fmt.Errorf("reader %d iter %d: %w", r, i, err)
					return
				}
				if len(res.Rows) < 60 {
					errs <- fmt.Errorf("reader %d iter %d: snapshot lost rows: %d < 60", r, i, len(res.Rows))
					return
				}
				for _, row := range res.Rows {
					if row[1].I != row[0].I%7 {
						errs <- fmt.Errorf("reader %d iter %d: decrypted row (%d, %d) breaks v = id %% 7 — stale keys or torn snapshot", r, i, row[0].I, row[1].I)
						return
					}
				}
			}
		}(r)
	}

	// Writer 1: key rotations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := f.p.RotateColumn("t", "v"); err != nil {
				errs <- fmt.Errorf("rotation %d: %w", i, err)
				return
			}
		}
	}()
	// Writer 2: bulk INSERTs keeping the invariant, concurrent with reads.
	wg.Add(1)
	inserted := make(chan int, 1)
	go func() {
		defer wg.Done()
		n := 0
		defer func() { inserted <- n }()
		for batch := 0; batch < 6; batch++ {
			var sb strings.Builder
			for j := 0; j < 10; j++ {
				id := 60 + batch*10 + j
				if j > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, %d)", id, id%7)
			}
			if _, err := f.p.Exec(`INSERT INTO t VALUES ` + sb.String()); err != nil {
				errs <- fmt.Errorf("bulk insert %d: %w", batch, err)
				return
			}
			n += 10
		}
	}()

	// Readers run until the bulk writer finishes; rotations may trail.
	n := <-inserted
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Post-storm: the final state decrypts in full under the final keys.
	res, err := f.p.Exec(`SELECT id, v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 60+n {
		t.Fatalf("final row count %d, want %d", len(res.Rows), 60+n)
	}
	for _, row := range res.Rows {
		if row[1].I != row[0].I%7 {
			t.Fatalf("final state: row (%d, %d) breaks v = id %% 7", row[0].I, row[1].I)
		}
	}
	waitFor(t, "statement ledger balanced after the storm", func() bool {
		m := f.srv.MetricsSnapshot()
		return m.StmtsPrepared == m.StmtsClosed
	})
}

// TestMetricsEndpoint exercises /healthz and /metrics over real HTTP,
// including budget-pool gauges and a registered external gauge.
func TestMetricsEndpoint(t *testing.T) {
	secret, err := secure.Setup(256, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(secret.N(), engine.Options{
		Parallelism: 2, ChunkSize: 8, BudgetPool: spill.NewPool(1 << 20),
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	maddr, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	p, err := proxy.NewWithOptions(secret, client, proxy.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(`CREATE TABLE m (id INT, v INT SENSITIVE)`); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(`INSERT INTO m VALUES (1, 10), (2, 20)`); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(`SELECT id, v FROM m`); err != nil {
		t.Fatal(err)
	}
	// A SENSITIVE aggregate, twice: the SP flattens v with a token, so the
	// helper-power memo misses on the first run and hits on the second.
	for i := 0; i < 2; i++ {
		if _, err := p.Exec(`SELECT SUM(v) FROM m`); err != nil {
			t.Fatal(err)
		}
	}
	srv.RegisterGauge("sdb_plan_cache_hits_total", func() int64 {
		hits, _ := p.PlanCacheStats()
		return int64(hits)
	})

	if body := httpGet(t, fmt.Sprintf("http://%s/healthz", maddr)); !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %q", body)
	}
	body := httpGet(t, fmt.Sprintf("http://%s/metrics", maddr))
	for _, want := range []string{
		"sdb_sessions_active 1",
		"sdb_stmts_prepared_total",
		"sdb_direct_execs_total",
		"sdb_bytes_in_total",
		"sdb_budget_pool_limit_rows",
		"sdb_plan_cache_hits_total",
		"sdb_helper_power_hits_total",
		"sdb_helper_power_misses_total",
		"sdb_helper_power_entries",
		"sdb_helper_power_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// Every exported line is a name and a decimal count: no helper,
	// exponent or token material can ride along.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if !regexp.MustCompile(`^[a-z_]+ -?[0-9]+$`).MatchString(line) {
			t.Errorf("/metrics line is not `name count`: %q", line)
		}
	}
	for _, zero := range []string{"sdb_helper_power_hits_total 0\n", "sdb_helper_power_misses_total 0\n",
		"sdb_helper_power_entries 0\n", "sdb_helper_power_bytes 0\n"} {
		if strings.Contains(body, zero) {
			t.Errorf("/metrics gauge unexpectedly zero after a SENSITIVE aggregate: %q", zero)
		}
	}
	// The CI smoke asserts the same: core counters must be nonzero on a
	// server that has served traffic.
	for _, zero := range []string{"sdb_sessions_total 0\n", "sdb_bytes_in_total 0\n"} {
		if strings.Contains(body, zero) {
			t.Errorf("/metrics counter unexpectedly zero: %q", zero)
		}
	}
}
