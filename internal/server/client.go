package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"sdb/internal/engine"
	"sdb/internal/types"
	"sdb/internal/wire"
)

// Client is a proxy-side connection to a remote SDB server. It implements
// proxy.Executor and proxy.DirectQueryer, so a Proxy can be pointed at a
// server across the network exactly like at an in-process engine.
//
// Dial opens the connection with the protocol hello. After it, one-shot
// statements run fused (QueryDirect, one round trip), prepared statements
// execute as streamed row-batch cursors, and writes go single-shot
// (ExecuteSQL). The connection carries one request/response exchange at
// a time (guarded by a mutex), so several statements and cursors may
// interleave their batch fetches on one connection.
//
// The server is not trusted with memory either: the connection has no
// frame cap (results are as large as the query makes them), but the frame
// reader grows its buffer only as bytes arrive and the decoder sizes
// nothing from a count the received bytes cannot back (wire.Conn).
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	wc   *wire.Conn
	// batch caps rows per fetched frame; 0 lets the server choose.
	batch int
	// trips counts framed round trips (the latency currency of the remote
	// path; the fused-op tests assert on its deltas).
	trips atomic.Int64
}

// Dial connects to a server and exchanges the hello. An error frame in
// answer is a refusal with the server's reason — admission rejection from
// a server at its session limit, or a version it does not speak; an
// answer that is not a frame of this protocol at all fails the handshake
// with wire.ErrProtocol.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	c := &Client{conn: conn, wc: wire.NewConn(conn)}
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpHello})
	switch {
	case err != nil:
		err = fmt.Errorf("server: handshake with %s: %w", addr, err)
	case resp.Err != "":
		err = fmt.Errorf("server: %s refused connection: %s", addr, resp.Err)
	case resp.Ver != wire.ProtocolV2:
		err = fmt.Errorf("server: handshake with %s: %w: server answered version %d", addr, wire.ErrProtocol, resp.Ver)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Protocol returns the protocol version the connection speaks.
func (c *Client) Protocol() uint8 { return wire.ProtocolV2 }

// RoundTrips reports the framed request/response exchanges performed so
// far — the number the fused op exists to shrink.
func (c *Client) RoundTrips() int64 { return c.trips.Load() }

// SetBatchRows caps the rows per fetched row-batch frame (0 restores the
// server default). It must not be called concurrently with open cursors.
func (c *Client) SetBatchRows(n int) {
	if n < 0 {
		n = 0
	}
	c.batch = n
}

// roundTrip performs one framed exchange. The lock spans send + receive so
// concurrent statements cannot interleave half-exchanges.
func (c *Client) roundTrip(req *wire.Request) (*wire.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, errors.New("server: client closed")
	}
	c.trips.Add(1)
	req.Ver = wire.ProtocolV2
	if err := c.wc.SendRequest(req); err != nil {
		return nil, err
	}
	resp, err := c.wc.ReadResponse()
	if err != nil {
		return nil, fmt.Errorf("server: connection lost awaiting response: %w", err)
	}
	return resp, nil
}

// ExecuteSQL sends one statement and waits for its whole encrypted result
// in one frame (OpExec) — the write path.
func (c *Client) ExecuteSQL(sql string) (*engine.Result, error) {
	resp, err := c.roundTrip(&wire.Request{SQL: sql})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return &engine.Result{Columns: resp.Columns, Rows: resp.Rows}, nil
}

// PrepareStream registers a statement server-side and returns a handle
// whose Query streams row batches.
func (c *Client) PrepareStream(sql string) (engine.PreparedStmt, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpPrepare, SQL: sql})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return &remoteStmt{c: c, id: resp.StmtID}, nil
}

// QueryDirect runs one statement fused: prepare + execute + first batch
// cost a single round trip, and the server frees the statement on its own
// when the stream ends — most one-shot results fit the first frame, making
// the whole statement one exchange instead of Prepare/Execute/Close's
// three.
func (c *Client) QueryDirect(ctx context.Context, sql string) (engine.RowIterator, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpExecuteDirect, SQL: sql, MaxRows: c.batch})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	stmt := &remoteStmt{c: c, id: resp.StmtID, direct: true}
	if resp.StmtID == 0 {
		// The stream ended inside the fused frame; the server already freed
		// the statement, so there is nothing left to address or close.
		stmt.closed = true
	}
	return &remoteRows{
		ctx:  ctx,
		stmt: stmt,
		cols: resp.Columns,
		cur:  resp.Rows,
		eos:  resp.EOS,
	}, nil
}

// Close terminates the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// remoteStmt is a prepared statement living in a server session.
type remoteStmt struct {
	c  *Client
	id uint64
	// direct marks a statement created by the fused op: the server frees
	// it when its stream ends, so the client marks it closed locally on
	// EOS instead of sending a redundant OpClose.
	direct bool
	mu     sync.Mutex
	closed bool
}

// markClosed records that the server side is already gone (fused EOS /
// terminal stream error), so Close becomes a local no-op.
func (s *remoteStmt) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Query starts a cursor on the statement. The ctx is checked between batch
// fetches; cancelling it closes the statement server-side, freeing the
// session's cursor and statement slot.
func (s *remoteStmt) Query(ctx context.Context) (engine.RowIterator, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("server: %w", engine.ErrStmtClosed)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := s.c.roundTrip(&wire.Request{Op: wire.OpExecute, StmtID: s.id, MaxRows: s.c.batch})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return &remoteRows{
		ctx:  ctx,
		stmt: s,
		cols: resp.Columns,
		cur:  resp.Rows,
		eos:  resp.EOS,
	}, nil
}

// Close frees the statement (and any open cursor) in the server session.
func (s *remoteStmt) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	resp, err := s.c.roundTrip(&wire.Request{Op: wire.OpClose, StmtID: s.id})
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// remoteRows iterates a server-side cursor, one RowBatch frame per
// NextBatch. A cancelled ctx (checked between fetches) closes the whole
// statement so the server session frees its resources promptly.
type remoteRows struct {
	ctx  context.Context
	stmt *remoteStmt
	cols []engine.ResultColumn
	cur  []types.Row
	eos  bool
	done bool
	err  error
}

func (r *remoteRows) Columns() []engine.ResultColumn { return r.cols }

func (r *remoteRows) NextBatch() ([]types.Row, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.cur != nil {
		rows := r.cur
		r.cur = nil
		if len(rows) > 0 {
			return rows, nil
		}
	}
	if r.done || r.eos {
		r.done = true
		return nil, io.EOF
	}
	if err := r.ctx.Err(); err != nil {
		// Cancelled between batches: free the server-side statement.
		r.err = err
		r.stmt.Close()
		return nil, err
	}
	resp, err := r.stmt.c.roundTrip(&wire.Request{Op: wire.OpFetch, StmtID: r.stmt.id, MaxRows: r.stmt.c.batch})
	if err != nil {
		r.err = fmt.Errorf("server: stream interrupted: %w", err)
		return nil, r.err
	}
	if resp.Err != "" {
		r.err = errors.New(resp.Err)
		if r.stmt.direct {
			// The server freed the fused statement with the failed stream.
			r.stmt.markClosed()
		}
		return nil, r.err
	}
	if resp.EOS {
		r.done = true
		if r.stmt.direct {
			r.stmt.markClosed()
		}
		if len(resp.Rows) > 0 {
			return resp.Rows, nil
		}
		return nil, io.EOF
	}
	rows := resp.Rows
	if len(rows) == 0 {
		// Defensive: a non-EOS empty frame would otherwise spin.
		r.done = true
		return nil, io.EOF
	}
	return rows, nil
}

// Close abandons the cursor. When the query context was cancelled, the
// whole statement is closed so the server session frees its statement slot
// (the cancellation contract); otherwise the cursor is reset server-side
// and the statement stays prepared for re-execution. Either way the
// session stops pinning the query's relation. A fused (direct) statement
// is closed outright rather than reset — nobody holds a handle to
// re-execute it, and only EOS (not OpReset) would auto-free it.
func (r *remoteRows) Close() error {
	if r.done || r.err != nil {
		r.done = true
		r.cur = nil
		return nil
	}
	r.done = true
	r.cur = nil
	if r.stmt.direct || r.ctx.Err() != nil {
		return r.stmt.Close()
	}
	// Best effort: connection teardown covers a failed reset.
	r.stmt.c.roundTrip(&wire.Request{Op: wire.OpReset, StmtID: r.stmt.id})
	return nil
}
