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
// proxy.Executor, so a Proxy can be pointed at a server across the network
// exactly like at an in-process engine.
//
// Dial opens the connection with the protocol hello. After it, every
// statement — writes (ExecuteSQL) and every execution of a prepared one
// alike — is one OpExecuteDirect (QueryDirect): one round trip when the
// result fits a frame, plus one OpFetch per further frame. The connection
// carries one request/response exchange at a time (guarded by a mutex), so
// several cursors may interleave their batch fetches on one connection.
//
// The server is not trusted with memory either: the connection has no
// frame cap (results are as large as the query makes them), but the frame
// reader grows its buffer only as bytes arrive and the decoder sizes
// nothing from a count the received bytes cannot back (wire.Conn).
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	wc   *wire.Conn
	// trips counts framed round trips (the latency currency of the remote
	// path; the round-trip tests assert on its deltas).
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

// RoundTrips reports the framed request/response exchanges performed so
// far.
func (c *Client) RoundTrips() int64 { return c.trips.Load() }

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

// ExecuteSQL runs one statement with QueryDirect and drains its encrypted
// result — the write path. A write's result ends in the first frame, so
// it costs one round trip.
func (c *Client) ExecuteSQL(sql string) (*engine.Result, error) {
	it, err := c.QueryDirect(context.Background(), sql)
	if err != nil {
		return nil, err
	}
	return engine.Drain(it)
}

// PrepareStream returns a handle on sql whose Query runs it with
// QueryDirect. Nothing is sent: statements are prepared at the proxy, and
// the server holds one only while its cursor is open.
func (c *Client) PrepareStream(sql string) (engine.PreparedStmt, error) {
	return remoteStmt{c: c, sql: sql}, nil
}

// QueryDirect runs one statement: the request carries the SQL and the
// answer carries the first batch, so a result that fits one frame costs a
// single round trip. A longer result leaves an open server cursor, which
// the server frees at the end of the stream and the iterator's Close frees
// before then.
func (c *Client) QueryDirect(ctx context.Context, sql string) (engine.RowIterator, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpExecuteDirect, SQL: sql})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return &remoteRows{ctx: ctx, c: c, id: resp.StmtID, cols: resp.Columns, first: resp}, nil
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

// remoteStmt is a statement's SQL, ready to run on the connection.
type remoteStmt struct {
	c   *Client
	sql string
}

func (s remoteStmt) Query(ctx context.Context) (engine.RowIterator, error) {
	return s.c.QueryDirect(ctx, s.sql)
}

func (remoteStmt) Close() error { return nil }

// remoteRows iterates a statement's stream, one frame per NextBatch. id
// names the open server cursor and is zero once nothing is left to free:
// the server freed it (EOS or an error), Close did, or the connection
// failed mid-exchange (its teardown frees it).
type remoteRows struct {
	ctx  context.Context
	c    *Client
	id   uint64
	cols []engine.ResultColumn
	// first is the frame that answered the execute, until NextBatch takes it.
	first *wire.Response
	done  bool
	err   error
}

func (r *remoteRows) Columns() []engine.ResultColumn { return r.cols }

func (r *remoteRows) NextBatch() ([]types.Row, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.done {
		return nil, io.EOF
	}
	resp := r.first
	r.first = nil
	if resp == nil {
		if err := r.ctx.Err(); err != nil {
			// Cancelled between batches: free the server cursor.
			r.err = err
			r.release()
			return nil, err
		}
		var err error
		resp, err = r.c.roundTrip(&wire.Request{Op: wire.OpFetch, StmtID: r.id})
		if err != nil {
			r.id = 0
			r.err = fmt.Errorf("server: stream interrupted: %w", err)
			return nil, r.err
		}
	}
	switch {
	case resp.Err != "":
		r.id = 0 // the server freed the cursor with the failed stream
		r.err = errors.New(resp.Err)
	case resp.EOS:
		r.id = 0 // the server freed the cursor at the end of the stream
		r.done = true
		if len(resp.Rows) > 0 {
			return resp.Rows, nil
		}
		return nil, io.EOF
	case len(resp.Rows) == 0:
		// The server never sends an empty batch before the end of a stream;
		// taking one as the end would hand back a silently short result.
		r.err = fmt.Errorf("server: %w: empty row batch before the end of the stream", wire.ErrProtocol)
		r.release()
	default:
		return resp.Rows, nil
	}
	return nil, r.err
}

// release frees the server cursor while it is open. The ack arrives after
// the cursor's execution is torn down.
func (r *remoteRows) release() error {
	if r.id == 0 {
		return nil
	}
	resp, err := r.c.roundTrip(&wire.Request{Op: wire.OpClose, StmtID: r.id})
	r.id = 0
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// Close abandons the stream, sending OpClose only if the server cursor is
// still open.
func (r *remoteRows) Close() error {
	r.first = nil
	r.done = true
	return r.release()
}
