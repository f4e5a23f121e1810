// Package server runs the service provider: a TCP front end over the SDB
// engine (the demo's machine MSP). The server never receives key material;
// it executes rewritten SQL whose only secrets are embedded tokens, and
// returns encrypted results.
//
// Each connection is a session: the cursors it has open, bounded per
// connection. A statement arrives as one OpExecuteDirect carrying its SQL
// (statements are prepared at the proxy, not here); its cursor lives only
// until the stream ends, fails or is closed. Session query contexts derive
// from the server's base context, so dropping a connection or closing the
// server cancels in-flight queries between batches instead of abandoning
// their goroutines.
//
// The serving path is hardened for untrusted peers (docs/serving.md):
// incoming frames are size-capped, reads and writes carry idle deadlines,
// sessions and per-session open cursors are admission-limited, all query
// budgets can share one global resident-row pool (exhaustion spills
// instead of growing server memory), and a cursor computes a batch only
// when a frame asks for one — a client that stops fetching stops the
// engine. Counters for all of it are exported on an HTTP /metrics endpoint
// (metrics.go).
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/big"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sdb/internal/engine"
	"sdb/internal/storage"
	"sdb/internal/types"
	"sdb/internal/wire"
)

// DefaultMaxSessionStmts bounds open cursors per connection, so one client
// cannot grow a session table without limit.
const DefaultMaxSessionStmts = 64

// DefaultMaxFrameBytes caps one incoming wire frame. Generous, because
// INSERT uploads carry whole encrypted batches in one frame; the point is
// an upper bound, not a throttle.
const DefaultMaxFrameBytes = 64 << 20

// Server accepts proxy connections and executes rewritten SQL.
type Server struct {
	eng *engine.Engine
	// baseCtx parents every session's query contexts; baseCancel is the
	// Close switch that aborts in-flight queries between batches.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// Admission and hardening knobs. All atomic so ops tooling can adjust
	// them on a live server without racing the serve path.
	maxStmts    atomic.Int64 // open cursors per session
	maxSessions atomic.Int64 // concurrent sessions; <= 0 unlimited
	maxFrame    atomic.Int64 // incoming frame byte cap; <= 0 unlimited
	idleNanos   atomic.Int64 // per-frame read deadline; <= 0 off
	writeNanos  atomic.Int64 // per-response write deadline; <= 0 off

	met    metrics
	gauges struct {
		sync.Mutex
		byName map[string]func() int64
		names  []string
	}

	mu         sync.Mutex
	listener   net.Listener
	metricsSrv io.Closer
	sessions   map[net.Conn]*session
	closed     bool
}

// NewWithOptions builds a server over a fresh catalog with the public
// modulus n and the given engine execution options.
func NewWithOptions(n *big.Int, opts engine.Options) *Server {
	return NewWithEngine(engine.NewWithOptions(storage.NewCatalog(), n, opts))
}

// NewWithEngine builds a server over an existing engine — the durable
// deployment path, where cmd/sdb-server recovers a WAL-backed catalog and
// hands the engine in ready to serve.
func NewWithEngine(eng *engine.Engine) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		eng:        eng,
		baseCtx:    ctx,
		baseCancel: cancel,
		sessions:   make(map[net.Conn]*session),
	}
	s.maxStmts.Store(DefaultMaxSessionStmts)
	s.maxFrame.Store(DefaultMaxFrameBytes)
	registerHelperPowerGauges(s)
	return s
}

// SetMaxSessionStmts bounds open cursors per connection (<= 0 restores
// the default). Safe to call on a live server; in-flight sessions see the
// new bound on their next statement.
func (s *Server) SetMaxSessionStmts(n int) {
	if n <= 0 {
		n = DefaultMaxSessionStmts
	}
	s.maxStmts.Store(int64(n))
}

// SetMaxSessions bounds concurrent sessions; a connection past the bound
// is answered with one admission-rejection frame and closed. <= 0 means
// unlimited (the default).
func (s *Server) SetMaxSessions(n int) {
	if n < 0 {
		n = 0
	}
	s.maxSessions.Store(int64(n))
}

// SetMaxFrameBytes caps each incoming frame (anti-OOM); <= 0 disables
// the cap. New sessions pick the value up on connect.
func (s *Server) SetMaxFrameBytes(n int) {
	s.maxFrame.Store(int64(n))
}

// SetIdleTimeout bounds how long the server waits for one complete
// request frame; a session that stays silent (or trickles bytes) past it
// is dropped. <= 0 disables (the default): idle proxy connection pools
// then park for free.
func (s *Server) SetIdleTimeout(d time.Duration) {
	s.idleNanos.Store(int64(d))
}

// SetWriteTimeout bounds each response write, so a client that stops
// reading cannot pin the session goroutine on a full TCP window.
// <= 0 disables (the default).
func (s *Server) SetWriteTimeout(d time.Duration) {
	s.writeNanos.Store(int64(d))
}

func (s *Server) idleTimeout() time.Duration  { return time.Duration(s.idleNanos.Load()) }
func (s *Server) writeTimeout() time.Duration { return time.Duration(s.writeNanos.Load()) }

// NumSessions reports the live connections (test introspection).
func (s *Server) NumSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// OpenStmts reports open cursors across all sessions (test introspection:
// end of stream, OpClose and disconnects must drive this to zero).
func (s *Server) OpenStmts() int {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	n := 0
	for _, sess := range sessions {
		sess.mu.Lock()
		n += len(sess.cursors)
		sess.mu.Unlock()
	}
	return n
}

// Listen binds the address and returns the bound address (useful with
// ":0" in tests).
func (s *Server) Listen(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	return l.Addr(), nil
}

// Serve accepts connections until Close. It returns nil after Close.
func (s *Server) Serve() error {
	s.mu.Lock()
	l := s.listener
	s.mu.Unlock()
	if l == nil {
		return errors.New("server: Listen before Serve")
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		sess := s.newSession()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			sess.shutdown()
			conn.Close()
			return nil
		}
		if max := int(s.maxSessions.Load()); max > 0 && len(s.sessions) >= max {
			s.mu.Unlock()
			sess.shutdown()
			s.met.sessionsRejected.Add(1)
			// Answer on a side goroutine so one slow rejected peer cannot
			// stall the accept loop.
			go s.rejectConn(conn, max)
			continue
		}
		s.sessions[conn] = sess
		s.met.sessionsTotal.Add(1)
		s.mu.Unlock()
		go s.handle(conn, sess)
	}
}

// rejectConn answers an over-limit connection with one admission-
// rejection frame and closes it; the dialer reads it in place of the
// hello's answer.
func (s *Server) rejectConn(conn net.Conn, max int) {
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	wc := wire.NewConn(conn)
	if err := wc.SendResponse(&wire.Response{
		Ver: wire.ProtocolV2,
		Err: fmt.Sprintf("server: session limit (%d) reached", max),
	}); err != nil {
		log.Printf("server: send admission rejection: %v", err)
	}
}

// Close stops the listener and all connections, cancelling every session's
// in-flight query context.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.baseCancel()
	if s.listener != nil {
		s.listener.Close()
	}
	if s.metricsSrv != nil {
		s.metricsSrv.Close()
	}
	conns := make([]net.Conn, 0, len(s.sessions))
	for c := range s.sessions {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// session is the per-connection state: the open cursors, by id, and a
// context that parents every query the session runs. Only the session's
// own goroutine opens and frees cursors; mu orders that against OpenStmts.
type session struct {
	srv    *Server
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	cursors map[uint64]*cursor
	nextID  uint64
}

// cursor is one execution, pulled on the session goroutine: the engine
// computes a batch only when a frame asks for rows, so a client that stops
// fetching stops the engine — backpressure by construction, with nothing
// running between frames and no result buffered beyond one engine batch.
type cursor struct {
	cancel context.CancelFunc
	it     engine.RowIterator
	met    *metrics
	// pending is the batch the EOS peek pulled, sent with the next frame.
	pending []types.Row
	// err is the terminal error (io.EOF included) the EOS peek pulled; the
	// next frame reports it.
	err error
}

// pull returns the engine's next non-empty batch. Every frame before EOS
// carries rows (the client refuses an empty one), so empty engine batches
// are skipped here.
func (c *cursor) pull() ([]types.Row, error) {
	for {
		batch, err := c.it.NextBatch()
		if err != nil {
			return nil, err
		}
		if len(batch) > 0 {
			c.met.rowsProduced.Add(int64(len(batch)))
			return batch, nil
		}
	}
}

// nextRows returns the next engine batch, whole: a frame is one batch. It
// returns io.EOF once the stream is exhausted. The returned eos flag
// reports that the stream ended right after these rows: nextRows pulls one
// batch ahead so the final rows travel in an EOS-marked frame — the client
// never pays a round trip for an empty end-of-stream fetch, which is what
// lets a one-frame statement finish in a single exchange.
func (c *cursor) nextRows() (rows []types.Row, eos bool, err error) {
	if c.pending == nil && c.err == nil {
		c.pending, c.err = c.pull()
	}
	if c.pending == nil {
		return nil, false, c.err // pull yields rows or an error, never neither
	}
	rows = c.pending
	// The EOS peek: a batch stays pending and a real error surfaces with
	// the next frame; io.EOF ends the stream with these rows.
	c.pending, c.err = c.pull()
	return rows, c.err == io.EOF, nil
}

// close tears the execution down — iterator first, so its spill files and
// budget reservations are gone when close returns, then the context.
func (c *cursor) close() {
	c.it.Close()
	c.cancel()
}

func (s *Server) newSession() *session {
	ctx, cancel := context.WithCancel(s.baseCtx)
	return &session{
		srv:     s,
		ctx:     ctx,
		cancel:  cancel,
		cursors: make(map[uint64]*cursor),
	}
}

// shutdown cancels the session context and frees every open cursor, the
// same teardown OpClose does, so a dropped connection cannot leak what an
// orderly close would free.
func (sess *session) shutdown() {
	sess.cancel()
	sess.mu.Lock()
	cursors := sess.cursors
	sess.cursors = make(map[uint64]*cursor)
	sess.mu.Unlock()
	for _, cur := range cursors {
		cur.close()
		sess.srv.met.stmtsClosed.Add(1)
	}
}

func (s *Server) handle(conn net.Conn, sess *session) {
	defer func() {
		conn.Close()
		sess.shutdown()
		s.mu.Lock()
		delete(s.sessions, conn)
		s.mu.Unlock()
	}()
	wc := wire.NewConnMaxFrame(&countingConn{Conn: conn, met: &s.met}, int(s.maxFrame.Load()))
	send := func(resp *wire.Response) error {
		if d := s.writeTimeout(); d > 0 {
			conn.SetWriteDeadline(time.Now().Add(d))
		}
		resp.Ver = wire.ProtocolV2
		return wc.SendResponse(resp)
	}
	read := wc.ReadHello // the first frame must be the hello
	for {
		if d := s.idleTimeout(); d > 0 {
			conn.SetReadDeadline(time.Now().Add(d))
		}
		req, err := read()
		read = wc.ReadRequest
		if err != nil {
			// An oversize or foreign frame leaves the peer mid-payload (or
			// mid-whatever it speaks), so the stream cannot be resynchronised:
			// one best-effort error frame, then the connection goes.
			oversize := errors.Is(err, wire.ErrFrameTooLarge)
			if oversize {
				s.met.framesOversize.Add(1)
			}
			if oversize || errors.Is(err, wire.ErrProtocol) {
				send(&wire.Response{Err: err.Error()})
			}
			return // connection closed, timed out, or refused
		}
		s.met.framesIn.Add(1)
		var resp *wire.Response
		switch req.Op {
		case wire.OpHello:
			resp = &wire.Response{}
		case wire.OpFetch:
			resp = s.fetch(sess, req)
		case wire.OpClose:
			s.free(sess, req.StmtID)
			resp = &wire.Response{StmtID: req.StmtID}
		case wire.OpExecuteDirect:
			resp = s.executeDirect(sess, req)
		}
		if err := send(resp); err != nil {
			log.Printf("server: send response: %v", err)
			return
		}
	}
}

// executeDirect runs one statement and answers with its first batch, in
// this order: claim a cursor slot (an over-limit client is refused before
// the engine does any work), start the query under the session context,
// register the cursor, pull the first frame. If that frame ends the stream
// (or fails), the cursor is freed before the response leaves and StmtID is
// zero; otherwise StmtID names the cursor OpFetch continues.
func (s *Server) executeDirect(sess *session, req *wire.Request) *wire.Response {
	s.met.directExecs.Add(1)
	sess.mu.Lock()
	open := len(sess.cursors)
	sess.mu.Unlock()
	if max := int(s.maxStmts.Load()); open >= max {
		s.met.stmtsRejected.Add(1)
		return &wire.Response{
			Err: fmt.Sprintf("server: session statement limit (%d) reached; close open cursors first", max)}
	}
	qctx, cancel := context.WithCancel(sess.ctx)
	it, err := s.eng.QuerySQL(qctx, req.SQL)
	if err != nil {
		cancel()
		return &wire.Response{Err: err.Error()}
	}
	cur := &cursor{cancel: cancel, it: it, met: &s.met}
	sess.mu.Lock()
	sess.nextID++
	id := sess.nextID
	sess.cursors[id] = cur
	sess.mu.Unlock()
	s.met.stmtsPrepared.Add(1)
	cols := it.Columns()
	resp := s.nextFrame(sess, id, cur)
	resp.Columns = cols
	if resp.EOS || resp.Err != "" {
		resp.StmtID = 0 // nextFrame already freed the cursor
	}
	return resp
}

// fetch returns the next batch of an open cursor.
func (s *Server) fetch(sess *session, req *wire.Request) *wire.Response {
	sess.mu.Lock()
	cur := sess.cursors[req.StmtID]
	sess.mu.Unlock()
	if cur == nil {
		return &wire.Response{Err: fmt.Sprintf("server: unknown cursor id %d", req.StmtID)}
	}
	return s.nextFrame(sess, req.StmtID, cur)
}

// free removes a cursor from the session and tears it down before the
// caller answers: after an OpClose ack the execution holds no spill file
// or pool reservation. Freeing an id that is not open is a no-op.
func (s *Server) free(sess *session, id uint64) {
	sess.mu.Lock()
	cur, ok := sess.cursors[id]
	delete(sess.cursors, id)
	sess.mu.Unlock()
	if ok {
		cur.close()
		s.met.stmtsClosed.Add(1)
	}
}

// nextFrame sends the cursor's next engine batch and marks EOS on the
// final frame. A stream that ends or fails frees its cursor.
func (s *Server) nextFrame(sess *session, id uint64, cur *cursor) *wire.Response {
	resp := &wire.Response{StmtID: id}
	batch, eos, err := cur.nextRows()
	switch {
	case err == io.EOF:
		resp.EOS = true
	case err != nil:
		resp.Err = err.Error()
	default:
		resp.Rows, resp.EOS = batch, eos
	}
	if resp.EOS || resp.Err != "" {
		s.free(sess, id)
	}
	return resp
}
