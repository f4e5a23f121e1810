// Package server runs the service provider: a TCP front end over the SDB
// engine (the demo's machine MSP). The server never receives key material;
// it executes rewritten SQL whose only secrets are embedded tokens, and
// returns encrypted results.
//
// Each connection is a session: a table of prepared statements and at most
// one open cursor per statement, all bounded per connection. Session query
// contexts derive from the server's base context, so dropping a connection
// or closing the server cancels in-flight queries between batches instead
// of abandoning their goroutines.
//
// The serving path is hardened for untrusted peers (docs/serving.md):
// incoming frames are size-capped, reads and writes carry idle deadlines,
// sessions and per-session statements are admission-limited, all query
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

// DefaultMaxSessionStmts bounds prepared statements (each with at most one
// open cursor) per connection, so one client cannot grow a session table
// without limit.
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
	maxStmts    atomic.Int64 // prepared statements per session
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

// New builds a server over a fresh catalog with the public modulus n.
func New(n *big.Int) *Server {
	return NewWithOptions(n, engine.Options{})
}

// NewWithOptions is New with explicit engine execution options (chunked
// parallel secure-operator evaluation).
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

// Engine exposes the underlying engine (attack-harness inspection).
func (s *Server) Engine() *engine.Engine { return s.eng }

// SetMaxSessionStmts bounds prepared statements per connection (<= 0
// restores the default). Safe to call on a live server; in-flight
// sessions see the new bound on their next prepare.
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

// OpenStmts reports prepared statements across all sessions (test
// introspection: disconnects and OpClose must drive this to zero).
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
		n += len(sess.stmts)
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

// session is the per-connection state: prepared statements, their open
// cursors, and a context that parents every query the session runs.
type session struct {
	srv    *Server
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	stmts map[uint64]*sessionStmt
	// reserved counts statement slots claimed by prepares still parsing,
	// so the admission check covers in-flight work and no post-parse
	// over-limit path (which would have to unwind a live *engine.Stmt)
	// exists at all.
	reserved int
	nextID   uint64
}

// sessionStmt is one prepared statement and its (optional) open cursor.
type sessionStmt struct {
	stmt *engine.Stmt
	// autoClose frees the statement as soon as its stream ends — the
	// server half of the fused OpExecuteDirect lifecycle.
	autoClose bool
	cur       *cursor
}

// cursor is one execution, pulled on the session goroutine: the engine
// computes a batch only when a frame asks for rows, so a client that stops
// fetching stops the engine — backpressure by construction, with nothing
// running between frames and no result buffered beyond one engine batch.
type cursor struct {
	cancel context.CancelFunc
	it     engine.RowIterator
	met    *metrics
	// pending holds rows pulled but not yet sent: the rest of an engine
	// batch a client's MaxRows cut short, or the batch the EOS peek pulled.
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

// nextRows returns up to max rows (max <= 0 means one full engine batch),
// drawing from the pending buffer before the engine. It returns io.EOF
// once the stream is exhausted. The returned eos flag reports that the
// stream ended right after these rows: when the buffer drains, nextRows
// pulls one batch ahead so the final rows travel in an EOS-marked frame —
// the client never pays a round trip for an empty end-of-stream fetch,
// which is what lets a fused one-shot finish in a single exchange.
func (c *cursor) nextRows(max int) (rows []types.Row, eos bool, err error) {
	if len(c.pending) == 0 && c.err == nil {
		c.pending, c.err = c.pull()
	}
	if len(c.pending) == 0 {
		return nil, false, c.err // pull yields rows or an error, never neither
	}
	if max <= 0 || max >= len(c.pending) {
		rows = c.pending
		c.pending = nil
	} else {
		rows = c.pending[:max]
		c.pending = c.pending[max:]
	}
	if len(c.pending) == 0 {
		// The EOS peek: a batch stays pending and a real error surfaces
		// with the next frame; io.EOF ends the stream with these rows.
		c.pending, c.err = c.pull()
		eos = c.err == io.EOF
	}
	return rows, eos, nil
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
		srv:    s,
		ctx:    ctx,
		cancel: cancel,
		stmts:  make(map[uint64]*sessionStmt),
	}
}

// shutdown cancels the session context and releases every statement —
// cursor and prepared statement both, the same teardown OpClose does, so
// a dropped connection cannot leak what an orderly close would free.
func (sess *session) shutdown() {
	sess.cancel()
	sess.mu.Lock()
	stmts := sess.stmts
	sess.stmts = make(map[uint64]*sessionStmt)
	sess.mu.Unlock()
	for _, st := range stmts {
		st.closeCursor()
		st.stmt.Close()
		sess.srv.met.stmtsClosed.Add(1)
	}
}

// closeCursor tears down an in-flight execution, if any, before the
// caller answers: after an OpReset or OpClose ack, or when a re-execute
// starts, the old execution holds no spill file or pool reservation.
func (st *sessionStmt) closeCursor() {
	if st.cur != nil {
		st.cur.close()
		st.cur = nil
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
		case wire.OpPrepare:
			resp = s.prepare(sess, req)
		case wire.OpExecute:
			resp = s.executeStmt(sess, req)
		case wire.OpFetch:
			resp = s.fetch(sess, req)
		case wire.OpClose:
			resp = s.closeStmt(sess, req)
		case wire.OpReset:
			resp = s.resetStmt(sess, req)
		case wire.OpExecuteDirect:
			resp = s.executeDirect(sess, req)
		}
		if err := send(resp); err != nil {
			log.Printf("server: send response: %v", err)
			return
		}
	}
}

// reserveStmtSlot claims one statement slot before the parse, counting
// slots already claimed by in-flight prepares. Rejecting up front means
// an over-limit client never burns server CPU parsing, and there is no
// post-parse rejection path that would have to unwind a live statement.
func (s *Server) reserveStmtSlot(sess *session) *wire.Response {
	max := int(s.maxStmts.Load())
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if len(sess.stmts)+sess.reserved >= max {
		s.met.stmtsRejected.Add(1)
		return &wire.Response{
			Err: fmt.Sprintf("server: session statement limit (%d) reached; close statements first", max)}
	}
	sess.reserved++
	return nil
}

// releaseSlot returns a reserved slot after a failed prepare.
func (sess *session) releaseSlot() {
	sess.mu.Lock()
	sess.reserved--
	sess.mu.Unlock()
}

// commitStmt converts a reserved slot into a registered statement.
func (sess *session) commitStmt(st *sessionStmt) uint64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.reserved--
	sess.nextID++
	sess.stmts[sess.nextID] = st
	return sess.nextID
}

func (s *Server) prepare(sess *session, req *wire.Request) *wire.Response {
	if resp := s.reserveStmtSlot(sess); resp != nil {
		return resp
	}
	stmt, err := s.eng.Prepare(req.SQL)
	if err != nil {
		sess.releaseSlot()
		return &wire.Response{Err: err.Error()}
	}
	s.met.stmtsPrepared.Add(1)
	id := sess.commitStmt(&sessionStmt{stmt: stmt})
	return &wire.Response{StmtID: id}
}

func (sess *session) get(id uint64) (*sessionStmt, *wire.Response) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st, ok := sess.stmts[id]
	if !ok {
		return nil, &wire.Response{Err: fmt.Sprintf("server: unknown statement id %d", id)}
	}
	return st, nil
}

// executeStmt starts (or restarts) a cursor and returns the first batch.
func (s *Server) executeStmt(sess *session, req *wire.Request) *wire.Response {
	st, errResp := sess.get(req.StmtID)
	if errResp != nil {
		return errResp
	}
	st.closeCursor()
	qctx, cancel := context.WithCancel(sess.ctx)
	it, err := st.stmt.Query(qctx)
	if err != nil {
		cancel()
		return &wire.Response{StmtID: req.StmtID, Err: err.Error()}
	}
	cols := it.Columns()
	st.cur = &cursor{cancel: cancel, it: it, met: &s.met}
	resp := s.nextFrame(sess, st, req)
	resp.Columns = cols
	return resp
}

// executeDirect is the fused one-shot: prepare, execute and stream the
// first batch in a single round trip. If that batch ends the stream (or
// fails), the statement is freed before the response leaves and StmtID
// stays zero; otherwise the registered statement answers OpFetch and is
// auto-closed when its stream ends.
func (s *Server) executeDirect(sess *session, req *wire.Request) *wire.Response {
	s.met.directExecs.Add(1)
	if resp := s.reserveStmtSlot(sess); resp != nil {
		return resp
	}
	stmt, err := s.eng.Prepare(req.SQL)
	if err != nil {
		sess.releaseSlot()
		return &wire.Response{Err: err.Error()}
	}
	s.met.stmtsPrepared.Add(1)
	st := &sessionStmt{stmt: stmt, autoClose: true}
	id := sess.commitStmt(st)
	qctx, cancel := context.WithCancel(sess.ctx)
	it, err := stmt.Query(qctx)
	if err != nil {
		cancel()
		s.freeStmt(sess, id)
		return &wire.Response{Err: err.Error()}
	}
	cols := it.Columns()
	st.cur = &cursor{cancel: cancel, it: it, met: &s.met}
	fused := *req
	fused.StmtID = id
	resp := s.nextFrame(sess, st, &fused)
	resp.Columns = cols
	if resp.EOS || resp.Err != "" {
		resp.StmtID = 0 // nextFrame already freed the statement
	}
	return resp
}

// fetch returns the next batch of the statement's open cursor.
func (s *Server) fetch(sess *session, req *wire.Request) *wire.Response {
	st, errResp := sess.get(req.StmtID)
	if errResp != nil {
		return errResp
	}
	if st.cur == nil {
		return &wire.Response{StmtID: req.StmtID, Err: "server: no open cursor (Execute first)"}
	}
	return s.nextFrame(sess, st, req)
}

// freeStmt removes a statement from the session and closes it.
func (s *Server) freeStmt(sess *session, id uint64) {
	sess.mu.Lock()
	st, ok := sess.stmts[id]
	delete(sess.stmts, id)
	sess.mu.Unlock()
	if ok {
		st.closeCursor()
		st.stmt.Close()
		s.met.stmtsClosed.Add(1)
	}
}

// closeStmt frees a statement and its cursor.
func (s *Server) closeStmt(sess *session, req *wire.Request) *wire.Response {
	s.freeStmt(sess, req.StmtID)
	return &wire.Response{StmtID: req.StmtID}
}

// resetStmt abandons a statement's open cursor, keeping it prepared.
func (s *Server) resetStmt(sess *session, req *wire.Request) *wire.Response {
	st, errResp := sess.get(req.StmtID)
	if errResp != nil {
		return errResp
	}
	st.closeCursor()
	return &wire.Response{StmtID: req.StmtID}
}

// nextFrame pulls up to MaxRows rows from the cursor, carrying leftover
// iterator rows across frames, and marks EOS on the final frame (closing
// the cursor so the statement can be re-executed, and — for fused
// statements — freeing the statement itself).
func (s *Server) nextFrame(sess *session, st *sessionStmt, req *wire.Request) *wire.Response {
	resp := &wire.Response{StmtID: req.StmtID}
	batch, eos, err := st.cur.nextRows(req.MaxRows)
	switch {
	case err == io.EOF:
		resp.EOS = true
		st.closeCursor()
		if st.autoClose {
			s.freeStmt(sess, req.StmtID)
		}
	case err != nil:
		st.closeCursor()
		resp.Err = err.Error()
		if st.autoClose {
			s.freeStmt(sess, req.StmtID)
		}
	default:
		resp.Rows = batch
		if eos {
			resp.EOS = true
			st.closeCursor()
			if st.autoClose {
				s.freeStmt(sess, req.StmtID)
			}
		}
	}
	return resp
}
