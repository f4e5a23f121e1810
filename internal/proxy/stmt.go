package proxy

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sdb/internal/engine"
	"sdb/internal/sqlparser"
)

// DirectQueryer is an Executor that can additionally run a one-shot
// statement fused — prepare, execute and stream teardown collapsed into a
// single exchange (the wire protocol's OpExecuteDirect). The proxy routes
// one-shot SELECTs through it whenever the executor offers it (a server
// connection does, the in-process engine has no round trips to save),
// cutting a remote one-shot from three round trips to one; prepared
// statements keep the unfused path, where the server-side prepare
// amortizes across executions.
type DirectQueryer interface {
	QueryDirect(ctx context.Context, sql string) (engine.RowIterator, error)
}

type stmtKind int

const (
	kindSelect stmtKind = iota
	kindInsert
	kindCreate
	kindDrop
)

// Stmt is a prepared statement at the proxy. For SELECTs, Prepare does the
// expensive client-side work once — parsing, query rewriting, and the
// token/key derivations the rewrite embeds — so repeated executions skip
// re-parsing and token re-derivation. The rewritten statement is also
// prepared server-side, so re-execution skips the server's parse as well.
//
// INSERTs are parsed once but rewritten per execution: every execution
// draws fresh row ids, masks and nonces. CREATEs register keys at
// execution time, so a prepared CREATE can run at most once.
type Stmt struct {
	p    *Proxy
	src  string
	kind stmtKind
	// prep records the one-time Parse/Rewrite cost, folded into each
	// execution's Stats.
	prep Stats

	// SELECT state. The rewritten SQL and plan capture key-store state
	// (tokens, decryption keys) at the recorded rotation generation; a
	// later key rotation triggers a transparent re-derivation.
	sel       *sqlparser.Select
	rewritten string
	plan      *selectPlan
	gen       uint64
	// remote is the server-side prepared statement (nil for a one-shot
	// that runs fused). Guarded by mu: a stream cancelled server-side
	// frees the remote statement, and the next QueryContext re-prepares
	// it.
	mu     sync.Mutex
	remote engine.PreparedStmt
	// active is the statement's open cursor, if any: the remote protocol
	// has one cursor per statement, so re-execution closes it first.
	active *Rows

	// INSERT / CREATE / DROP state.
	ins    *sqlparser.Insert
	create *sqlparser.CreateTable
	drop   *sqlparser.DropTable

	// oneShot marks a statement created for exactly one execution
	// (Proxy.QueryContext / Proxy.ExecContext): SELECTs then skip the
	// server-side prepare and run fused via DirectQueryer when the
	// executor offers it.
	oneShot bool

	closed bool
}

// Prepare parses and rewrites one statement for repeated execution.
func (p *Proxy) Prepare(sql string) (*Stmt, error) {
	return p.PrepareContext(context.Background(), sql)
}

// PrepareContext is Prepare honouring ctx cancellation.
func (p *Proxy) PrepareContext(ctx context.Context, sql string) (*Stmt, error) {
	return p.prepareContext(ctx, sql, false)
}

func (p *Proxy) prepareContext(ctx context.Context, sql string, oneShot bool) (*Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	parsed, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	s := &Stmt{p: p, src: sql, oneShot: oneShot}
	s.prep.Parse = time.Since(t0)

	switch st := parsed.(type) {
	case *sqlparser.Select:
		s.kind = kindSelect
		s.sel = st
		if err := s.prepareSelect(); err != nil {
			return nil, err
		}
	case *sqlparser.Insert:
		s.kind = kindInsert
		s.ins = st
	case *sqlparser.CreateTable:
		s.kind = kindCreate
		s.create = st
	case *sqlparser.DropTable:
		s.kind = kindDrop
		s.drop = st
	default:
		return nil, fmt.Errorf("proxy: unsupported statement %T", parsed)
	}
	return s, nil
}

// prepareSelect (re)derives the rewritten SQL, decryption plan and
// server-side statement from the current key-store state, recording the
// rotation generation it captured. It runs at Prepare time and again
// whenever a key rotation has invalidated the captured tokens. The
// rewrite + token derivation is served from the proxy's plan cache when a
// statement with the same canonical SQL was already derived under the
// current rotation and catalog generations (plancache.go).
func (s *Stmt) prepareSelect() error {
	t1 := time.Now()
	gen := s.p.rotGen.Load()
	catGen := s.p.catGen.Load()
	key := s.sel.String()
	rewritten, plan, ok := s.p.planCacheLookup(key, gen, catGen)
	if !ok {
		rw := &rewriter{p: s.p}
		rws, pl, err := rw.rewriteSelect(s.sel, false)
		if err != nil {
			return err
		}
		rewritten, plan = rws.String(), pl
		s.p.planCacheStore(key, rewritten, plan, gen, catGen)
	}
	s.mu.Lock()
	if s.remote != nil {
		s.remote.Close()
		s.remote = nil
	}
	s.rewritten = rewritten
	s.plan = plan
	s.gen = gen
	s.mu.Unlock()
	s.prep.Rewrite = time.Since(t1)
	s.prep.RewrittenSQL = s.rewritten
	if _, fused := s.directQueryer(); fused {
		// The fused op carries the SQL itself; a server-side prepare
		// here would just re-add the round trip the fusion removes.
		return nil
	}
	_, err := s.prepareRemote()
	return err
}

// directQueryer returns the executor's fused op when the statement is a
// one-shot and the executor offers it.
func (s *Stmt) directQueryer() (DirectQueryer, bool) {
	if !s.oneShot {
		return nil, false
	}
	dq, ok := s.p.exec.(DirectQueryer)
	return dq, ok
}

// prepareRemote prepares the rewritten statement at the executor.
func (s *Stmt) prepareRemote() (engine.PreparedStmt, error) {
	remote, err := s.p.exec.PrepareStream(s.rewritten)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.remote = remote
	s.mu.Unlock()
	return remote, nil
}

// IsQuery reports whether the statement returns a row stream (a SELECT).
func (s *Stmt) IsQuery() bool { return s.kind == kindSelect }

// SQL returns the statement's original source text.
func (s *Stmt) SQL() string { return s.src }

// Close releases the statement, closing any open cursor and freeing its
// server-side session slot.
func (s *Stmt) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	remote := s.remote
	s.remote = nil
	active := s.active
	s.active = nil
	s.mu.Unlock()
	if active != nil {
		active.Close()
	}
	if remote != nil {
		return remote.Close()
	}
	return nil
}

// QueryContext executes a prepared SELECT, returning a decrypting cursor
// over the streamed result. The ctx is checked between row batches;
// cancelling it tears the server-side cursor and statement down (the
// statement is re-prepared transparently on the next QueryContext).
func (s *Stmt) QueryContext(ctx context.Context) (*Rows, error) {
	if s.kind != kindSelect {
		return nil, fmt.Errorf("proxy: statement is not a SELECT (use ExecContext)")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, engine.ErrStmtClosed
	}
	active := s.active
	s.active = nil
	stale := s.gen != s.p.rotGen.Load()
	s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The protocol has one cursor per statement: close (and join) any
	// previous open cursor, or its fetch loop would steal batches from
	// the new stream.
	if active != nil {
		active.Close()
	}
	// A key rotation since Prepare invalidated the captured tokens and
	// decryption keys; re-derive them before touching re-keyed shares.
	if stale {
		if err := s.prepareSelect(); err != nil {
			return nil, err
		}
	}

	st := s.prep
	it, serverTime, err := s.queryEncrypted(ctx)
	if err != nil {
		return nil, err
	}
	st.Server = serverTime
	rows, err := newRows(ctx, s.p, s.plan, it, st, nil)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.active = rows
	s.mu.Unlock()
	return rows, nil
}

// queryEncrypted opens the encrypted row stream at the executor: fused for
// a one-shot statement when the executor offers it, else a cursor of the
// server-side prepared statement.
func (s *Stmt) queryEncrypted(ctx context.Context) (engine.RowIterator, time.Duration, error) {
	if dq, fused := s.directQueryer(); fused {
		t0 := time.Now()
		it, err := dq.QueryDirect(ctx, s.rewritten)
		if err != nil {
			return nil, 0, err
		}
		return it, time.Since(t0), nil
	}

	s.mu.Lock()
	remote := s.remote
	s.mu.Unlock()
	if remote == nil {
		var err error
		if remote, err = s.prepareRemote(); err != nil {
			return nil, 0, err
		}
	}
	// The Query call runs the blocking server stages (scan, filter,
	// aggregation — or, remotely, the Execute round trip carrying the
	// first batch), so it is server-side cost.
	t0 := time.Now()
	it, err := remote.Query(ctx)
	if errors.Is(err, engine.ErrStmtClosed) {
		// A cancelled stream freed the server-side statement; re-prepare
		// once and retry (starting a SELECT is idempotent).
		if remote, err = s.prepareRemote(); err != nil {
			return nil, 0, err
		}
		it, err = remote.Query(ctx)
	}
	if err != nil {
		return nil, 0, err
	}
	return it, time.Since(t0), nil
}

// ExecContext executes the statement and materializes the outcome. SELECTs
// drain their cursor; INSERTs re-encrypt and upload; CREATEs register keys
// and forward the rewritten DDL.
func (s *Stmt) ExecContext(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch s.kind {
	case kindSelect:
		rows, err := s.QueryContext(ctx)
		if err != nil {
			return nil, err
		}
		return rows.drain()
	case kindInsert:
		return s.p.execInsert(ctx, s.ins, s.prep)
	case kindCreate:
		return s.p.execCreate(ctx, s.create, s.prep)
	case kindDrop:
		return s.p.execDrop(ctx, s.drop, s.prep)
	default:
		return nil, fmt.Errorf("proxy: unsupported statement kind %d", s.kind)
	}
}

// QueryContext prepares and executes a SELECT in one call; closing the
// returned cursor also closes the one-shot statement. Against an executor
// with the fused direct op (a v2 server connection), the whole remote
// statement costs one round trip.
func (p *Proxy) QueryContext(ctx context.Context, sql string) (*Rows, error) {
	stmt, err := p.prepareContext(ctx, sql, true)
	if err != nil {
		return nil, err
	}
	rows, err := stmt.QueryContext(ctx)
	if err != nil {
		stmt.Close()
		return nil, err
	}
	rows.ownStmt = stmt
	return rows, nil
}

// ExecContext parses, rewrites, executes and decrypts one SQL statement,
// honouring ctx. It is Prepare + ExecContext + Close in one call.
func (p *Proxy) ExecContext(ctx context.Context, sql string) (*Result, error) {
	stmt, err := p.prepareContext(ctx, sql, true)
	if err != nil {
		return nil, err
	}
	defer stmt.Close()
	return stmt.ExecContext(ctx)
}
