package proxy

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sdb/internal/engine"
	"sdb/internal/sqlparser"
)

// DirectQueryer is the one-request statement a server connection offers
// (server.Client.QueryDirect, the wire's OpExecuteDirect). The proxy does
// not look for it: every SELECT runs through Executor.PrepareStream, and a
// connection's prepared statement is that one request already. It stays
// declared because bench/ decorates it by name.
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
// re-parsing and token re-derivation. This is the only place a statement
// is prepared: over a server connection each execution sends the
// rewritten SQL as one request.
//
// INSERTs are parsed once but rewritten per execution: every execution
// draws fresh row ids, masks and nonces. CREATEs register keys at
// execution time, so a prepared CREATE can run at most once.
type Stmt struct {
	p    *Proxy
	kind stmtKind
	// prep records the one-time Parse/Rewrite cost, folded into each
	// execution's Stats.
	prep Stats

	// SELECT state. The plan and the executor statement of the rewritten
	// SQL (prep.RewrittenSQL) capture the keys of the tables the statement
	// reads at the recorded key-store version (the stamp of plan-cache
	// entries); a later CREATE, DROP or rotation triggers a transparent
	// re-derivation.
	sel     *sqlparser.Select
	plan    *selectPlan
	version uint64
	mu      sync.Mutex
	remote  engine.PreparedStmt
	// active is the statement's open cursor, if any. Re-execution closes
	// it first: an abandoned cursor must not hold an SP cursor slot or
	// spill files.
	active *Rows

	// INSERT / CREATE / DROP state.
	ins    *sqlparser.Insert
	create *sqlparser.CreateTable
	drop   *sqlparser.DropTable

	closed bool
}

// Prepare parses and rewrites one statement for repeated execution.
func (p *Proxy) Prepare(sql string) (*Stmt, error) {
	return p.PrepareContext(context.Background(), sql)
}

// PrepareContext is Prepare honouring ctx cancellation.
func (p *Proxy) PrepareContext(ctx context.Context, sql string) (*Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	parsed, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	s := &Stmt{p: p}
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

// prepareSelect (re)derives the rewritten SQL and decryption plan from the
// current key-store state and prepares the rewritten SQL at the executor,
// recording the key-store version it captured (read before any key: a
// racing change leaves the stamp stale, never the plan). It runs at
// Prepare time and again whenever a CREATE, DROP or rotation has
// invalidated what was captured. The rewrite + token derivation is served
// from the plan cache when the same canonical SQL was already derived
// under the current version (plancache.go).
func (s *Stmt) prepareSelect() error {
	t1 := time.Now()
	version := s.p.store.Version()
	key := s.sel.String()
	rewritten, plan, ok := s.p.cache.lookup(key, version)
	if !ok {
		rw := &rewriter{p: s.p}
		rws, pl, err := rw.rewriteSelect(s.sel, false)
		if err != nil {
			return err
		}
		rewritten, plan = rws.String(), pl
		s.p.cache.store(key, rewritten, plan, version)
	}
	s.prep.Rewrite = time.Since(t1)
	s.prep.RewrittenSQL = rewritten
	remote, err := s.p.exec.PrepareStream(rewritten)
	if err != nil {
		return err
	}
	s.mu.Lock()
	old := s.remote
	s.remote, s.plan, s.version = remote, plan, version
	s.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return nil
}

// IsQuery reports whether the statement returns a row stream (a SELECT).
func (s *Stmt) IsQuery() bool { return s.kind == kindSelect }

// Close releases the statement and closes its open cursor, if any.
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
// cancelling it frees the server-side cursor.
func (s *Stmt) QueryContext(ctx context.Context) (*Rows, error) {
	if s.kind != kindSelect {
		return nil, fmt.Errorf("proxy: statement is not a SELECT (use ExecContext)")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, engine.ErrStmtClosed
	}
	active, tables := s.active, s.plan.tables
	s.active = nil
	s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if active != nil {
		active.Close()
	}
	// Hold the read tables' key locks from the stamp check until Query has
	// pinned the SP's snapshot, so no rotation commits in between and the
	// plan's tokens match the shares the snapshot holds. A stale stamp
	// (CREATE, DROP or rotation since the derivation) re-derives first.
	unlock, err := s.p.store.lock(ctx, false, tables...)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	stale := s.version != s.p.store.Version()
	s.mu.Unlock()
	if stale {
		if err := s.prepareSelect(); err != nil {
			unlock()
			return nil, err
		}
	}
	s.mu.Lock()
	remote, plan := s.remote, s.plan
	s.mu.Unlock()

	// The Query call runs the blocking server stages (scan, filter,
	// aggregation — or, remotely, the round trip carrying the first
	// batch), so it is server-side cost.
	st := s.prep
	t0 := time.Now()
	it, err := remote.Query(ctx)
	unlock()
	if err != nil {
		return nil, err
	}
	st.Server = time.Since(t0)
	rows, err := newRows(ctx, s.p, plan, it, st, nil)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.active = rows
	s.mu.Unlock()
	return rows, nil
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
// returned cursor also closes the one-shot statement.
func (p *Proxy) QueryContext(ctx context.Context, sql string) (*Rows, error) {
	stmt, err := p.PrepareContext(ctx, sql)
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
	stmt, err := p.PrepareContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	defer stmt.Close()
	return stmt.ExecContext(ctx)
}
