package engine

import (
	"context"
	"errors"
	"io"
	"sync/atomic"

	"sdb/internal/sqlparser"
	"sdb/internal/types"
)

// ErrStmtClosed reports use of a prepared statement after its Close.
// Nothing closes a statement behind its holder's back: the server keeps no
// prepared statements, only open cursors.
var ErrStmtClosed = errors.New("prepared statement closed")

// RowIterator is a Volcano-style cursor over a query result. Rows arrive in
// batches (chunk granularity comes from the engine's parallel pool) instead
// of as one materialized slice, so the peak memory of a large scan is
// bounded by the batch size rather than the result size.
//
// NextBatch returns a non-empty batch, or (nil, io.EOF) once the stream is
// exhausted, or (nil, err) on failure — a batch is never paired with an
// error. Iterators are not safe for concurrent use.
type RowIterator interface {
	// Columns describes the output. Kinds are inferred from the first
	// batch, which Columns computes eagerly if needed.
	Columns() []ResultColumn
	NextBatch() ([]types.Row, error)
	// Close releases the iterator early; subsequent NextBatch calls
	// return io.EOF. Close is idempotent.
	Close() error
}

// PreparedStmt is the interface a prepared statement presents to callers
// that do not care where it executes: the in-process *Stmt and the network
// client's remote statement both implement it.
type PreparedStmt interface {
	Query(ctx context.Context) (RowIterator, error)
	Close() error
}

// Stmt is a parsed statement, prepared once and executable many times.
type Stmt struct {
	e    *Engine
	stmt sqlparser.Statement
	// closed flips once on Close; Query then refuses with ErrStmtClosed,
	// which keeps every holder honest about the statement's lifecycle.
	closed atomic.Bool
}

// Prepare parses one statement for repeated execution.
func (e *Engine) Prepare(src string) (*Stmt, error) {
	stmt, err := sqlparser.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Stmt{e: e, stmt: stmt}, nil
}

// PrepareStream is Prepare returning the executor-neutral interface: with
// ExecuteSQL it makes the engine a proxy.Executor.
func (e *Engine) PrepareStream(src string) (PreparedStmt, error) {
	return e.Prepare(src)
}

// Close releases the statement: later Query calls fail with
// ErrStmtClosed. Cursors already returned by Query are unaffected.
// Close is idempotent.
func (s *Stmt) Close() error {
	s.closed.Store(true)
	return nil
}

// Query executes the statement and returns a streaming cursor. SELECTs
// plan the full operator tree — every stage streams, blocking operators
// (hash-join build, aggregation state, sort buffers) retain only their
// bounded state — with ctx checked between batches at every operator.
// Non-SELECT statements execute eagerly and return their (small) result as
// a one-shot stream.
func (s *Stmt) Query(ctx context.Context) (RowIterator, error) {
	if s.closed.Load() {
		return nil, ErrStmtClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sel, ok := s.stmt.(*sqlparser.Select); ok {
		// Pin one catalog snapshot for the whole statement: every scan in
		// the tree reads that snapshot's immutable versions, so the
		// returned iterator executes lock-free and concurrent writers are
		// not starved by open cursors — even long-lived ones.
		qs := s.e.newQuerySpill()
		pl, err := s.e.planQuery(sel, s.e.PinSnapshot(), qs)
		if err != nil {
			qs.close()
			return nil, err
		}
		return &opIterator{
			ctx:  ctx,
			root: pl.root,
			cols: append([]ResultColumn{}, pl.cols...),
			qs:   qs,
		}, nil
	}
	res, err := s.e.Execute(s.stmt)
	if err != nil {
		return nil, err
	}
	return NewSliceIterator(res.Columns, res.Rows, s.e.batchRows()), nil
}

// QuerySQL is Prepare + Query in one call.
func (e *Engine) QuerySQL(ctx context.Context, src string) (RowIterator, error) {
	stmt, err := e.Prepare(src)
	if err != nil {
		return nil, err
	}
	return stmt.Query(ctx)
}

// maxBatchRows caps streamed batches so a single batch never approaches a
// materialized result even on wide pools.
const maxBatchRows = 8192

// batchRows is the row granularity of streamed batches: one pool chunk per
// worker, so a batch keeps every worker busy while bounding resident rows.
func (e *Engine) batchRows() int {
	b := e.pool.ChunkSize() * e.pool.Workers()
	if b > maxBatchRows {
		b = maxBatchRows
	}
	return b
}

// opIterator adapts an operator tree to the RowIterator interface, opening
// it lazily on the first batch and accounting peak resident rows at every
// batch boundary.
type opIterator struct {
	ctx  context.Context
	root operator
	cols []ResultColumn
	qs   *querySpill

	opened     bool
	inferred   bool
	done       bool
	err        error
	pending    []types.Row // batch computed early by Columns()
	stats      ExecStats
	stopCancel func() // de-registers the ctx-cancel spill cleanup
}

// Stats reports the execution-memory accounting accumulated so far.
func (it *opIterator) Stats() ExecStats {
	st := it.stats
	if it.qs != nil {
		st.BudgetRows = it.qs.budget.Limit()
		st.Spills = it.qs.sess.Spills()
		st.SpilledRows = it.qs.sess.SpilledRows()
		st.SpillFiles = it.qs.sess.Files()
		st.SpillParallelism = int(it.qs.maxActive.Load())
		st.PrefetchedBytes = it.qs.sess.ReadBytes()
		st.SpilledBytes = it.qs.spilledBytes.Load()
		st.ScanCols, st.TableCols = it.qs.scanCols, it.qs.tableCols
	}
	return st
}

// teardown releases the tree and every spill file. Idempotent; reached
// from Close, end-of-stream and execution errors. Context cancellation
// additionally removes the spill files via context.AfterFunc without
// waiting for the consumer (see produce) — qs.close is concurrency-safe,
// and operators mid-read survive the unlink until their next ctx check —
// so even a cancelled-and-abandoned cursor leaves no temp files behind.
func (it *opIterator) teardown() {
	if it.stopCancel != nil {
		it.stopCancel()
		it.stopCancel = nil
	}
	if it.root != nil {
		it.root.close()
	}
	it.qs.close()
}

func (it *opIterator) sampleResident(batchLen int) {
	res := it.root.resident() + batchLen
	if it.qs != nil {
		// Drain-time peaks inside blocking operators happen between the
		// iterator's samples; they latch into the query-wide mark.
		res = it.qs.peak.latch(res)
	}
	if res > it.stats.PeakResidentRows {
		it.stats.PeakResidentRows = res
	}
}

func (it *opIterator) Columns() []ResultColumn {
	if !it.inferred && !it.done && it.err == nil && it.pending == nil {
		// Compute (and buffer) the first batch so kinds are known.
		rows, err := it.produce()
		if err != nil {
			if err != io.EOF {
				it.err = err
			} else {
				it.done = true
			}
			it.teardown()
		} else {
			it.pending = rows
		}
	}
	return it.cols
}

func (it *opIterator) NextBatch() ([]types.Row, error) {
	if it.err != nil {
		return nil, it.err
	}
	if it.done {
		return nil, io.EOF
	}
	if it.pending != nil {
		rows := it.pending
		it.pending = nil
		return rows, nil
	}
	rows, err := it.produce()
	if err != nil {
		if err == io.EOF {
			it.done = true
		} else {
			it.err = err
		}
		it.teardown()
		return nil, err
	}
	return rows, nil
}

// produce pulls the next batch from the tree, honouring ctx.
func (it *opIterator) produce() ([]types.Row, error) {
	if err := it.ctx.Err(); err != nil {
		return nil, err
	}
	if !it.opened {
		// If the context dies while the tree blocks inside open/next (a
		// spilling build or sort drain), remove the spill files right away
		// rather than when the consumer gets around to Close: qs.close is
		// safe against concurrent file creation, and readers survive the
		// unlink until their next ctx check.
		if it.qs != nil {
			stop := context.AfterFunc(it.ctx, it.qs.close)
			it.stopCancel = func() { stop() }
		}
		if err := it.root.open(it.ctx); err != nil {
			it.root.close()
			return nil, err
		}
		it.opened = true
	}
	rows, err := it.root.next()
	if err != nil {
		if err == io.EOF {
			// Operators latch drain-time high-water marks, so even a query
			// whose blocking stages did all the work before the first (or
			// only) batch reports its true peak.
			it.sampleResident(0)
		}
		return nil, err
	}
	it.sampleResident(len(rows))
	if !it.inferred {
		inferKinds(it.cols, rows)
		it.inferred = true
	}
	return rows, nil
}

func (it *opIterator) Close() error {
	it.done = true
	it.pending = nil
	it.teardown()
	return nil
}

// sliceIterator serves an already-materialized row set in batches.
type sliceIterator struct {
	cols  []ResultColumn
	rows  []types.Row
	batch int
	pos   int
	done  bool
}

// NewSliceIterator wraps materialized rows as a RowIterator serving batches
// of at most batch rows (<= 0 means one batch with everything).
func NewSliceIterator(cols []ResultColumn, rows []types.Row, batch int) RowIterator {
	if batch <= 0 {
		batch = len(rows)
		if batch == 0 {
			batch = 1
		}
	}
	return &sliceIterator{cols: cols, rows: rows, batch: batch}
}

func (it *sliceIterator) Columns() []ResultColumn { return it.cols }

func (it *sliceIterator) NextBatch() ([]types.Row, error) {
	if it.done || it.pos >= len(it.rows) {
		return nil, io.EOF
	}
	hi := it.pos + it.batch
	if hi > len(it.rows) {
		hi = len(it.rows)
	}
	rows := it.rows[it.pos:hi]
	it.pos = hi
	return rows, nil
}

func (it *sliceIterator) Close() error {
	it.done = true
	it.rows = nil
	return nil
}

// Drain consumes an iterator into a materialized Result and closes it.
func Drain(it RowIterator) (*Result, error) {
	defer it.Close()
	res := &Result{Columns: it.Columns()}
	for {
		batch, err := it.NextBatch()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, batch...)
	}
}
