// Volcano-style streaming operator tree. Every relational stage of a SELECT
// — scan, filter, project, join, aggregation, DISTINCT, ORDER BY, LIMIT —
// is an operator with the same batched cursor interface, composed by the
// planner in plan.go. Batches flow up the tree one at a time, so the peak
// resident memory of a pipeline is the sum of what each operator retains
// (a hash-join build side, an aggregation state table, a top-K heap) plus
// one in-flight batch per stage — never a materialized intermediate result.
package engine

import (
	"context"
	"io"
	"math/big"
	"sync/atomic"

	"sdb/internal/parallel"
	"sdb/internal/storage"
	"sdb/internal/types"
)

// operator is one node of the streaming execution tree.
//
// The contract mirrors RowIterator: open prepares the subtree (blocking
// operators drain their build inputs here), next returns a non-empty batch
// or (nil, io.EOF), never a batch paired with an error, and close releases
// retained state and is idempotent. Context cancellation is checked between
// every batch by every operator.
type operator interface {
	// columns describes the operator's output schema.
	columns() []relCol
	open(ctx context.Context) error
	next() ([]types.Row, error)
	close() error
	// resident reports the rows this subtree currently retains — build
	// tables, aggregation state, sort buffers, merge look-ahead and
	// pending output. It is a point-in-time count: blocking operators
	// additionally latch their drain-time peaks into the query-wide
	// high-water mark (querySpill.peak), so peaks between the iterator's
	// batch-boundary samples are never lost, and sequential blocking
	// phases are not double-counted against each other.
	resident() int
}

// residentPeak latches a subtree's high-water resident-row count. The
// latch is lock-free because spilled partition workers running
// concurrently on the worker pool all latch their drain peaks into the
// same query-wide mark.
type residentPeak struct{ peak atomic.Int64 }

// latch records cur if it is a new maximum and returns the maximum.
func (rp *residentPeak) latch(cur int) int {
	c := int64(cur)
	for {
		old := rp.peak.Load()
		if c <= old {
			return int(old)
		}
		if rp.peak.CompareAndSwap(old, c) {
			return cur
		}
	}
}

// rowWindow serves a materialized row slice in batch-sized windows,
// trimming rows to width columns when width > 0 (hidden sort keys).
type rowWindow struct {
	rows  []types.Row
	pos   int
	batch int
	width int
}

func (w *rowWindow) next() ([]types.Row, error) {
	if w.pos >= len(w.rows) {
		return nil, io.EOF
	}
	hi := w.pos + w.batch
	if hi > len(w.rows) {
		hi = len(w.rows)
	}
	out := w.rows[w.pos:hi]
	if w.width > 0 {
		out = make([]types.Row, hi-w.pos)
		for i := range out {
			out[i] = w.rows[w.pos+i][:w.width]
		}
	}
	w.pos = hi
	return out, nil
}

func (w *rowWindow) remaining() int { return len(w.rows) - w.pos }

// ExecStats reports execution-memory accounting for a streamed query.
type ExecStats struct {
	// PeakResidentRows is the maximum, over all batch boundaries, of the
	// rows retained across the operator tree plus the in-flight batch. For
	// a pipelined plan it is bounded by blocking-state sizes (hash-join
	// build side, aggregation groups, top-K heap) plus O(batch) per stage,
	// independent of intermediate result cardinality. Under a memory
	// budget it is additionally bounded by BudgetRows: blocking operators
	// spill instead of crossing it.
	PeakResidentRows int
	// BudgetRows is the query's resident-row budget (0 = unlimited).
	BudgetRows int
	// Spills counts budget-overflow events — a blocking operator moving
	// its state to disk. 0 means the query ran fully in memory.
	Spills int
	// SpilledRows counts rows written to spill files (partitioning,
	// re-partitioning and run generation all count; a row can be written
	// more than once).
	SpilledRows int
	// SpillFiles counts the temp files the query created; all of them are
	// removed by the time the iterator closes.
	SpillFiles int
	// SpillParallelism is the maximum number of spilled-work tasks —
	// Grace join partition pairs, aggregation partition merges, run
	// pre-merge groups — observed in flight at once. 0 when the query
	// never scheduled spilled work; 1 when it all ran serially.
	SpillParallelism int
	// PrefetchedBytes counts bytes read back from spill files. Nothing is
	// read ahead any more; the field keeps its name because the benchmark
	// reports it as spill.prefetched_bytes.
	PrefetchedBytes int64
	// SpilledBytes counts bytes written to spill files. The budget is
	// counted in rows, so narrower rows leave Spills, SpilledRows and
	// SpillFiles where they were and show here.
	SpilledBytes int64
	// ScanCols and TableCols sum, over the statement's table scans, the
	// columns the scan materialises (hidden row-id/helper columns included)
	// and the columns the scanned table has. They are equal only when
	// nothing was pruned (every column named, or the planner pass off).
	ScanCols, TableCols int
}

// ---- scan ----------------------------------------------------------------

// scanOp streams one pinned table version in batches. The version is
// immutable — writers publish successors by atomic pointer swap, never by
// mutating published slices — so the scan streams lock-free and is
// unaffected by any write that commits after the statement pinned its
// snapshot.
//
// The scan's schema is the table's narrowed to the columns the planner
// keeps (see referencedColumns): storage is columnar, so a column nobody
// references is never touched, and every operator above binds by name
// against this schema and gets narrower with it.
type scanOp struct {
	schema []relCol
	// data holds the kept stored columns; rowEnc/helper are nil unless the
	// hidden row-id / helper column is kept.
	data   [][]types.Value
	rowEnc []*big.Int
	helper []*big.Int
	nrows  int
	batch  int

	ctx context.Context
	pos int
}

// newScanOp scans the columns keep selects out of schema — the tableSchema
// of the table whose pinned version v is (from the statement's catalog
// snapshot).
func newScanOp(schema []relCol, v *storage.Version, batch int, keep func(relCol) bool) *scanOp {
	op := &scanOp{nrows: v.NumRows(), batch: batch}
	for i, c := range schema {
		if !keep(c) {
			continue
		}
		op.schema = append(op.schema, c)
		switch { // tableSchema order: stored columns, row id, helper
		case i < len(v.Cols):
			op.data = append(op.data, v.Cols[i])
		case i == len(v.Cols):
			op.rowEnc = v.RowEnc
		default:
			op.helper = v.Helper
		}
	}
	return op
}

// versionRows materialises rows [lo, hi) of a pinned version: the given
// stored-column vectors in order, then the row-id and helper shares for
// whichever of rowEnc and helper is non-nil.
func versionRows(data [][]types.Value, rowEnc, helper []*big.Int, lo, hi int) []types.Row {
	width := len(data)
	if rowEnc != nil {
		width++
	}
	if helper != nil {
		width++
	}
	out := make([]types.Row, hi-lo)
	for i := range out {
		r := lo + i
		row := make(types.Row, len(data), width)
		for c, col := range data {
			row[c] = col[r]
		}
		if rowEnc != nil {
			row = append(row, types.NewShare(rowEnc[r]))
		}
		if helper != nil {
			row = append(row, types.NewShare(helper[r]))
		}
		out[i] = row
	}
	return out
}

func (op *scanOp) columns() []relCol { return op.schema }

func (op *scanOp) open(ctx context.Context) error {
	op.ctx = ctx
	return nil
}

func (op *scanOp) next() ([]types.Row, error) {
	if err := op.ctx.Err(); err != nil {
		return nil, err
	}
	if op.pos >= op.nrows {
		return nil, io.EOF
	}
	hi := op.pos + op.batch
	if hi > op.nrows {
		hi = op.nrows
	}
	out := versionRows(op.data, op.rowEnc, op.helper, op.pos, hi)
	op.pos = hi
	return out, nil
}

func (op *scanOp) close() error {
	op.pos = op.nrows
	op.data, op.rowEnc, op.helper = nil, nil, nil
	return nil
}

func (op *scanOp) resident() int { return 0 }

// ---- values --------------------------------------------------------------

// valuesOp serves a fixed row set (the single empty row of a FROM-less
// SELECT).
type valuesOp struct {
	schema []relCol
	rows   []types.Row
	done   bool
}

func (op *valuesOp) columns() []relCol          { return op.schema }
func (op *valuesOp) open(context.Context) error { return nil }
func (op *valuesOp) close() error               { op.done = true; return nil }
func (op *valuesOp) resident() int              { return 0 }
func (op *valuesOp) next() ([]types.Row, error) {
	if op.done || len(op.rows) == 0 {
		return nil, io.EOF
	}
	op.done = true
	return op.rows, nil
}

// ---- rename --------------------------------------------------------------

// renameOp re-qualifies a subtree's output schema (FROM-subquery aliases);
// batches pass through untouched.
type renameOp struct {
	child  operator
	schema []relCol
}

func (op *renameOp) columns() []relCol              { return op.schema }
func (op *renameOp) open(ctx context.Context) error { return op.child.open(ctx) }
func (op *renameOp) next() ([]types.Row, error)     { return op.child.next() }
func (op *renameOp) close() error                   { return op.child.close() }
func (op *renameOp) resident() int                  { return op.child.resident() }

// ---- filter --------------------------------------------------------------

// filterOp drops rows failing the predicate, evaluated in chunks on the
// predicate's pool (the workers for sdb_sign over sensitive columns); the
// compaction preserves row order.
type filterOp struct {
	pool  *parallel.Pool
	child operator
	pred  compiledExpr
	ctx   context.Context
}

func (op *filterOp) columns() []relCol { return op.child.columns() }

func (op *filterOp) open(ctx context.Context) error {
	op.ctx = ctx
	return op.child.open(ctx)
}

func (op *filterOp) next() ([]types.Row, error) {
	for {
		if err := op.ctx.Err(); err != nil {
			return nil, err
		}
		batch, err := op.child.next()
		if err != nil {
			return nil, err
		}
		keep, err := parallel.Map(op.pool, len(batch), func(i int) (bool, error) {
			ok, err := op.pred(batch[i])
			if err != nil {
				return false, err
			}
			return ok.Bool(), nil
		})
		if err != nil {
			return nil, err
		}
		kept := batch[:0:0]
		for i, row := range batch {
			if keep[i] {
				kept = append(kept, row)
			}
		}
		if len(kept) > 0 {
			return kept, nil
		}
	}
}

func (op *filterOp) close() error  { return op.child.close() }
func (op *filterOp) resident() int { return op.child.resident() }

// ---- project -------------------------------------------------------------

// projectOp evaluates the select list (plus any hidden ORDER BY key
// expressions appended by the planner) over each batch, in chunks. Every
// SDB UDF in the select list runs here, as one row program shared by the
// chunk workers; a select list without one runs on the calling goroutine.
type projectOp struct {
	pool   *parallel.Pool
	child  operator
	set    *exprSet
	schema []relCol
	ctx    context.Context
}

func (op *projectOp) columns() []relCol { return op.schema }

func (op *projectOp) open(ctx context.Context) error {
	op.ctx = ctx
	return op.child.open(ctx)
}

func (op *projectOp) next() ([]types.Row, error) {
	if err := op.ctx.Err(); err != nil {
		return nil, err
	}
	batch, err := op.child.next()
	if err != nil {
		return nil, err
	}
	out := make([]types.Row, len(batch))
	err = op.pool.ForEachChunk(len(batch), func(_, lo, hi int) error {
		fr := op.set.frame()
		defer op.set.release(fr)
		for i := lo; i < hi; i++ {
			out[i] = make(types.Row, len(op.set.items))
			if err := op.set.eval(fr, batch[i], out[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (op *projectOp) close() error  { return op.child.close() }
func (op *projectOp) resident() int { return op.child.resident() }

// ---- distinct ------------------------------------------------------------

// distinctOp streams the first occurrence of every distinct row, keying
// each row as it passes (DISTINCT runs no secure arithmetic). Retained
// state is the key set, O(#distinct rows).
type distinctOp struct {
	child operator
	// hint pre-sizes the key set (planner distinct-row estimate; 0 =
	// unknown).
	hint int
	seen map[string]bool
	ctx  context.Context
}

func (op *distinctOp) columns() []relCol { return op.child.columns() }

func (op *distinctOp) open(ctx context.Context) error {
	op.ctx = ctx
	op.seen = make(map[string]bool, op.hint)
	return op.child.open(ctx)
}

func (op *distinctOp) next() ([]types.Row, error) {
	for {
		if err := op.ctx.Err(); err != nil {
			return nil, err
		}
		batch, err := op.child.next()
		if err != nil {
			return nil, err
		}
		uniq := batch[:0:0]
		for _, row := range batch {
			if k := rowKey(row); !op.seen[k] {
				op.seen[k] = true
				uniq = append(uniq, row)
			}
		}
		if len(uniq) > 0 {
			return uniq, nil
		}
	}
}

func (op *distinctOp) close() error {
	op.seen = nil
	return op.child.close()
}

func (op *distinctOp) resident() int { return len(op.seen) + op.child.resident() }

// ---- limit ---------------------------------------------------------------

// limitOp stops pulling from its child once the limit is reached — upstream
// stages never compute rows past it.
type limitOp struct {
	child     operator
	remaining int64
	ctx       context.Context
}

func (op *limitOp) columns() []relCol { return op.child.columns() }

func (op *limitOp) open(ctx context.Context) error {
	op.ctx = ctx
	return op.child.open(ctx)
}

func (op *limitOp) next() ([]types.Row, error) {
	if err := op.ctx.Err(); err != nil {
		return nil, err
	}
	if op.remaining <= 0 {
		return nil, io.EOF
	}
	batch, err := op.child.next()
	if err != nil {
		return nil, err
	}
	if int64(len(batch)) > op.remaining {
		batch = batch[:op.remaining]
	}
	op.remaining -= int64(len(batch))
	return batch, nil
}

func (op *limitOp) close() error  { return op.child.close() }
func (op *limitOp) resident() int { return op.child.resident() }

// drainOperator opens the tree, pulls every batch and closes it — the
// materialized execution path is exactly "drain the tree".
func drainOperator(ctx context.Context, root operator) ([]types.Row, error) {
	if err := root.open(ctx); err != nil {
		root.close()
		return nil, err
	}
	defer root.close()
	var rows []types.Row
	for {
		batch, err := root.next()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, batch...)
	}
}
