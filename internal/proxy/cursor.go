package proxy

import (
	"context"
	"fmt"
	"io"
	"time"

	"sdb/internal/engine"
	"sdb/internal/types"
)

// Rows is a decrypting cursor over a streamed encrypted result. When the
// current batch drains, Next fetches the next encrypted batch from the
// executor on the caller's goroutine and decrypts it on the proxy's
// parallel pool; nothing is fetched until the caller asks for it.
//
// Plans with deferred post-processing (client-side ORDER BY / LIMIT over
// encrypted sort keys) cannot stream: the whole result is drained,
// decrypted, sorted and then served from memory.
//
// Rows is not safe for concurrent use. Always Close it (Close after
// exhaustion is cheap and idempotent).
type Rows struct {
	p    *Proxy
	plan *selectPlan
	kern *rowKernel // the plan resolved for this execution
	cols []Column
	keep []int // plan.out indices of user-visible columns

	ctx    context.Context
	cancel context.CancelFunc
	it     engine.RowIterator

	cur    []types.Row
	pos    int
	done   bool
	closed bool
	err    error

	// ownStmt is the backing one-shot statement of Proxy.QueryContext,
	// closed together with the cursor.
	ownStmt *Stmt

	stats     Stats
	serverNS  int64
	decryptNS int64
	nRows     int64
}

// newRows builds a cursor over the encrypted iterator per the select plan.
func newRows(ctx context.Context, p *Proxy, plan *selectPlan, it engine.RowIterator, prep Stats, ownStmt *Stmt) (*Rows, error) {
	qctx, cancel := context.WithCancel(ctx)
	r := &Rows{
		p:       p,
		plan:    plan,
		kern:    p.newRowKernel(plan),
		ctx:     qctx,
		cancel:  cancel,
		it:      it,
		ownStmt: ownStmt,
		stats:   prep,
	}
	// Columns may compute the first batch (kind inference), which is
	// server-side work.
	t0 := time.Now()
	cols := it.Columns()
	r.serverNS += time.Since(t0).Nanoseconds()
	if len(cols) != len(plan.out) {
		cancel()
		it.Close()
		return nil, fmt.Errorf("proxy: server returned %d columns, plan expects %d", len(cols), len(plan.out))
	}
	for c := range plan.out {
		if plan.out[c].hidden {
			continue
		}
		r.keep = append(r.keep, c)
		oc := plan.out[c]
		r.cols = append(r.cols, Column{Name: oc.name, Kind: oc.kind, Scale: oc.scale})
	}

	if len(plan.postOrder) > 0 || plan.postLimit != nil {
		if err := r.materialize(); err != nil {
			cancel()
			return nil, err
		}
	}
	return r, nil
}

// fetch pulls the next encrypted batch from the executor and decrypts it,
// checking the query context first. It returns io.EOF after the last
// batch.
func (r *Rows) fetch() ([]types.Row, error) {
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	batch, err := r.it.NextBatch()
	r.serverNS += time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	rows, err := r.kern.decryptBatch(batch)
	r.decryptNS += time.Since(t1).Nanoseconds()
	return rows, err
}

// materialize drains the whole stream through the batch kernel, then
// applies deferred ordering and the post limit (the blocking plan shapes)
// before the hidden columns — the sort keys among them — are stripped.
func (r *Rows) materialize() error {
	defer r.it.Close()
	var rows []types.Row
	for {
		dec, err := r.fetch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		rows = append(rows, dec...)
	}
	r.cur = r.visible(r.plan.sortAndLimit(rows))
	r.done = true
	return nil
}

// visible strips the hidden columns (row ids, deferred order keys, AVG
// counts) from decrypted plan-width rows, in place.
func (r *Rows) visible(rows []types.Row) []types.Row {
	if len(r.keep) == len(r.plan.out) {
		return rows
	}
	for i, full := range rows {
		out := full[:0]
		for _, c := range r.keep {
			out = append(out, full[c])
		}
		clear(full[len(out):]) // drop the row-id shares with the columns
		rows[i] = out
	}
	return rows
}

// Columns describes the user-visible output columns.
func (r *Rows) Columns() []Column { return r.cols }

// Next returns the next decrypted row, or io.EOF after the last one.
// Errors are sticky.
func (r *Rows) Next() (types.Row, error) {
	for {
		if r.err != nil {
			return nil, r.err
		}
		if r.pos < len(r.cur) {
			row := r.cur[r.pos]
			r.pos++
			r.nRows++
			return row, nil
		}
		if r.done {
			return nil, io.EOF
		}
		rows, err := r.fetch()
		if err == io.EOF {
			r.done = true
			continue
		}
		if err != nil {
			r.err = err
			return nil, err
		}
		r.cur, r.pos = r.visible(rows), 0
	}
}

// NextBatch returns the remaining decrypted rows of the current batch (at
// least one row), fetching the next batch when drained. It returns io.EOF
// after the last batch.
func (r *Rows) NextBatch() ([]types.Row, error) {
	if _, err := r.peek(); err != nil {
		return nil, err
	}
	rows := r.cur[r.pos:]
	r.pos = len(r.cur)
	r.nRows += int64(len(rows))
	return rows, nil
}

// peek positions the cursor on the next available row without consuming it.
func (r *Rows) peek() (types.Row, error) {
	row, err := r.Next()
	if err != nil {
		return nil, err
	}
	r.pos--
	r.nRows--
	return row, nil
}

// Stats returns the cursor's cost breakdown so far: the prepare-time parse
// and rewrite costs plus the accumulated server wait and decrypt times.
// Both are spent on the caller's goroutine, so they add up to the time
// Next spent fetching.
func (r *Rows) Stats() Stats {
	st := r.stats
	st.Server += time.Duration(r.serverNS)
	st.Decrypt += time.Duration(r.decryptNS)
	return st
}

// Close releases the cursor. It closes the executor's iterator before
// returning, so the server-side teardown of an abandoned stream (the
// OpClose that frees its cursor) is sequenced ahead of any re-execution of
// the same prepared statement.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.done = true
	r.cur = nil
	r.cancel()
	r.it.Close()
	if r.ownStmt != nil {
		r.ownStmt.Close()
	}
	return nil
}

// drain consumes the whole cursor into a materialized Result.
func (r *Rows) drain() (*Result, error) {
	defer r.Close()
	res := &Result{Columns: r.cols}
	for {
		batch, err := r.NextBatch()
		if err == io.EOF {
			res.Stats = r.Stats()
			return res, nil
		}
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, batch...)
	}
}
