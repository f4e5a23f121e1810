package proxy

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"sdb/internal/engine"
	"sdb/internal/types"
)

// Rows is a decrypting cursor over a streamed encrypted result. A fetch
// goroutine pulls the next encrypted batch from the executor while the
// caller's Next drains the current one, and each batch is decrypted on the
// proxy's parallel pool — so chunk decryption is pipelined with the next
// batch being in flight.
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
	pipe   chan fetched // nil in materialized mode

	cur    []types.Row
	pos    int
	done   bool
	closed bool
	err    error

	// ownStmt is the backing one-shot statement of Proxy.QueryContext,
	// closed together with the cursor.
	ownStmt *Stmt

	stats     Stats
	serverNS  atomic.Int64
	decryptNS int64
	nRows     int64
}

type fetched struct {
	rows []types.Row
	err  error
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
	r.serverNS.Add(time.Since(t0).Nanoseconds())
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
		return r, nil
	}

	r.pipe = make(chan fetched, 1)
	go r.fetchLoop()
	return r, nil
}

// fetchLoop streams encrypted batches into the pipe until EOS, error or
// cancellation. It owns the iterator: nobody else touches it once the
// loop runs, and the loop closes it on the way out.
func (r *Rows) fetchLoop() {
	defer close(r.pipe)
	for {
		t0 := time.Now()
		rows, err := r.it.NextBatch()
		r.serverNS.Add(time.Since(t0).Nanoseconds())
		select {
		case r.pipe <- fetched{rows: rows, err: err}:
		case <-r.ctx.Done():
			r.it.Close()
			return
		}
		if err != nil {
			r.it.Close()
			return
		}
	}
}

// materialize drains the whole stream through the batch kernel, then
// applies deferred ordering and the post limit (the blocking plan shapes)
// before the hidden columns — the sort keys among them — are stripped.
func (r *Rows) materialize() error {
	defer r.it.Close()
	var rows []types.Row
	for {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		batch, err := r.it.NextBatch()
		r.serverNS.Add(time.Since(t0).Nanoseconds())
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		t1 := time.Now()
		dec, err := r.kern.decryptBatch(batch)
		r.decryptNS += time.Since(t1).Nanoseconds()
		if err != nil {
			return err
		}
		rows = append(rows, dec...)
	}
	r.cur = r.visible(r.plan.sortAndLimit(rows))
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
		if r.done || r.pipe == nil {
			r.done = true
			return nil, io.EOF
		}
		f, ok := <-r.pipe
		if !ok {
			// The fetch loop quit on cancellation.
			if err := r.ctx.Err(); err != nil {
				r.err = err
				return nil, err
			}
			r.done = true
			return nil, io.EOF
		}
		if f.err == io.EOF {
			r.done = true
			continue
		}
		if f.err != nil {
			r.err = f.err
			return nil, r.err
		}
		t0 := time.Now()
		rows, err := r.kern.decryptBatch(f.rows)
		r.decryptNS += time.Since(t0).Nanoseconds()
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

// Err returns the first error hit by the cursor (io.EOF excluded).
func (r *Rows) Err() error {
	if r.err == io.EOF {
		return nil
	}
	return r.err
}

// Stats returns the cursor's cost breakdown so far: the prepare-time parse
// and rewrite costs plus the accumulated server wait and decrypt times.
// With pipelining, server and decrypt overlap in wall-clock time.
func (r *Rows) Stats() Stats {
	st := r.stats
	st.Server += time.Duration(r.serverNS.Load())
	st.Decrypt += time.Duration(r.decryptNS)
	return st
}

// Close releases the cursor. An abandoned streaming cursor cancels its
// fetch loop and joins it before returning, so the server-side teardown
// (cursor reset / statement close) is sequenced ahead of any re-execution
// of the same prepared statement.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.done = true
	r.cur = nil
	r.cancel()
	if r.pipe != nil {
		// Drain until the fetch loop exits (it closes the pipe after
		// tearing down the iterator); bounded by one in-flight batch.
		for range r.pipe {
		}
	}
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
