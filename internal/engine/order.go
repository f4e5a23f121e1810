package engine

import (
	"cmp"
	"context"
	"io"
	"math"
	"slices"
	"strings"

	"sdb/internal/sqlparser"
	"sdb/internal/types"
)

// sortKey is one ORDER BY key: a column of the projected-plus-hidden row
// layout.
type sortKey struct {
	desc bool
	col  int // index into the extended row
}

// orderSpec is a compiled ORDER BY: the keys, whose hidden columns the
// projection appends after the visible output so every key is addressable
// in the row.
type orderSpec struct {
	keys []sortKey
}

// compileOrderKeys resolves ORDER BY items against the projected output
// (aliases and projected column names first) and the pre-projection
// relation otherwise; unresolvable-from-output keys become hidden columns
// of the projection's expression set sb, evaluated alongside the visible
// output.
func compileOrderKeys(s *sqlparser.Select, outCols []ResultColumn, sb *setBuilder) (*orderSpec, error) {
	spec := &orderSpec{}
	for _, item := range s.OrderBy {
		k := sortKey{desc: item.Desc, col: -1}
		// Alias or projected-column reference?
		if cr, ok := item.Expr.(sqlparser.ColRef); ok && cr.Table == "" {
			for c, oc := range outCols {
				if strings.EqualFold(oc.Name, cr.Name) {
					k.col = c
					break
				}
			}
		}
		if k.col < 0 {
			var err error
			if k.col, err = sb.add(item.Expr); err != nil {
				return nil, err
			}
		}
		spec.keys = append(spec.keys, k)
	}
	return spec, nil
}

// compare orders two extended rows: negative when a sorts before b.
func (sp *orderSpec) compare(a, b types.Row) int {
	for _, k := range sp.keys {
		if c := a[k.col].Compare(b[k.col]); c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// sortOp is the one ORDER BY sink: it materializes its input at open,
// sorts it and serves batches with the hidden key columns stripped. Every
// buffered row carries its arrival index, and every ordering step — the
// in-memory sort, the LIMIT cut, the run files and their merge — orders by
// runCompare (keys, then arrival index), so the output is the stable sort.
//
// Every buffered row is reserved from the budget. With a LIMIT K (limit
// >= 0; -1 when there is none, or when a DISTINCT stands between the sort
// and the LIMIT) the sort keeps only the first K rows: it cuts its buffer
// to them, releasing the reservation of the rest, when the buffer reaches
// 2K rows, when a reservation is refused while more than K rows are
// buffered, and in every run it writes. After a cut, a row that sorts after
// the last kept row is dropped on arrival: K rows ahead of it are known.
//
// When even the kept rows cannot be reserved it degrades to an external
// merge sort: each buffer sorts into a run file, and the k-way merge of
// the runs reproduces the in-memory order with one look-ahead row per run
// resident.
type sortOp struct {
	child    operator
	spec     *orderSpec
	limit    int64
	outWidth int
	batch    int
	qs       *querySpill

	ctx      context.Context
	win      rowWindow
	reserved int
	bound    *taggedRow // the last row the latest cut kept
	runs     []*runFile
	merge    *mergeIter
}

func (op *sortOp) columns() []relCol { return op.child.columns()[:op.outWidth] }

func (op *sortOp) open(ctx context.Context) error {
	op.ctx = ctx
	if err := op.child.open(ctx); err != nil {
		return err
	}
	// The buffer is cut back to K rows whenever it reaches 2K; the bound
	// saturates so that a K near the int64 limit never cuts.
	cutAt := int64(math.MaxInt64)
	if op.limit >= 0 && op.limit <= math.MaxInt64/2 {
		cutAt = 2 * op.limit
	}
	var buf []taggedRow
	var seq int64 // arrival index of the next row
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch, err := op.child.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for _, row := range batch {
			tr := taggedRow{a: seq, row: row}
			seq++
			if op.bound == nil || op.runCompare(&tr, op.bound) < 0 {
				buf = append(buf, tr)
			}
		}
		if int64(len(buf)) >= cutAt {
			buf = op.cut(buf)
		}
		fits := op.reserveTo(len(buf))
		if !fits && op.limit >= 0 && int64(len(buf)) > op.limit {
			buf = op.cut(buf)
			fits = op.reserveTo(len(buf))
		}
		if !fits {
			if err := op.flushRun(buf); err != nil {
				return err
			}
			buf = nil
		}
		op.qs.peak.latch(len(buf) + op.child.resident())
	}
	op.child.close()

	if len(op.runs) == 0 {
		// Everything fit: an in-memory sort.
		buf = op.cut(buf)
		rows := make([]types.Row, len(buf))
		for i := range buf {
			rows[i] = buf[i].row
		}
		op.win = rowWindow{rows: rows, batch: op.batch, width: op.outWidth}
		return nil
	}
	if len(buf) > 0 {
		if err := op.flushRun(buf); err != nil {
			return err
		}
	}
	m, err := boundedMerge(op.qs, op.runs, op.runCompare, op.batch)
	op.runs = nil // ownership moved to the merge (intermediate passes included)
	if err != nil {
		return err
	}
	op.merge = m
	return nil
}

// reserveTo brings the reservation to n rows, releasing any surplus; it
// reports false, reserving nothing, when the budget refuses the growth.
func (op *sortOp) reserveTo(n int) bool {
	if n <= op.reserved {
		op.qs.budget.Release(op.reserved - n)
	} else if !op.qs.budget.TryReserve(n - op.reserved) {
		return false
	}
	op.reserved = n
	return true
}

// cut sorts buf and, under a LIMIT K, keeps its first K rows, releasing
// the reservation of the rest.
func (op *sortOp) cut(buf []taggedRow) []taggedRow {
	slices.SortFunc(buf, func(x, y taggedRow) int { return op.runCompare(&x, &y) })
	if op.limit >= 0 && int64(len(buf)) > op.limit {
		clear(buf[op.limit:]) // drop the cut rows' references
		buf = buf[:op.limit]
		op.reserveTo(min(op.reserved, len(buf)))
		if len(buf) > 0 {
			bound := buf[len(buf)-1]
			op.bound = &bound
		}
	}
	return buf
}

// flushRun sorts the buffered rows (at most K of them under a LIMIT) and
// writes them as one run, releasing their reservation.
func (op *sortOp) flushRun(buf []taggedRow) error {
	op.qs.sess.AddSpill()
	buf = op.cut(buf)
	rf, err := newRunFile(op.qs)
	if err != nil {
		return err
	}
	for _, tr := range buf {
		op.qs.sess.AddSpilledRows(1)
		if err := rf.write(tr); err != nil {
			rf.close()
			return err
		}
	}
	op.runs = append(op.runs, rf)
	op.reserveTo(0)
	return nil
}

// runCompare orders rows by the ORDER BY keys, then arrival index
// (stability tie-break).
func (op *sortOp) runCompare(x, y *taggedRow) int {
	if c := op.spec.compare(x.row, y.row); c != 0 {
		return c
	}
	return cmp.Compare(x.a, y.a)
}

func (op *sortOp) next() ([]types.Row, error) {
	if err := op.ctx.Err(); err != nil {
		return nil, err
	}
	if op.merge != nil {
		batch, err := op.merge.next()
		if err != nil {
			return nil, err
		}
		for i := range batch {
			batch[i] = batch[i][:op.outWidth] // strip hidden sort keys
		}
		return batch, nil
	}
	return op.win.next()
}

func (op *sortOp) close() error {
	op.win = rowWindow{}
	op.reserveTo(0)
	op.merge.close()
	op.merge = nil
	closeRunFiles(op.runs)
	op.runs = nil
	return op.child.close()
}

func (op *sortOp) resident() int {
	return op.win.remaining() + op.merge.resident() + op.child.resident()
}
