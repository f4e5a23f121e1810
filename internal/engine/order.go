package engine

import (
	"cmp"
	"context"
	"io"
	"sort"
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

// sortOp is the blocking ORDER BY sink: it materializes its input at open,
// stable-sorts it and serves batches with the hidden key columns stripped.
// The planner prefers topKOp when a LIMIT bounds the resident set within
// the budget.
//
// Past the query's memory budget it degrades to an external merge sort:
// each budget-sized buffer stable-sorts into a run file whose rows carry
// their global arrival index, and the k-way merge breaks comparator ties
// by that index — reproducing the in-memory stable sort exactly with one
// look-ahead row per run resident.
type sortOp struct {
	child    operator
	spec     *orderSpec
	outWidth int
	batch    int
	qs       *querySpill

	ctx      context.Context
	win      rowWindow
	reserved int
	runs     []*runFile
	merge    *mergeIter
}

func (op *sortOp) columns() []relCol { return op.child.columns()[:op.outWidth] }

func (op *sortOp) open(ctx context.Context) error {
	op.ctx = ctx
	if err := op.child.open(ctx); err != nil {
		return err
	}
	var buf []types.Row
	base := 0 // arrival index of buf[0]
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
		buf = append(buf, batch...)
		if op.qs.budget.TryReserve(len(batch)) {
			op.reserved += len(batch)
		} else {
			if err := op.flushRun(buf, base); err != nil {
				return err
			}
			base += len(buf)
			buf = nil
		}
		op.qs.peak.latch(len(buf) + op.child.resident())
	}
	op.child.close()

	if len(op.runs) == 0 {
		// Everything fit: plain in-memory stable sort.
		sort.SliceStable(buf, func(i, j int) bool { return op.spec.compare(buf[i], buf[j]) < 0 })
		op.win = rowWindow{rows: buf, batch: op.batch, width: op.outWidth}
		return nil
	}
	if len(buf) > 0 {
		if err := op.flushRun(buf, base); err != nil {
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

// flushRun stable-sorts the buffered rows and writes them as one run;
// the rows' arrival indices make the later merge a stable sort.
func (op *sortOp) flushRun(buf []types.Row, base int) error {
	op.qs.sess.AddSpill()
	tagged := make([]taggedRow, len(buf))
	for i, row := range buf {
		tagged[i] = taggedRow{a: int64(base + i), row: row}
	}
	sort.SliceStable(tagged, func(i, j int) bool { return op.spec.compare(tagged[i].row, tagged[j].row) < 0 })
	rf, err := newRunFile(op.qs)
	if err != nil {
		return err
	}
	for _, tr := range tagged {
		op.qs.sess.AddSpilledRows(1)
		if err := rf.write(tr); err != nil {
			rf.close()
			return err
		}
	}
	op.runs = append(op.runs, rf)
	op.qs.budget.Release(op.reserved)
	op.reserved = 0
	return nil
}

// runCompare orders merged rows by the ORDER BY keys, then arrival index
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
	op.qs.budget.Release(op.reserved)
	op.reserved = 0
	op.merge.close()
	op.merge = nil
	closeRunFiles(op.runs)
	op.runs = nil
	return op.child.close()
}

func (op *sortOp) resident() int {
	return op.win.remaining() + op.merge.resident() + op.child.resident()
}

// topKOp is ORDER BY + LIMIT K with a bounded heap: it retains only the K
// best rows while streaming its input, so resident memory is O(K) instead
// of the full input. Ties break by arrival order, reproducing a stable
// sort followed by LIMIT exactly.
type topKOp struct {
	child    operator
	spec     *orderSpec
	k        int64
	outWidth int
	batch    int
	qs       *querySpill

	ctx  context.Context
	heap []heapItem // max-heap: worst retained row at the root
	win  rowWindow
}

type heapItem struct {
	row types.Row
	seq int
}

func (op *topKOp) columns() []relCol { return op.child.columns()[:op.outWidth] }

// worse reports whether a sorts after b (later keys, or equal keys and
// later arrival).
func (op *topKOp) worse(a, b heapItem) bool {
	if c := op.spec.compare(a.row, b.row); c != 0 {
		return c > 0
	}
	return a.seq > b.seq
}

func (op *topKOp) open(ctx context.Context) error {
	op.ctx = ctx
	if err := op.child.open(ctx); err != nil {
		return err
	}
	seq := 0
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
			op.push(heapItem{row: row, seq: seq})
			seq++
		}
		op.qs.peak.latch(len(op.heap) + len(batch) + op.child.resident())
	}
	op.child.close()

	// Pop worst-first into the tail of the result slice.
	rows := make([]types.Row, len(op.heap))
	for i := len(rows) - 1; i >= 0; i-- {
		rows[i] = op.pop().row
	}
	op.win = rowWindow{rows: rows, batch: op.batch, width: op.outWidth}
	return nil
}

func (op *topKOp) push(it heapItem) {
	if int64(len(op.heap)) < op.k {
		op.heap = append(op.heap, it)
		i := len(op.heap) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !op.worse(op.heap[i], op.heap[parent]) {
				break
			}
			op.heap[i], op.heap[parent] = op.heap[parent], op.heap[i]
			i = parent
		}
		return
	}
	if op.k == 0 || !op.worse(op.heap[0], it) {
		return // not better than the worst retained row
	}
	op.heap[0] = it
	op.siftDown(0)
}

func (op *topKOp) pop() heapItem {
	top := op.heap[0]
	last := len(op.heap) - 1
	op.heap[0] = op.heap[last]
	op.heap = op.heap[:last]
	if last > 0 {
		op.siftDown(0)
	}
	return top
}

func (op *topKOp) siftDown(i int) {
	n := len(op.heap)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && op.worse(op.heap[l], op.heap[worst]) {
			worst = l
		}
		if r < n && op.worse(op.heap[r], op.heap[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		op.heap[i], op.heap[worst] = op.heap[worst], op.heap[i]
		i = worst
	}
}

func (op *topKOp) next() ([]types.Row, error) {
	if err := op.ctx.Err(); err != nil {
		return nil, err
	}
	return op.win.next()
}

func (op *topKOp) close() error {
	op.heap = nil
	op.win = rowWindow{}
	return op.child.close()
}

func (op *topKOp) resident() int {
	n := len(op.heap)
	if len(op.win.rows) > 0 {
		n = op.win.remaining()
	}
	return n + op.child.resident()
}
