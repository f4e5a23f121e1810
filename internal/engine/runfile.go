// Run files and the k-way merge shared by every spill path. A run is a
// sequence of rows tagged with up to two int64 ordering components,
// written in ascending tag/comparator order; mergeIter merges any number
// of runs back into one globally ordered stream with one look-ahead row
// per run resident. The three blocking operators all reduce to this:
//
//   - external sort: runs sorted by the ORDER BY comparator, tag a =
//     arrival index as the stability tie-break;
//   - Grace hash join: leaf joins emit runs sorted by (probe row index,
//     build row index), whose merge reproduces the exact streaming
//     probe-order × build-order output of the in-memory join;
//   - spilled aggregation (GROUP BY, and DISTINCT, which plans as an
//     aggregation without aggregates): per-partition group outputs sorted
//     by first-encounter index, merged into first-encounter order.
package engine

import (
	"cmp"
	"errors"
	"io"
	"os"
	"sync/atomic"

	"sdb/internal/parallel"
	"sdb/internal/spill"
	"sdb/internal/types"
)

// taggedRow is one spilled row plus its ordering tags.
type taggedRow struct {
	a, b int64
	row  types.Row
}

// spillFile is the shared lifecycle of one spill temp file: buffered
// writes, a flush-and-rewind transition to reading, and idempotent
// descriptor release (the session unlinks the file itself).
type spillFile struct {
	f    *os.File
	w    *spill.Writer
	sess *spill.Session
}

func newSpillFile(qs *querySpill) (spillFile, error) {
	f, err := qs.sess.Create()
	if err != nil {
		return spillFile{}, err
	}
	return spillFile{f: f, w: spill.NewWriter(spillCounter{f, &qs.spilledBytes}), sess: qs.sess}, nil
}

// spillCounter adds every buffer the spill encoder flushes to a file to
// the query's SpilledBytes.
type spillCounter struct {
	f *os.File
	n *atomic.Int64
}

func (c spillCounter) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// readCounter is spillCounter's read side: it adds every chunk the spill
// decoder reads from a file to the session's ReadBytes.
type readCounter struct {
	f    *os.File
	sess *spill.Session
}

func (c readCounter) Read(p []byte) (int, error) {
	n, err := c.f.Read(p)
	c.sess.AddReadBytes(n)
	return n, err
}

// rewind flushes pending writes and positions a fresh reader at the start
// of the file. Only one reader may be active at a time (readers share the
// descriptor's offset).
func (sf *spillFile) rewind() (*spill.Reader, error) {
	if err := sf.w.Flush(); err != nil {
		return nil, err
	}
	if _, err := sf.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return spill.NewReader(readCounter{sf.f, sf.sess}), nil
}

func (sf *spillFile) close() error {
	if sf.f == nil {
		return nil
	}
	err := sf.f.Close()
	sf.f = nil
	return err
}

// runFile is a spill file of tagged rows, written once then read back.
type runFile struct {
	spillFile
	rows int
}

// newRunFile creates a run file in the query's spill session.
func newRunFile(qs *querySpill) (*runFile, error) {
	sf, err := newSpillFile(qs)
	if err != nil {
		return nil, err
	}
	return &runFile{spillFile: sf}, nil
}

func (rf *runFile) write(tr taggedRow) error {
	if err := rf.w.WriteVarint(tr.a); err != nil {
		return err
	}
	if err := rf.w.WriteVarint(tr.b); err != nil {
		return err
	}
	if err := rf.w.WriteRow(tr.row); err != nil {
		return err
	}
	rf.rows++
	return nil
}

func (rf *runFile) count() int { return rf.rows }

// openReader rewinds the run for reading.
func (rf *runFile) openReader() (*runReader, error) {
	r, err := rf.rewind()
	if err != nil {
		return nil, err
	}
	return &runReader{r: r}, nil
}

type runReader struct {
	r *spill.Reader
}

// read returns the next tagged row, or io.EOF at the end of the run. An
// EOF after the first tag is a truncated record, not a clean end.
func (rr *runReader) read() (taggedRow, error) {
	a, err := rr.r.ReadVarint()
	if err != nil {
		if err == io.EOF {
			return taggedRow{}, io.EOF
		}
		return taggedRow{}, err
	}
	b, err := rr.r.ReadVarint()
	if err != nil {
		return taggedRow{}, truncated(err)
	}
	row, err := rr.r.ReadRow()
	if err != nil {
		return taggedRow{}, truncated(err)
	}
	return taggedRow{a: a, b: b, row: row}, nil
}

// truncated upgrades a mid-record io.EOF to a real error so it is never
// mistaken for a clean end of run.
func truncated(err error) error {
	if err == io.EOF {
		return errors.New("spill: truncated run record")
	}
	return err
}

// tagCompare orders tagged rows by (a, b) — the join and aggregation
// merge order. Sort merges use the ORDER BY comparator instead.
func tagCompare(x, y *taggedRow) int {
	if c := cmp.Compare(x.a, y.a); c != 0 {
		return c
	}
	return cmp.Compare(x.b, y.b)
}

// mergeIter k-way merges sorted runs. Resident state is one look-ahead
// row per run; output is served in batches of at most batch rows.
type mergeIter struct {
	cmp   func(x, y *taggedRow) int
	heads []*runHead // binary min-heap by cmp
	batch int
	files []*runFile // closed when the merge is done
}

type runHead struct {
	rr  *runReader
	cur taggedRow
}

// newMergeIter opens every run and primes the heap. The merge owns the
// runs' descriptors from this call on: they are closed at close(), and
// on any construction error every run is closed before returning, so no
// caller path can leak them.
func newMergeIter(runs []*runFile, order func(x, y *taggedRow) int, batch int) (*mergeIter, error) {
	m := &mergeIter{cmp: order, batch: batch, files: runs}
	fail := func(err error) (*mergeIter, error) {
		closeRunFiles(runs)
		return nil, err
	}
	for _, rf := range runs {
		if rf.count() == 0 {
			continue
		}
		rr, err := rf.openReader()
		if err != nil {
			return fail(err)
		}
		head := &runHead{rr: rr}
		if head.cur, err = rr.read(); err != nil {
			return fail(err)
		}
		m.heads = append(m.heads, head)
	}
	// Heapify bottom-up.
	for i := len(m.heads)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

func (m *mergeIter) less(i, j int) bool {
	return m.cmp(&m.heads[i].cur, &m.heads[j].cur) < 0
}

func (m *mergeIter) siftDown(i int) {
	n := len(m.heads)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && m.less(l, min) {
			min = l
		}
		if r < n && m.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		m.heads[i], m.heads[min] = m.heads[min], m.heads[i]
		i = min
	}
}

// nextTagged pops the next tagged row in merge order, or io.EOF when
// every run is exhausted.
func (m *mergeIter) nextTagged() (taggedRow, error) {
	if len(m.heads) == 0 {
		return taggedRow{}, io.EOF
	}
	head := m.heads[0]
	tr := head.cur
	next, err := head.rr.read()
	switch {
	case err == io.EOF:
		last := len(m.heads) - 1
		m.heads[0] = m.heads[last]
		m.heads = m.heads[:last]
	case err != nil:
		return taggedRow{}, err
	default:
		head.cur = next
	}
	if len(m.heads) > 1 {
		m.siftDown(0)
	}
	return tr, nil
}

// next returns the next merged batch, or (nil, io.EOF) when every run is
// exhausted.
func (m *mergeIter) next() ([]types.Row, error) {
	out := make([]types.Row, 0, m.batch)
	for len(out) < m.batch {
		tr, err := m.nextTagged()
		if err == io.EOF {
			if len(out) > 0 {
				return out, nil
			}
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		out = append(out, tr.row)
	}
	return out, nil
}

// resident reports the look-ahead rows the merge holds.
func (m *mergeIter) resident() int {
	if m == nil {
		return 0
	}
	return len(m.heads)
}

// close releases every run file descriptor.
func (m *mergeIter) close() {
	if m == nil {
		return
	}
	for _, rf := range m.files {
		rf.close()
	}
	m.files, m.heads = nil, nil
}

// closeRunFiles closes a slice of run files (nil-safe convenience).
func closeRunFiles(runs []*runFile) {
	for _, rf := range runs {
		if rf != nil {
			rf.close()
		}
	}
}

// mergeFanIn bounds how many runs one merge holds look-ahead rows for,
// scaled to the budget so the merge's own resident state cannot eat it.
func mergeFanIn(limit int) int {
	if limit <= 0 {
		return 64
	}
	f := limit / 8
	if f < 4 {
		f = 4
	}
	if f > 64 {
		f = 64
	}
	return f
}

// mergeRunsToFile k-way merges one group of runs into a single
// intermediate run on disk. It takes ownership of the group (closed on
// success and on every error path); the output run is closed on error.
func mergeRunsToFile(qs *querySpill, group []*runFile, order func(x, y *taggedRow) int, batch int) (*runFile, error) {
	m, err := newMergeIter(group, order, batch) // closes group on error
	if err != nil {
		return nil, err
	}
	out, err := newRunFile(qs)
	if err != nil {
		m.close()
		return nil, err
	}
	for {
		tr, err := m.nextTagged()
		if err == io.EOF {
			break
		}
		if err == nil {
			qs.sess.AddSpilledRows(1)
			err = out.write(tr)
		}
		if err != nil {
			m.close()
			out.close()
			return nil, err
		}
	}
	m.close() // releases the group's descriptors
	return out, nil
}

// boundedMerge merges runs with a budget-scaled fan-in: while more runs
// exist than the fan-in allows, the runs pre-merge as a parallel fan-in
// tree — every group of fan-in runs merges into one intermediate run,
// all groups of a pass running concurrently on the query's spill workers
// (tags are preserved, so ordering survives every pass and the pass
// layout cannot change results) — and the returned iterator never holds
// more than fan-in look-ahead rows. Like newMergeIter it takes ownership
// of the runs: on any error every run (original or intermediate) is
// closed.
func boundedMerge(qs *querySpill, runs []*runFile, order func(x, y *taggedRow) int, batch int) (*mergeIter, error) {
	fanIn := mergeFanIn(qs.budget.Limit())
	// Each in-flight group merge holds up to fanIn unreserved look-ahead
	// rows. The serial design sized one group's look-ahead inside the
	// budget headroom; running P groups at once multiplies it by P, so
	// cap the pass concurrency to keep the aggregate look-ahead within a
	// quarter of the budget, and latch it so the peak stays honest.
	workers := qs.workers
	if limit := qs.budget.Limit(); limit > 0 {
		if c := limit / 4 / fanIn; c < workers {
			workers = c
		}
		if workers < 1 {
			workers = 1
		}
	}
	var lookAhead atomic.Int64
	for len(runs) > fanIn {
		ngroups := (len(runs) + fanIn - 1) / fanIn
		outs := make([]*runFile, ngroups)
		claimed := make([]bool, ngroups)
		err := parallel.New(workers, 1).ForEachChunk(ngroups, func(_, lo, hi int) error {
			for g := lo; g < hi; g++ {
				claimed[g] = true
				glo, ghi := g*fanIn, (g+1)*fanIn
				if ghi > len(runs) {
					ghi = len(runs)
				}
				leave := qs.enterSpillWorker()
				qs.peak.latch(int(lookAhead.Add(int64(ghi - glo))))
				out, err := mergeRunsToFile(qs, runs[glo:ghi], order, batch)
				lookAhead.Add(int64(glo - ghi))
				leave()
				if err != nil {
					return err
				}
				outs[g] = out
			}
			return nil
		})
		if err != nil {
			// Started groups closed their own inputs; sweep the rest.
			for g := range outs {
				if outs[g] != nil {
					outs[g].close()
				}
				if !claimed[g] {
					ghi := (g + 1) * fanIn
					if ghi > len(runs) {
						ghi = len(runs)
					}
					closeRunFiles(runs[g*fanIn : ghi])
				}
			}
			return nil, err
		}
		runs = outs
	}
	return newMergeIter(runs, order, batch)
}
