package main

import (
	"context"
	"encoding/json"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/storage"
	"sdb/internal/types"
	"sdb/internal/wal"
)

// The program under test carries no spans of its own, so the traced run
// records them from outside: decorators owned by this package sit on each
// layer's public interface and time the calls that cross it. A span's
// self time is its duration minus the part of it its children cover.

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's epoch; Op is shared by every span of one operation.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Rows is the batch size of an sp.next_batch span.
	Rows int `json:"rows,omitempty"`
}

type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span, start, end time.Time) {
	s.Start = start.Sub(t.epoch).Nanoseconds()
	s.End = end.Sub(t.epoch).Nanoseconds()
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far (set-up and warm-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// opScope is one client's view of the tracer: the client loop opens an
// operation before calling the proxy, and every decorator call made on
// that client's executor — on the loop's goroutine or on the cursor's
// fetch goroutine — lands under it. A closed loop has one operation in
// flight per client, so one atomic is enough: the id of the operation's
// root span, which is also the operation's id.
type opScope struct {
	t   *tracer
	cur atomic.Int64
}

// begin opens an operation and returns the id its root span will carry.
func (s *opScope) begin() int64 {
	id := s.t.ids.Add(1)
	s.cur.Store(id)
	return id
}

// end records the root span: the proxy call from issue to last decrypted
// row.
func (s *opScope) end(id int64, class string, start, end time.Time) {
	s.t.add(span{ID: id, Op: id, Name: "proxy.op", Class: class}, start, end)
	s.cur.Store(0)
}

func (s *opScope) child(name string, start time.Time, rows int) {
	id := s.cur.Load()
	s.t.add(span{Parent: id, Op: id, Name: name, Rows: rows}, start, time.Now())
}

// tracedExec decorates the executor a proxy talks to. It implements the
// same optional interfaces as the executor it wraps — see tracedEngine
// and tracedClient — so the proxy picks the same path traced and untraced.
type tracedExec struct {
	inner proxy.StreamExecutor
	sc    *opScope
}

func (e *tracedExec) ExecuteSQL(sql string) (*engine.Result, error) {
	t0 := time.Now()
	res, err := e.inner.ExecuteSQL(sql)
	name := "sp.execute"
	if isWrite(sql) {
		name = "sp.execute_write"
	}
	e.sc.child(name, t0, 0)
	return res, err
}

func isWrite(sql string) bool {
	return strings.HasPrefix(sql, "INSERT") || strings.HasPrefix(sql, "UPDATE")
}

func (e *tracedExec) PrepareStream(sql string) (engine.PreparedStmt, error) {
	t0 := time.Now()
	st, err := e.inner.PrepareStream(sql)
	e.sc.child("sp.prepare", t0, 0)
	if err != nil {
		return nil, err
	}
	return &tracedStmt{inner: st, sc: e.sc}, nil
}

// tracedEngine wraps the in-process engine, which also reports its
// committed generations to the proxy.
type tracedEngine struct {
	tracedExec
	eng *engine.Engine
}

func (e *tracedEngine) Generations() (uint64, uint64) { return e.eng.Generations() }

// tracedClient wraps a server connection, which also offers the fused
// one-shot op.
type tracedClient struct {
	tracedExec
	dq proxy.DirectQueryer
}

func (c *tracedClient) QueryDirect(ctx context.Context, sql string) (engine.RowIterator, error) {
	t0 := time.Now()
	it, err := c.dq.QueryDirect(ctx, sql)
	c.sc.child("sp.query_direct", t0, 0)
	if err != nil {
		return nil, err
	}
	return &tracedRows{inner: it, sc: c.sc}, nil
}

type tracedStmt struct {
	inner engine.PreparedStmt
	sc    *opScope
}

func (s *tracedStmt) Query(ctx context.Context) (engine.RowIterator, error) {
	t0 := time.Now()
	it, err := s.inner.Query(ctx)
	s.sc.child("sp.query", t0, 0)
	if err != nil {
		return nil, err
	}
	return &tracedRows{inner: it, sc: s.sc}, nil
}

func (s *tracedStmt) Close() error {
	t0 := time.Now()
	err := s.inner.Close()
	s.sc.child("sp.close", t0, 0)
	return err
}

type tracedRows struct {
	inner engine.RowIterator
	sc    *opScope
}

func (r *tracedRows) Columns() []engine.ResultColumn {
	t0 := time.Now()
	cols := r.inner.Columns()
	r.sc.child("sp.columns", t0, 0)
	return cols
}

func (r *tracedRows) NextBatch() ([]types.Row, error) {
	t0 := time.Now()
	rows, err := r.inner.NextBatch()
	r.sc.child("sp.next_batch", t0, len(rows))
	return rows, err
}

func (r *tracedRows) Close() error {
	t0 := time.Now()
	err := r.inner.Close()
	r.sc.child("sp.close", t0, 0)
	return err
}

// tracedStore decorates the WAL store behind storage.Durability. The
// engine calls it on server goroutines, where the issuing operation is
// not known; attachWAL resolves each span's parent afterwards. It also
// sums the bytes the store writes, which vanish from the directory when
// a checkpoint deletes the superseded log and snapshots.
type tracedStore struct {
	inner *wal.Store
	t     *tracer

	mu          sync.Mutex
	records     int
	checkpoints int
	logBytes    int64 // closed logs; the live log is added by bytesWritten
	snapBytes   int64
}

var _ storage.Durability = (*tracedStore)(nil)

func (s *tracedStore) timed(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	s.t.add(span{Name: name}, t0, time.Now())
	s.mu.Lock()
	s.records++
	s.mu.Unlock()
	return err
}

func (s *tracedStore) LogCreate(t *storage.Table, g storage.Generations) error {
	return s.timed("wal.create", func() error { return s.inner.LogCreate(t, g) })
}

func (s *tracedStore) LogInsert(table string, rows []types.Row, rowEnc, helper []*big.Int, g storage.Generations) error {
	return s.timed("wal.append", func() error { return s.inner.LogInsert(table, rows, rowEnc, helper, g) })
}

func (s *tracedStore) LogUpdate(table string, cols map[int][]types.Value, g storage.Generations) error {
	return s.timed("wal.update", func() error { return s.inner.LogUpdate(table, cols, g) })
}

func (s *tracedStore) LogDrop(table string, g storage.Generations) error {
	return s.timed("wal.drop", func() error { return s.inner.LogDrop(table, g) })
}

// MaybeCheckpoint tells a real checkpoint from a no-op by the log file
// changing: a checkpoint starts a fresh log.
func (s *tracedStore) MaybeCheckpoint() error {
	before := s.inner.LogPath()
	size := fileSize(before)
	t0 := time.Now()
	err := s.inner.MaybeCheckpoint()
	t1 := time.Now()
	if s.inner.LogPath() != before {
		s.t.add(span{Name: "wal.checkpoint"}, t0, t1)
		s.mu.Lock()
		s.checkpoints++
		s.logBytes += size
		s.snapBytes += dirBytes(s.inner.Dir(), ".snap")
		s.mu.Unlock()
	}
	return err
}

func (s *tracedStore) Checkpoint() error              { return s.inner.Checkpoint() }
func (s *tracedStore) Recovered() storage.Generations { return s.inner.Recovered() }

// bytesWritten is every log and snapshot byte the store has written.
func (s *tracedStore) bytesWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logBytes + s.snapBytes + fileSize(s.inner.LogPath())
}

func (s *tracedStore) counts() (records, checkpoints int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records, s.checkpoints
}

func (s *tracedStore) resetCounts() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records, s.checkpoints = 0, 0
	s.logBytes = -fileSize(s.inner.LogPath()) // count the live log from here on
	s.snapBytes = 0
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func dirBytes(dir, suffix string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			n += fileSize(filepath.Join(dir, e.Name()))
		}
	}
	return n
}

// ---- analysis -------------------------------------------------------------

// classTimes sums, per latency class, what the spans say about its
// operations.
type classTimes struct {
	ops     int
	total   time.Duration // proxy.op spans
	sp      time.Duration // part of them covered by sp.* spans
	batches int           // sp.next_batch spans that carried rows
}

type traceSummary struct {
	byClass map[string]*classTimes
	wal     map[string][]time.Duration // by span name
}

// attachWAL gives every wal.* span the write call that caused it: the
// sp.execute_write span that contains it. Commits are serial, so at most
// one write span of each client can contain a given WAL span; when two
// clients' writes overlap it, the one that started last is the one the
// commit lock admitted last.
func attachWAL(spans []span) {
	var writes []int
	for i, s := range spans {
		if s.Name == "sp.execute_write" {
			writes = append(writes, i)
		}
	}
	for i := range spans {
		w := &spans[i]
		if !strings.HasPrefix(w.Name, "wal.") {
			continue
		}
		best := -1
		for _, j := range writes {
			p := spans[j]
			if p.Start <= w.Start && w.End <= p.End && (best < 0 || p.Start > spans[best].Start) {
				best = j
			}
		}
		if best >= 0 {
			w.Parent, w.Op = spans[best].ID, spans[best].Op
		}
	}
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(parent span, children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var sum, hi int64
	hi = parent.Start
	for _, c := range children {
		lo, end := c.Start, c.End
		if lo < hi {
			lo = hi
		}
		if end > parent.End {
			end = parent.End
		}
		if end > lo {
			sum += end - lo
			hi = end
		}
	}
	return time.Duration(sum)
}

func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	attachWAL(t.spans)
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 && strings.HasPrefix(s.Name, "sp.") {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	sum := traceSummary{byClass: make(map[string]*classTimes), wal: make(map[string][]time.Duration)}
	for _, s := range t.spans {
		switch {
		case s.Name == "proxy.op":
			ct := sum.byClass[s.Class]
			if ct == nil {
				ct = &classTimes{}
				sum.byClass[s.Class] = ct
			}
			ct.ops++
			ct.total += time.Duration(s.End - s.Start)
			ct.sp += covered(s, kids[s.ID])
			for _, k := range kids[s.ID] {
				if k.Name == "sp.next_batch" && k.Rows > 0 {
					ct.batches++
				}
			}
		case strings.HasPrefix(s.Name, "wal."):
			sum.wal[s.Name] = append(sum.wal[s.Name], time.Duration(s.End-s.Start))
		}
	}
	return sum
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
