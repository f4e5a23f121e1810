package engine

import (
	"context"
	"io"
	"sync/atomic"

	"sdb/internal/parallel"
	"sdb/internal/types"
)

// joinOutput is the join's pending-output buffer: one probe batch can
// produce anywhere between zero and build-side-many joined rows, so output
// is re-batched to the pipeline granularity.
type joinOutput struct {
	out   []types.Row
	pos   int
	batch int
}

func (jo *joinOutput) serve() []types.Row {
	hi := jo.pos + jo.batch
	if hi > len(jo.out) {
		hi = len(jo.out)
	}
	rows := jo.out[jo.pos:hi]
	jo.pos = hi
	if jo.pos >= len(jo.out) {
		jo.out, jo.pos = nil, 0
	}
	return rows
}

func (jo *joinOutput) pending() int { return len(jo.out) - jo.pos }

// hashJoinOp is the engine's one join operator: the build side (right) is
// drained and hashed at open into one index — the only materialized state
// — and the probe side (left) streams through in batches. Join keys are
// computed on the keys' pool (the worker pool when they are encrypted:
// key-update programs), the index is built on the calling goroutine in
// build order, and each probe batch is looked up in chunks on the pool of
// keys and residual (the worker pool when either does secure arithmetic,
// e.g. a residual running sdb_sign on every match). Output order is probe
// order × build insertion order, matching the serial nested loop on the
// same inputs.
//
// A join with no equality key (a cross join, or a theta join whose whole
// condition is the residual) is this operator on the empty key: every row
// has it, so the index is one entry holding the build rows in build order,
// the probe is a nested loop over them, and a spilled join is one Grace
// partition pair, which joinChunked runs as a block nested loop.
//
// When the build side would cross the query's memory budget the join goes
// Grace: both inputs are hash-partitioned to spill files, and the
// independent partition pairs build-and-probe concurrently on the query's
// spill workers (re-partitioning recursively when a build partition alone
// exceeds the shared budget, chunking it when re-hashing cannot split
// further). Every leaf owns its run files and emits output rows tagged
// with (probe index, build index); merging the runs by those tags
// restores the exact in-memory output order regardless of which worker
// finished first, so spilled, parallel-spilled and resident execution are
// indistinguishable to callers — the differential suites assert it.
//
// When an aggregation sits directly on the join (agg), a Grace leaf writes
// no output run: it folds each match into a leaf group table of the
// aggregation, tagged with the same (probe index, build index), and the
// join then reports end of stream. The aggregation orders its groups by
// those tags, so its output equals the one it would have computed from
// the merged stream.
type hashJoinOp struct {
	keyPool     *parallel.Pool // computes join keys
	pool        *parallel.Pool // runs the probe: keys, then residual
	left, right operator
	schema      []relCol
	leftKeys    []compiledExpr
	rightKeys   []compiledExpr
	residual    compiledExpr // non-equi ON conjuncts over the joined row; may be nil
	// flip marks a planner build-side swap: left/right still mean
	// probe/build internally, but the declared schema (and every emitted
	// row) lays out the build columns first — see joinRow.
	flip bool
	// buildHint pre-sizes the build-side index (planner estimate; 0 =
	// unknown).
	buildHint int
	batch     int
	qs        *querySpill
	// agg is the aggregation planSelect put directly on this join; nil
	// for any other consumer.
	agg *hashAggOp

	ctx       context.Context
	index     map[string][]types.Row
	buildRows int
	out       joinOutput

	// Grace spill state (nil/zero while the build side fits in budget).
	spilling   bool
	reserved   int        // build rows currently reserved against the budget
	buildFiles []*runFile // per hash partition; tag a = build row index
	probeFiles []*runFile // per hash partition; tag a = probe row index
	merge      *mergeIter // restored-order output of the leaf joins
	// leafRows sums the rows resident across all concurrently active
	// leaf build tables (partition pairs run in parallel on the spill
	// workers, each adding its leaf's rows while they are loaded).
	leafRows atomic.Int64
}

func (op *hashJoinOp) columns() []relCol { return op.schema }

// joinRow lays out one output row against the declared schema: probe ++
// build normally, build ++ probe when the planner flipped the children to
// build on the smaller input.
func (op *hashJoinOp) joinRow(probe, build types.Row) types.Row {
	return op.joinRowInto(make(types.Row, 0, len(probe)+len(build)), probe, build)
}

// joinRowInto is joinRow appending to dst.
func (op *hashJoinOp) joinRowInto(dst, probe, build types.Row) types.Row {
	if op.flip {
		probe, build = build, probe
	}
	return append(append(dst, probe...), build...)
}

func (op *hashJoinOp) open(ctx context.Context) error {
	op.ctx = ctx
	op.out.batch = op.batch
	if err := op.left.open(ctx); err != nil {
		return err
	}
	if err := op.right.open(ctx); err != nil {
		return err
	}
	return op.build()
}

// keyedRow is a computed join key: its hash (which picks the Grace spill
// partition) and, while the build side is still resident, the composite key
// the index will own. ok is false for a NULL key component, which never
// matches.
type keyedRow struct {
	key  string
	hash uint32
	ok   bool
}

// keyRow computes one row's keyedRow; withKey materialises the key string.
func keyRow(keys []compiledExpr, row types.Row, withKey bool) (keyedRow, error) {
	var scratch [64]byte
	key, hasNull, err := appendJoinKey(scratch[:0], keys, row)
	if err != nil || hasNull {
		return keyedRow{}, err
	}
	kr := keyedRow{hash: hashKey(key), ok: true}
	if withKey {
		kr.key = string(key)
	}
	return kr, nil
}

// build drains the right child and constructs the hash index, switching to
// Grace partition files when the budget refuses the rows.
func (op *hashJoinOp) build() error {
	var rows []types.Row
	var keys []keyedRow
	bseq := 0
	for {
		if err := op.ctx.Err(); err != nil {
			return err
		}
		batch, err := op.right.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		resident := !op.spilling
		ks, err := parallel.Map(op.keyPool, len(batch), func(i int) (keyedRow, error) {
			return keyRow(op.rightKeys, batch[i], resident)
		})
		if err != nil {
			return err
		}
		if op.spilling {
			for i, k := range ks {
				if !k.ok {
					continue // NULL join key: never matches
				}
				if err := op.writeBuildRow(k.hash, int64(bseq+i), batch[i]); err != nil {
					return err
				}
			}
			bseq += len(batch)
			continue
		}
		rows = append(rows, batch...)
		keys = append(keys, ks...)
		bseq += len(batch)
		if op.qs.budget.TryReserve(len(batch)) {
			op.reserved += len(batch)
		} else {
			if err := op.beginBuildSpill(rows, keys); err != nil {
				return err
			}
			rows, keys = nil, nil
		}
		op.qs.peak.latch(len(rows) + op.right.resident())
	}
	op.right.close()
	if op.spilling {
		for _, rf := range op.buildFiles {
			op.buildRows += rf.count()
		}
		return nil
	}

	// Within a key, rows keep build order.
	op.index = make(map[string][]types.Row, op.buildHint)
	for i, k := range keys {
		if k.ok {
			op.index[k.key] = append(op.index[k.key], rows[i])
			op.buildRows++
		}
	}
	return nil
}

func (op *hashJoinOp) next() ([]types.Row, error) {
	if op.buildRows == 0 {
		// Empty build side: an inner join is provably empty, so skip the
		// probe scan (and its per-row key UDF evaluation) entirely.
		return nil, io.EOF
	}
	if op.spilling {
		return op.nextSpilled()
	}
	for op.out.pending() == 0 {
		if err := op.ctx.Err(); err != nil {
			return nil, err
		}
		batch, err := op.left.next()
		if err != nil {
			return nil, err
		}
		if err := op.probe(batch); err != nil {
			return nil, err
		}
	}
	return op.out.serve(), nil
}

// probe matches one probe batch against the build index in chunks on the
// probe's pool; per-chunk buffers are concatenated in chunk order to
// preserve probe-row order.
func (op *hashJoinOp) probe(batch []types.Row) error {
	chunks := make([][]types.Row, op.pool.NumChunks(len(batch)))
	err := op.pool.ForEachChunk(len(batch), func(chunk, lo, hi int) error {
		var buf []types.Row
		var key []byte
		for i := lo; i < hi; i++ {
			var hasNull bool
			var err error
			if key, hasNull, err = appendJoinKey(key[:0], op.leftKeys, batch[i]); err != nil {
				return err
			}
			if hasNull {
				continue
			}
			for _, rb := range op.index[string(key)] {
				row := op.joinRow(batch[i], rb)
				if op.residual != nil {
					ok, err := op.residual(row)
					if err != nil {
						return err
					}
					if !ok.Bool() {
						continue
					}
				}
				buf = append(buf, row)
			}
		}
		chunks[chunk] = buf
		return nil
	})
	if err != nil {
		return err
	}
	for _, buf := range chunks {
		op.out.out = append(op.out.out, buf...)
	}
	return nil
}

func (op *hashJoinOp) close() error {
	op.index, op.buildRows = nil, 0
	op.leafRows.Store(0)
	op.out = joinOutput{}
	op.qs.budget.Release(op.reserved)
	op.reserved = 0
	closeRunFiles(op.buildFiles)
	closeRunFiles(op.probeFiles)
	op.buildFiles, op.probeFiles = nil, nil
	op.merge.close()
	op.merge = nil
	op.left.close()
	return op.right.close()
}

func (op *hashJoinOp) resident() int {
	n := op.buildRows
	if op.spilling {
		// The build side lives on disk; resident state is the active leaf
		// tables plus the merge look-ahead.
		n = int(op.leafRows.Load()) + op.merge.resident()
	}
	return n + op.out.pending() + op.left.resident() + op.right.resident()
}

// ---- Grace spill path ------------------------------------------------------

// beginBuildSpill flips the join into Grace mode: partition files are
// created, every buffered build row is flushed to its key-hash partition,
// and the buffered rows' budget reservation is returned.
func (op *hashJoinOp) beginBuildSpill(rows []types.Row, keys []keyedRow) error {
	op.spilling = true
	op.qs.sess.AddSpill()
	op.buildFiles = make([]*runFile, spillPartitions)
	op.probeFiles = make([]*runFile, spillPartitions)
	for p := range op.buildFiles {
		bf, err := newRunFile(op.qs)
		if err != nil {
			return err
		}
		op.buildFiles[p] = bf
		pf, err := newRunFile(op.qs)
		if err != nil {
			return err
		}
		op.probeFiles[p] = pf
	}
	for i, k := range keys {
		if !k.ok {
			continue
		}
		if err := op.writeBuildRow(k.hash, int64(i), rows[i]); err != nil {
			return err
		}
	}
	op.qs.budget.Release(op.reserved)
	op.reserved = 0
	return nil
}

func (op *hashJoinOp) writeBuildRow(hash uint32, bseq int64, row types.Row) error {
	op.qs.sess.AddSpilledRows(1)
	return op.buildFiles[hash%spillPartitions].write(taggedRow{a: bseq, row: row})
}

// nextSpilled serves the Grace join: the first pull runs the partition
// joins, later pulls stream the order-restoring merge.
func (op *hashJoinOp) nextSpilled() ([]types.Row, error) {
	if op.merge == nil {
		if err := op.graceJoin(); err != nil {
			return nil, err
		}
	}
	if err := op.ctx.Err(); err != nil {
		return nil, err
	}
	return op.merge.next()
}

// graceJoin drains the probe side into partition files, joins each
// partition pair into output runs sorted by (probe, build) index, and
// opens the merge that restores global output order. Folding into the
// aggregation, the leaves write no runs and the merge is empty.
func (op *hashJoinOp) graceJoin() error {
	pseq := 0
	for {
		if err := op.ctx.Err(); err != nil {
			return err
		}
		batch, err := op.left.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		ks, err := parallel.Map(op.keyPool, len(batch), func(i int) (keyedRow, error) {
			return keyRow(op.leftKeys, batch[i], false)
		})
		if err != nil {
			return err
		}
		for i, k := range ks {
			if !k.ok {
				continue
			}
			op.qs.sess.AddSpilledRows(1)
			rf := op.probeFiles[k.hash%spillPartitions]
			if err := rf.write(taggedRow{a: int64(pseq + i), row: batch[i]}); err != nil {
				return err
			}
		}
		pseq += len(batch)
		op.qs.peak.latch(len(batch) + op.left.resident())
	}
	op.left.close()

	// Independent partition pairs join concurrently on the query's spill
	// workers: each pair owns its own build/probe files and every leaf
	// writes its own run files, so workers share nothing but the budget
	// (atomic reservations) and the session (mutex-guarded file creation).
	var pairs []int
	for p := range op.buildFiles {
		if op.buildFiles[p].count() > 0 && op.probeFiles[p].count() > 0 {
			pairs = append(pairs, p)
		}
	}
	m, err := op.qs.mergePartitions(len(pairs), op.batch, func(i int) ([]*runFile, error) {
		return op.joinPartition(op.buildFiles[pairs[i]], op.probeFiles[pairs[i]], 0)
	})
	closeRunFiles(op.buildFiles)
	closeRunFiles(op.probeFiles)
	op.buildFiles, op.probeFiles = nil, nil
	if err != nil {
		return err
	}
	op.merge = m
	return nil
}

// joinPartition joins one build/probe partition pair: in one chunk when
// the build rows fit the budget, recursively re-partitioned when
// re-hashing can still split them, in budget-sized chunks otherwise. It
// returns the leaves' output runs (none when the leaves fold into the
// aggregation).
func (op *hashJoinOp) joinPartition(build, probe *runFile, depth int) ([]*runFile, error) {
	n := build.count()
	if op.qs.budget.TryReserve(n) {
		return op.joinChunked(build, probe, n)
	}
	// Re-hashing the empty key cannot split a keyless partition.
	if len(op.rightKeys) > 0 && depth < maxSpillDepth && n > minSpillChunkRows {
		return op.repartition(build, probe, depth)
	}
	return op.joinChunked(build, probe, 0)
}

// probeToRun probes a resident build table into one output run sorted by
// (probe, build) index.
func (op *hashJoinOp) probeToRun(table map[string][]taggedRow, probe *runFile) ([]*runFile, error) {
	out, err := newRunFile(op.qs)
	if err != nil {
		return nil, err
	}
	err = op.probeTable(table, probe, func(a, b int64, row types.Row) error {
		op.qs.sess.AddSpilledRows(1)
		return out.write(taggedRow{a: a, b: b, row: row})
	})
	if err != nil {
		out.close()
		return nil, err
	}
	return []*runFile{out}, nil
}

// probeTable streams a probe partition through a resident build table and
// hands every match to emit in (probe, build) index order. The joined row
// is built in one scratch row, valid only until emit returns: a run
// encodes it before write returns, a leaf group table copies what it
// keeps.
func (op *hashJoinOp) probeTable(table map[string][]taggedRow, probe *runFile, emit func(a, b int64, row types.Row) error) error {
	pr, err := probe.openReader()
	if err != nil {
		return err
	}
	var key []byte
	var row types.Row
	for i := 0; ; i++ {
		if i%1024 == 0 {
			if err := op.ctx.Err(); err != nil {
				return err
			}
		}
		tr, err := pr.read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if key, _, err = appendJoinKey(key[:0], op.leftKeys, tr.row); err != nil {
			return err
		}
		for _, bt := range table[string(key)] {
			row = op.joinRowInto(row[:0], tr.row, bt.row)
			if op.residual != nil {
				ok, err := op.residual(row)
				if err != nil {
					return err
				}
				if !ok.Bool() {
					continue
				}
			}
			if err := emit(tr.a, bt.a, row); err != nil {
				return err
			}
		}
	}
}

// repartition re-salts the hash and splits an oversized partition pair
// into sub-partitions, recursing into each pair.
func (op *hashJoinOp) repartition(build, probe *runFile, depth int) ([]*runFile, error) {
	seed := uint32(depth + 1)
	split := func(src *runFile, keys []compiledExpr) ([]*runFile, error) {
		subs := make([]*runFile, spillPartitions)
		for i := range subs {
			rf, err := newRunFile(op.qs)
			if err != nil {
				closeRunFiles(subs)
				return nil, err
			}
			subs[i] = rf
		}
		fail := func(err error) ([]*runFile, error) {
			closeRunFiles(subs)
			return nil, err
		}
		r, err := src.openReader()
		if err != nil {
			return fail(err)
		}
		var key []byte
		for i := 0; ; i++ {
			if i%1024 == 0 {
				if err := op.ctx.Err(); err != nil {
					return fail(err)
				}
			}
			tr, err := r.read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fail(err)
			}
			if key, _, err = appendJoinKey(key[:0], keys, tr.row); err != nil {
				return fail(err)
			}
			op.qs.sess.AddSpilledRows(1)
			if err := subs[hashKeySeed(key, seed)%spillPartitions].write(tr); err != nil {
				return fail(err)
			}
		}
		return subs, nil
	}
	bsubs, err := split(build, op.rightKeys)
	if err != nil {
		return nil, err
	}
	psubs, err := split(probe, op.leftKeys)
	if err != nil {
		closeRunFiles(bsubs)
		return nil, err
	}
	var runs []*runFile
	for i := range bsubs {
		if bsubs[i].count() == 0 || psubs[i].count() == 0 {
			continue
		}
		rs, err := op.joinPartition(bsubs[i], psubs[i], depth+1)
		if err != nil {
			closeRunFiles(runs)
			closeRunFiles(bsubs)
			closeRunFiles(psubs)
			return nil, err
		}
		runs = append(runs, rs...)
	}
	closeRunFiles(bsubs)
	closeRunFiles(psubs)
	return runs, nil
}

// joinChunked loads the build partition into key-indexed tables one chunk
// at a time and streams the probe partition through each. The first chunk
// is the reserved rows the caller already holds — the whole partition
// when it fit the budget; with none, it is sized like every later chunk:
// the guaranteed minimum working set plus whatever the budget will grant,
// capped at the partition. A loaded chunk's rows count into the shared
// leafRows sum, so the latched peak reflects every concurrently loaded
// leaf. Every chunk's run stays sorted by (probe, build) index, so the
// global merge still restores exact order. Folding into the aggregation,
// the chunks share one leaf group table, which keeps each group's
// smallest tag.
func (op *hashJoinOp) joinChunked(build, probe *runFile, reserved int) ([]*runFile, error) {
	var leaf *leafAgg
	if op.agg != nil {
		leaf = op.agg.newLeaf(&op.leafRows)
		defer leaf.close()
	}
	br, err := build.openReader()
	if err != nil {
		op.qs.budget.Release(reserved)
		return nil, err
	}
	var runs []*runFile
	for left := build.count(); left > 0; reserved = 0 {
		if reserved == 0 {
			reserved = minSpillChunkRows
			op.qs.budget.ForceReserve(minSpillChunkRows)
			for reserved < build.count() && op.qs.budget.TryReserve(minSpillChunkRows) {
				reserved += minSpillChunkRows
			}
		}
		n := min(reserved, left)
		table, err := op.loadChunk(br, n)
		if err == nil {
			op.qs.peak.latch(int(op.leafRows.Add(int64(n))))
			var rs []*runFile
			if leaf != nil {
				leaf.setBuild(reserved)
				err = op.probeTable(table, probe, leaf.fold)
			} else {
				rs, err = op.probeToRun(table, probe)
			}
			op.leafRows.Add(int64(-n))
			runs = append(runs, rs...)
		}
		op.qs.budget.Release(reserved)
		if err != nil {
			closeRunFiles(runs)
			return nil, err
		}
		left -= n
	}
	if leaf != nil {
		return nil, leaf.flush()
	}
	return runs, nil
}

// loadChunk reads the next n build rows into a key-indexed table; within
// a key, rows keep build order.
func (op *hashJoinOp) loadChunk(br *runReader, n int) (map[string][]taggedRow, error) {
	table := make(map[string][]taggedRow)
	var key []byte
	for i := 0; i < n; i++ {
		if i%1024 == 0 {
			if err := op.ctx.Err(); err != nil {
				return nil, err
			}
		}
		tr, err := br.read()
		if err != nil {
			return nil, truncated(err)
		}
		if key, _, err = appendJoinKey(key[:0], op.rightKeys, tr.row); err != nil {
			return nil, err
		}
		table[string(key)] = append(table[string(key)], tr)
	}
	return table, nil
}
