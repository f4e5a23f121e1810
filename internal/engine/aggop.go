package engine

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"sdb/internal/parallel"
	"sdb/internal/spill"
	"sdb/internal/sqlparser"
	"sdb/internal/types"
)

// aggGroup is one group's accumulated state: its key values, the tag of
// its first row (for deterministic first-encounter output order) and one
// transition state per aggregate.
type aggGroup struct {
	keyVals []types.Value
	first   firstTag
	states  []aggState
}

// firstTag is a group's first-encounter index: where its first row stands
// in the aggregation's input order. A drain over the child's stream tags
// row i as (i, 0). A fold inside a Grace join's leaf (leafAgg) tags a match
// with the join's own (probe index, build index) tag; the join's merged
// output is in exactly that tag order, so a group's smallest tag orders
// groups as its first position in that stream would.
type firstTag struct{ a, b int64 }

func (t firstTag) before(u firstTag) bool { return t.a < u.a || (t.a == u.a && t.b < u.b) }

// hashAggOp is streaming hash aggregation: input batches drain at open into
// per-partition grouped state tables, which merge into one table whose
// groups emit in first-encounter order. Retained memory is O(#groups), not
// O(#input rows).
//
// Parallel shape: one partition per worker of the operator's pool, which is
// serial — one table — unless keys, arguments or sdb_min/sdb_max do secure
// arithmetic. Each input batch is split into one contiguous range per
// partition, folded into the partition's own state table (key evaluation,
// aggregate-argument evaluation and the state transitions, including the
// masked-comparison tournament). The per-partition tables merge pairwise
// at the end; every transition and merge is deterministic, so the result
// is bit-identical to the serial fold.
// When the group tables would cross the query's memory budget, the
// accumulated state spills: every group's serialized transition states
// append to one of spillPartitions key-hash partition files and the
// resident tables reset. Finalization then merges the partitions'
// spilled generations concurrently on the query's spill workers — one
// partition per worker at a time (state merges are associative,
// commutative and value-deterministic, so re-association on disk cannot
// change results) — sorts each partition's groups by first-encounter
// index into a run, and streams the k-way merge of those runs — the
// exact output order of the in-memory path, regardless of worker
// completion order.
//
// Directly over a hash join that goes Grace, the child's stream is never
// drained: the join's leaves fold their matches into leaf group tables
// (leafAgg) and write them as generations into the same partition files,
// so joined rows never reach disk; the child then reports end of stream
// and finalization proceeds as above.
type hashAggOp struct {
	pool   *parallel.Pool
	child  operator
	schema []relCol
	// set holds the group keys (items [0, nkeys)) and every aggregate's
	// arguments as one per-row evaluation.
	set     *exprSet
	nkeys   int
	specs   []aggSpec
	groupBy bool
	// groupHint pre-sizes the per-partition state tables (planner group
	// estimate; 0 = unknown).
	groupHint int
	batch     int
	qs        *querySpill

	ctx     context.Context
	win     rowWindow
	ngroups int
	drained bool

	// spill state
	reserved   int        // groups currently reserved against the budget
	spillFiles []*aggFile // per key-hash partition; nil until first spill
	filesMu    sync.Mutex // guards the creation of spillFiles
	merge      *mergeIter // first-encounter-ordered output when spilled
	// finalRows sums the merged-table weights resident across the
	// concurrently finalizing partitions, so the latched peak reflects
	// every partition a spill worker holds at once.
	finalRows atomic.Int64
}

// aggFile is one aggregation spill partition: serialized group records
// appended across spill generations. mu keeps the records of concurrent
// Grace leaves' generations from interleaving.
type aggFile struct {
	spillFile
	mu     sync.Mutex
	groups int
}

func newAggFile(qs *querySpill) (*aggFile, error) {
	sf, err := newSpillFile(qs)
	if err != nil {
		return nil, err
	}
	return &aggFile{spillFile: sf}, nil
}

func (op *hashAggOp) columns() []relCol { return op.schema }

func (op *hashAggOp) open(ctx context.Context) error {
	op.ctx = ctx
	if err := op.child.open(ctx); err != nil {
		return err
	}
	return op.drain()
}

func (op *hashAggOp) newGroup(keyVals []types.Value, first firstTag) (*aggGroup, error) {
	g := &aggGroup{keyVals: keyVals, first: first, states: make([]aggState, len(op.specs))}
	for i := range op.specs {
		st, err := op.specs[i].newState()
		if err != nil {
			return nil, err
		}
		g.states[i] = st
	}
	return g, nil
}

// drain consumes the child and builds the grouped state tables.
func (op *hashAggOp) drain() error {
	if op.drained {
		return nil
	}
	op.drained = true
	nparts := op.pool.Workers()
	// partials[p] is owned exclusively by partition p across all batches,
	// as is retained[p] — its running count of DISTINCT dedup entries —
	// so state weight is tracked in O(1) per row, never by rescanning.
	partials := make([]map[string]*aggGroup, nparts)
	retained := make([]int, nparts)
	base := 0
	for {
		if err := op.ctx.Err(); err != nil {
			return err
		}
		batch, err := op.child.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		// One contiguous chunk per partition: chunk index == partition id.
		chunk := (len(batch) + nparts - 1) / nparts
		err = parallel.New(nparts, chunk).ForEachChunk(len(batch), func(p, lo, hi int) error {
			tbl := partials[p]
			if tbl == nil {
				tbl = make(map[string]*aggGroup, op.groupHint/nparts)
				partials[p] = tbl
			}
			// The key, its values and the aggregate arguments are built in
			// per-chunk scratch; key values are copied only when a row opens
			// a new group.
			fr := op.set.frame()
			defer op.set.release(fr)
			vals := make([]types.Value, len(op.set.items))
			keyVals := vals[:op.nkeys]
			var key []byte
			for i := lo; i < hi; i++ {
				if err := op.set.eval(fr, batch[i], vals); err != nil {
					return err
				}
				key = key[:0]
				for _, v := range keyVals {
					key = v.AppendGroupKey(key)
				}
				g := tbl[string(key)]
				if g == nil {
					ng, err := op.newGroup(append([]types.Value(nil), keyVals...), firstTag{a: int64(base + i)})
					if err != nil {
						return err
					}
					g = ng
					tbl[string(key)] = g
				}
				for si := range op.specs {
					grew, err := op.specs[si].fold(g.states[si], op.set, fr, vals)
					if err != nil {
						return err
					}
					retained[p] += grew
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		base += len(batch)
		// weight is the resident-row cost of the state tables: one row
		// per group plus every retained auxiliary entry (DISTINCT dedup
		// sets), so single-group COUNT(DISTINCT …) pressure is visible to
		// the budget, not just group counts.
		weight := 0
		for p, tbl := range partials {
			weight += len(tbl) + retained[p]
		}
		// Budget first, then latch: a spill empties the tables, so the
		// recorded peak reflects what was actually retained past this batch.
		if delta := weight - op.reserved; delta > 0 {
			if op.qs.budget.TryReserve(delta) {
				op.reserved = weight
			} else {
				if err := op.spillGroups(partials); err != nil {
					return err
				}
				for p := range retained {
					retained[p] = 0
				}
				weight = 0
			}
		}
		op.qs.peak.latch(weight + len(batch) + op.child.resident())
	}
	op.child.close()
	return op.finalize(partials)
}

// spillGroups serializes every resident group to its key-hash partition
// file as one generation and resets the partial tables, returning their
// reservation.
func (op *hashAggOp) spillGroups(partials []map[string]*aggGroup) error {
	counted := false
	for pi, tbl := range partials {
		if len(tbl) == 0 {
			continue
		}
		if !counted {
			op.qs.sess.AddSpill()
			counted = true
		}
		if err := op.spillTable(tbl); err != nil {
			return err
		}
		partials[pi] = nil
	}
	op.qs.budget.Release(op.reserved)
	op.reserved = 0
	return nil
}

// partitionFiles returns the key-hash partition files, creating them on
// the first spill.
func (op *hashAggOp) partitionFiles() ([]*aggFile, error) {
	op.filesMu.Lock()
	defer op.filesMu.Unlock()
	if op.spillFiles == nil {
		files := make([]*aggFile, spillPartitions)
		for p := range files {
			af, err := newAggFile(op.qs)
			if err != nil {
				for _, f := range files[:p] {
					f.close()
				}
				return nil, err
			}
			files[p] = af
		}
		op.spillFiles = files
	}
	return op.spillFiles, nil
}

// spillTable appends every group of one table to its key-hash partition
// file. Grace leaves call it concurrently; each file takes one table's
// records at a time.
func (op *hashAggOp) spillTable(tbl map[string]*aggGroup) error {
	files, err := op.partitionFiles()
	if err != nil {
		return err
	}
	var parts [spillPartitions][]string
	for key := range tbl {
		p := hashKey(key) % spillPartitions
		parts[p] = append(parts[p], key)
	}
	for p, keys := range parts {
		if len(keys) == 0 {
			continue
		}
		af := files[p]
		af.mu.Lock()
		for _, key := range keys {
			if err = op.writeGroup(af, key, tbl[key]); err != nil {
				break
			}
		}
		af.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// leafAgg is the group table of one Grace join leaf: with the aggregation
// directly over the join, the leaf folds each match here instead of
// writing the joined row to an output run. The table leaves as one spill
// generation into the aggregation's partition files when the leaf
// finishes, or earlier when it reaches its share of the budget or the
// budget refuses it more rows.
type leafAgg struct {
	op *hashAggOp
	// resident is the join's count of rows held by every live leaf; the
	// table's reservation adds to it.
	resident *atomic.Int64
	groups   map[string]*aggGroup
	weight   int // groups plus retained DISTINCT entries
	reserved int // budget rows held for the table
	share    int // rows the table may reserve before it flushes
	fr       *frame
	vals     []types.Value
	key      []byte
}

// newLeaf starts the group table of a leaf holding build rows.
func (op *hashAggOp) newLeaf(resident *atomic.Int64, build int) *leafAgg {
	l := &leafAgg{
		op: op, resident: resident, groups: make(map[string]*aggGroup),
		fr: op.set.frame(), vals: make([]types.Value, len(op.set.items)),
	}
	l.setBuild(build)
	return l
}

// setBuild sizes the table's share for a leaf now holding build rows:
// half the query's limit (the budget's headroom may take the other half)
// split over the spill workers, less the build rows, but never below the
// minimum working set. Leaves that keep to their shares never refuse one
// another, so where a leaf flushes depends on its own rows and not on the
// timing of the leaves beside it.
func (l *leafAgg) setBuild(build int) {
	l.share = math.MaxInt
	if limit := l.op.qs.budget.Limit(); limit > 0 {
		l.share = max(limit/(2*l.op.qs.workers)-build, minSpillChunkRows)
	}
}

// fold aggregates one match: its (probe, build) tag and the joined row,
// which the caller may reuse once fold returns.
func (l *leafAgg) fold(a, b int64, row types.Row) error {
	op := l.op
	if err := op.set.eval(l.fr, row, l.vals); err != nil {
		return err
	}
	keyVals := l.vals[:op.nkeys]
	l.key = l.key[:0]
	for _, v := range keyVals {
		l.key = v.AppendGroupKey(l.key)
	}
	tag := firstTag{a, b}
	g := l.groups[string(l.key)]
	if g == nil {
		// Room first: a flush then writes the groups before this one,
		// not a group that has only seen its first match.
		if err := l.room(1); err != nil {
			return err
		}
		ng, err := op.newGroup(append([]types.Value(nil), keyVals...), tag)
		if err != nil {
			return err
		}
		g = ng
		l.groups[string(l.key)] = g
		l.weight++
	} else if tag.before(g.first) {
		// A chunked leaf re-streams its probe rows once per build chunk.
		g.first = tag
	}
	grew := 0
	for si := range op.specs {
		n, err := op.specs[si].fold(g.states[si], op.set, l.fr, l.vals)
		if err != nil {
			return err
		}
		grew += n
	}
	if grew > 0 {
		l.weight += grew
		return l.room(0)
	}
	return nil
}

// room makes the table's reservation cover need more rows: it reserves
// another block while the table stays within its share and the budget
// grants it, and otherwise flushes the table first. An empty table
// force-reserves its minimum working set instead, like a chunked join
// leaf's build chunk, so a starved leaf still makes progress.
func (l *leafAgg) room(need int) error {
	if l.weight+need <= l.reserved {
		return nil
	}
	budget := l.op.qs.budget
	n := max(l.weight+need-l.reserved, minSpillChunkRows)
	if l.reserved+n > l.share || !budget.TryReserve(n) {
		if len(l.groups) > 0 {
			if err := l.flush(); err != nil {
				return err
			}
			return l.room(need)
		}
		budget.ForceReserve(n)
	}
	l.reserved += n
	l.op.qs.peak.latch(int(l.resident.Add(int64(n))))
	return nil
}

// flush writes the table as one generation and empties it.
func (l *leafAgg) flush() error {
	if len(l.groups) > 0 {
		l.op.qs.sess.AddSpill()
		if err := l.op.spillTable(l.groups); err != nil {
			return err
		}
		clear(l.groups)
	}
	l.weight = 0
	l.release()
	return nil
}

func (l *leafAgg) release() {
	l.op.qs.budget.Release(l.reserved)
	l.resident.Add(int64(-l.reserved))
	l.reserved = 0
}

// close returns the table's reservation and scratch; unflushed groups are
// dropped (the leaf failed).
func (l *leafAgg) close() {
	l.release()
	l.op.set.release(l.fr)
	l.fr, l.groups = nil, nil
}

// aggRecord is one group's serialized form in a partition file: key,
// first-encounter tag, key values, one state row per aggregate.
type aggRecord struct {
	key     string
	first   firstTag
	keyVals types.Row
	states  []types.Row
}

// writeGroup appends one group's serialized record to a partition file.
func (op *hashAggOp) writeGroup(af *aggFile, key string, g *aggGroup) error {
	rec := aggRecord{key: key, first: g.first, keyVals: types.Row(g.keyVals)}
	for _, st := range g.states {
		row, err := st.spillRow()
		if err != nil {
			return err
		}
		rec.states = append(rec.states, row)
	}
	return op.writeRecord(af, rec)
}

func (op *hashAggOp) writeRecord(af *aggFile, rec aggRecord) error {
	op.qs.sess.AddSpilledRows(1)
	af.groups++
	if err := af.w.WriteString(rec.key); err != nil {
		return err
	}
	if err := af.w.WriteVarint(rec.first.a); err != nil {
		return err
	}
	if err := af.w.WriteVarint(rec.first.b); err != nil {
		return err
	}
	if err := af.w.WriteRow(rec.keyVals); err != nil {
		return err
	}
	for _, row := range rec.states {
		if err := af.w.WriteRow(row); err != nil {
			return err
		}
	}
	return nil
}

// readRecord reads one serialized group, or io.EOF at a clean end.
func (op *hashAggOp) readRecord(r *spill.Reader) (aggRecord, error) {
	key, err := r.ReadString()
	if err != nil {
		return aggRecord{}, err // io.EOF passes through at record boundary
	}
	rec := aggRecord{key: key}
	if rec.first.a, err = r.ReadVarint(); err != nil {
		return aggRecord{}, truncated(err)
	}
	if rec.first.b, err = r.ReadVarint(); err != nil {
		return aggRecord{}, truncated(err)
	}
	if rec.keyVals, err = r.ReadRow(); err != nil {
		return aggRecord{}, truncated(err)
	}
	rec.states = make([]types.Row, len(op.specs))
	for si := range op.specs {
		if rec.states[si], err = r.ReadRow(); err != nil {
			return aggRecord{}, truncated(err)
		}
	}
	return rec, nil
}

// finalizeSpilled completes a spilled aggregation: the still-resident
// groups flush as a final generation, then the key-hash partitions merge
// concurrently on the query's spill workers — every generation's record
// for a key folds into one group, each partition sorted by
// first-encounter index and written as a run. A key lives in exactly one
// partition, so workers share nothing but the budget (atomic
// reservations) and the session; the final combine is deterministic
// because runs are gathered in partition order and the tag-ordered merge
// streams groups in exact first-encounter order whatever the completion
// order was, with one partition per worker (plus merge look-ahead)
// resident at a time.
func (op *hashAggOp) finalizeSpilled(partials []map[string]*aggGroup) error {
	if err := op.spillGroups(partials); err != nil {
		return err
	}
	perPart := make([][]*runFile, len(op.spillFiles))
	err := op.qs.spillPool().ForEachChunk(len(op.spillFiles), func(_, lo, hi int) error {
		for p := lo; p < hi; p++ {
			leave := op.qs.enterSpillWorker()
			rs, err := op.partitionRuns(op.spillFiles[p], 0)
			leave()
			if err != nil {
				return err
			}
			perPart[p] = rs
		}
		return nil
	})
	for _, af := range op.spillFiles {
		af.close()
	}
	op.spillFiles = nil
	var runs []*runFile
	for _, rs := range perPart {
		runs = append(runs, rs...)
	}
	if err != nil {
		closeRunFiles(runs)
		return err
	}
	m, err := boundedMerge(op.qs, runs, tagCompare, op.batch)
	if err != nil {
		return err
	}
	op.merge = m
	return nil
}

// maxAggSplitDepth bounds the recursive re-splitting of aggregation
// partitions. It is deeper than the join's maxSpillDepth because the
// split criterion includes DISTINCT-set weight, which only divides when
// the groups carrying it divide — more levels may be needed before every
// partition's weight fits.
const maxAggSplitDepth = 4

// tableRetained sums a group table's auxiliary state entries.
func tableRetained(tbl map[string]*aggGroup) int {
	n := 0
	for _, g := range tbl {
		for _, st := range g.states {
			n += st.retained()
		}
	}
	return n
}

// partitionRuns turns one partition file into first-encounter-sorted
// output runs. A partition whose record count fits the budget merges
// resident; if the merged table's true weight (groups plus DISTINCT-set
// entries) still exceeds the reservation and the groups are divisible,
// it re-splits with a re-salted key hash and recurses. Only an
// irreducible partition — a single group whose auxiliary state alone
// exceeds the budget, or key skew past the recursion bound — is forced
// resident, with the overage reported honestly in PeakResidentRows.
func (op *hashAggOp) partitionRuns(af *aggFile, depth int) ([]*runFile, error) {
	if err := op.ctx.Err(); err != nil {
		return nil, err
	}
	if af.groups == 0 {
		return nil, nil
	}
	canSplit := depth < maxAggSplitDepth && af.groups > 1
	reserved := af.groups
	if !op.qs.budget.TryReserve(af.groups) {
		if canSplit && af.groups > minSpillChunkRows {
			return op.splitAndRecurse(af, depth)
		}
		// Irreducible partition: force only the minimum working set.
		// af.groups counts records across spill generations, which can
		// far overestimate the merged table (a hot key contributes one
		// record per generation but one merged group); the true weight
		// reconciles right after the merge below, so the forced
		// overshoot per worker stays bounded by minSpillChunkRows plus
		// any genuinely irreducible merged weight.
		reserved = minSpillChunkRows
		op.qs.budget.ForceReserve(reserved)
	}
	merged, err := op.mergePartition(af)
	if err != nil {
		op.qs.budget.Release(reserved)
		return nil, err
	}
	weight := len(merged) + tableRetained(merged)
	if extra := weight - reserved; extra > 0 {
		if !op.qs.budget.TryReserve(extra) {
			if canSplit && len(merged) > 1 {
				// DISTINCT sets blew past the record-count reservation and
				// the groups (and their sets) are divisible: re-split.
				op.qs.budget.Release(reserved)
				return op.splitAndRecurse(af, depth)
			}
			op.qs.budget.ForceReserve(extra)
		}
		reserved = weight
	}
	op.qs.peak.latch(int(op.finalRows.Add(int64(weight))))
	run, err := op.writeOutputRun(merged)
	op.finalRows.Add(int64(-weight))
	op.qs.budget.Release(reserved)
	if err != nil {
		return nil, err
	}
	return []*runFile{run}, nil
}

// splitAndRecurse redistributes a partition under a deeper hash salt and
// recurses into every sub-partition.
func (op *hashAggOp) splitAndRecurse(af *aggFile, depth int) ([]*runFile, error) {
	subs, err := op.splitPartition(af, depth)
	if err != nil {
		return nil, err
	}
	var runs []*runFile
	for _, sub := range subs {
		rs, err := op.partitionRuns(sub, depth+1)
		if err != nil {
			closeRunFiles(runs)
			for _, s := range subs {
				s.close()
			}
			return nil, err
		}
		runs = append(runs, rs...)
	}
	for _, sub := range subs {
		sub.close()
	}
	return runs, nil
}

// splitPartition redistributes a partition's records into sub-partition
// files under a deeper hash salt.
func (op *hashAggOp) splitPartition(af *aggFile, depth int) ([]*aggFile, error) {
	subs := make([]*aggFile, spillPartitions)
	closeSubs := func() {
		for _, s := range subs {
			if s != nil {
				s.close()
			}
		}
	}
	for i := range subs {
		af, err := newAggFile(op.qs)
		if err != nil {
			closeSubs()
			return nil, err
		}
		subs[i] = af
	}
	fail := func(err error) ([]*aggFile, error) {
		closeSubs()
		return nil, err
	}
	r, err := af.rewind()
	if err != nil {
		return fail(err)
	}
	seed := uint32(depth + 1)
	for {
		rec, err := op.readRecord(r)
		if err == io.EOF {
			return subs, nil
		}
		if err != nil {
			return fail(err)
		}
		sub := subs[hashKeySeed(rec.key, seed)%spillPartitions]
		if err := op.writeRecord(sub, rec); err != nil {
			return fail(err)
		}
	}
}

// mergePartition folds every spilled generation of one partition file
// into a single group table.
func (op *hashAggOp) mergePartition(af *aggFile) (map[string]*aggGroup, error) {
	r, err := af.rewind()
	if err != nil {
		return nil, err
	}
	merged := make(map[string]*aggGroup)
	for {
		rec, err := op.readRecord(r)
		if err == io.EOF {
			return merged, nil
		}
		if err != nil {
			return nil, err
		}
		g := merged[rec.key]
		fresh := g == nil
		if fresh {
			ng, err := op.newGroup([]types.Value(rec.keyVals), rec.first)
			if err != nil {
				return nil, err
			}
			g = ng
			merged[rec.key] = g
		}
		if rec.first.before(g.first) {
			g.first = rec.first
		}
		for si := range op.specs {
			if fresh {
				if err := g.states[si].loadSpillRow(rec.states[si]); err != nil {
					return nil, err
				}
				continue
			}
			other, err := op.specs[si].newState()
			if err != nil {
				return nil, err
			}
			if err := other.loadSpillRow(rec.states[si]); err != nil {
				return nil, err
			}
			if err := g.states[si].merge(other); err != nil {
				return nil, err
			}
		}
	}
}

// writeOutputRun finalizes one partition's groups into output rows
// sorted by first-encounter index.
func (op *hashAggOp) writeOutputRun(merged map[string]*aggGroup) (*runFile, error) {
	groups := make([]*aggGroup, 0, len(merged))
	for _, g := range merged {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].first.before(groups[j].first) })
	run, err := newRunFile(op.qs)
	if err != nil {
		return nil, err
	}
	for _, g := range groups {
		row := make(types.Row, 0, len(op.schema))
		row = append(row, g.keyVals...)
		for _, st := range g.states {
			v, err := st.final()
			if err != nil {
				run.close()
				return nil, err
			}
			row = append(row, v)
		}
		op.qs.sess.AddSpilledRows(1)
		if err := run.write(taggedRow{a: g.first.a, b: g.first.b, row: row}); err != nil {
			run.close()
			return nil, err
		}
	}
	return run, nil
}

// finalize merges partition tables in partition order and emits groups in
// first-encounter order.
func (op *hashAggOp) finalize(partials []map[string]*aggGroup) error {
	if op.spillFiles != nil {
		return op.finalizeSpilled(partials)
	}
	final := make(map[string]*aggGroup)
	for _, tbl := range partials {
		for k, g := range tbl {
			f := final[k]
			if f == nil {
				final[k] = g
				continue
			}
			if g.first.before(f.first) {
				f.first = g.first
			}
			for si := range f.states {
				if err := f.states[si].merge(g.states[si]); err != nil {
					return err
				}
			}
		}
	}
	groups := make([]*aggGroup, 0, len(final))
	for _, g := range final {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].first.before(groups[j].first) })

	// Global aggregation over empty input still yields one group.
	if len(groups) == 0 && !op.groupBy {
		g, err := op.newGroup(nil, firstTag{})
		if err != nil {
			return err
		}
		groups = append(groups, g)
	}

	op.win = rowWindow{rows: make([]types.Row, len(groups)), batch: op.batch}
	op.ngroups = len(groups)
	for gi, g := range groups {
		row := make(types.Row, 0, len(op.schema))
		row = append(row, g.keyVals...)
		for _, st := range g.states {
			v, err := st.final()
			if err != nil {
				return err
			}
			row = append(row, v)
		}
		op.win.rows[gi] = row
	}
	return nil
}

func (op *hashAggOp) next() ([]types.Row, error) {
	if err := op.ctx.Err(); err != nil {
		return nil, err
	}
	if op.merge != nil {
		return op.merge.next()
	}
	return op.win.next()
}

func (op *hashAggOp) close() error {
	op.win = rowWindow{}
	op.ngroups = 0
	op.finalRows.Store(0)
	op.qs.budget.Release(op.reserved)
	op.reserved = 0
	for _, af := range op.spillFiles {
		af.close()
	}
	op.spillFiles = nil
	op.merge.close()
	op.merge = nil
	return op.child.close()
}

func (op *hashAggOp) resident() int {
	return op.win.remaining() + op.merge.resident() + op.child.resident()
}

// planAggregate builds the aggregation operator over child for GROUP BY +
// aggregate calls, and returns (1) the operator, whose output columns are
// the group keys then the aggregate results, and (2) a rewritten Select
// whose expressions reference those columns instead of aggregate calls.
func (e *Engine) planAggregate(child planNode, s *sqlparser.Select, aggs []*sqlparser.FuncCall, qs *querySpill) (*hashAggOp, *sqlparser.Select, error) {
	rel := &relation{cols: child.op.columns()}
	ctx := e.evalCtx()
	set, specs, err := e.compileAggs(s.GroupBy, aggs, rel, ctx)
	if err != nil {
		return nil, nil, err
	}

	// Output schema: one column per group-by expr, one per aggregate.
	var schema []relCol
	subst := make(map[string]sqlparser.ColRef)
	for i, g := range s.GroupBy {
		name := fmt.Sprintf("_g%d", i)
		schema = append(schema, relCol{name: name})
		subst[g.String()] = sqlparser.ColRef{Name: name}
	}
	for i, spec := range specs {
		name := fmt.Sprintf("_a%d", i)
		schema = append(schema, relCol{name: name})
		subst[spec.call.String()] = sqlparser.ColRef{Name: name}
	}

	op := &hashAggOp{
		pool: e.rowPool(ctx.secure), child: child.op, schema: schema,
		set: set, nkeys: len(s.GroupBy), specs: specs,
		groupBy: len(s.GroupBy) > 0,
		batch:   e.batchRows(),
		qs:      qs,
	}
	if !e.plannerOff {
		op.groupHint = estGroups(child.est)
	}

	// Rewrite the Select to reference the aggregated columns.
	rs := &sqlparser.Select{
		Distinct: s.Distinct,
		Limit:    s.Limit,
	}
	for _, item := range s.Items {
		if item.Star {
			return nil, nil, fmt.Errorf("engine: SELECT * is not valid with GROUP BY")
		}
		alias := item.Alias
		if alias == "" {
			// Substitution renames columns to _gN/_aN; keep the original
			// user-visible name for the output schema.
			if cr, ok := item.Expr.(sqlparser.ColRef); ok {
				alias = cr.Name
			}
		}
		rs.Items = append(rs.Items, sqlparser.SelectItem{
			Expr:  substExpr(item.Expr, subst),
			Alias: alias,
		})
	}
	if s.Having != nil {
		rs.Having = substExpr(s.Having, subst)
	}
	for _, o := range s.OrderBy {
		rs.OrderBy = append(rs.OrderBy, sqlparser.OrderItem{Expr: substExpr(o.Expr, subst), Desc: o.Desc})
	}
	return op, rs, nil
}
