package engine

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"sdb/internal/parallel"
	"sdb/internal/spill"
	"sdb/internal/sqlparser"
	"sdb/internal/types"
)

// aggGroup is one group's accumulated state: its key values, the global
// index of its first row (for deterministic first-encounter output order)
// and one transition state per aggregate.
type aggGroup struct {
	keyVals  []types.Value
	firstIdx int
	states   []aggState
}

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
// partition per worker at a time (state merges are associative and
// value-deterministic, so re-association on disk cannot change
// results) — sorts each partition's groups by first-encounter index
// into a run, and streams the k-way merge of those runs — the exact
// output order of the in-memory path, regardless of worker completion
// order.
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
	merge      *mergeIter // first-encounter-ordered output when spilled
	// finalRows sums the merged-table weights resident across the
	// concurrently finalizing partitions, so the latched peak reflects
	// every partition a spill worker holds at once.
	finalRows atomic.Int64
}

// aggFile is one aggregation spill partition: serialized group records
// appended across spill generations.
type aggFile struct {
	spillFile
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

func (op *hashAggOp) newGroup(keyVals []types.Value, firstIdx int) (*aggGroup, error) {
	g := &aggGroup{keyVals: keyVals, firstIdx: firstIdx, states: make([]aggState, len(op.specs))}
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
					ng, err := op.newGroup(append([]types.Value(nil), keyVals...), base+i)
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
// file and resets the partial tables, returning their reservation.
func (op *hashAggOp) spillGroups(partials []map[string]*aggGroup) error {
	op.qs.sess.AddSpill()
	if op.spillFiles == nil {
		op.spillFiles = make([]*aggFile, spillPartitions)
		for p := range op.spillFiles {
			af, err := newAggFile(op.qs)
			if err != nil {
				return err
			}
			op.spillFiles[p] = af
		}
	}
	for pi, tbl := range partials {
		for key, g := range tbl {
			af := op.spillFiles[hashKey(key)%spillPartitions]
			if err := op.writeGroup(af, key, g); err != nil {
				return err
			}
		}
		partials[pi] = nil
	}
	op.qs.budget.Release(op.reserved)
	op.reserved = 0
	return nil
}

// aggRecord is one group's serialized form in a partition file: key,
// first-encounter index, key values, one state row per aggregate.
type aggRecord struct {
	key      string
	firstIdx int64
	keyVals  types.Row
	states   []types.Row
}

// writeGroup appends one group's serialized record to a partition file.
func (op *hashAggOp) writeGroup(af *aggFile, key string, g *aggGroup) error {
	rec := aggRecord{key: key, firstIdx: int64(g.firstIdx), keyVals: types.Row(g.keyVals)}
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
	if err := af.w.WriteVarint(rec.firstIdx); err != nil {
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
	if rec.firstIdx, err = r.ReadVarint(); err != nil {
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
			ng, err := op.newGroup([]types.Value(rec.keyVals), int(rec.firstIdx))
			if err != nil {
				return nil, err
			}
			g = ng
			merged[rec.key] = g
		}
		if int(rec.firstIdx) < g.firstIdx {
			g.firstIdx = int(rec.firstIdx)
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
	sort.Slice(groups, func(i, j int) bool { return groups[i].firstIdx < groups[j].firstIdx })
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
		if err := run.write(taggedRow{a: int64(g.firstIdx), row: row}); err != nil {
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
			if g.firstIdx < f.firstIdx {
				f.firstIdx = g.firstIdx
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
	sort.Slice(groups, func(i, j int) bool { return groups[i].firstIdx < groups[j].firstIdx })

	// Global aggregation over empty input still yields one group.
	if len(groups) == 0 && !op.groupBy {
		g, err := op.newGroup(nil, 0)
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
func (e *Engine) planAggregate(child planNode, s *sqlparser.Select, aggs []*sqlparser.FuncCall, qs *querySpill) (operator, *sqlparser.Select, error) {
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
