package engine

import (
	"fmt"

	"sdb/internal/sqlparser"
)

// queryPlan is a compiled SELECT: the operator tree plus the visible output
// columns (kinds are inferred from data as batches flow).
type queryPlan struct {
	root operator
	cols []ResultColumn
	// est is the planner's output-cardinality estimate, consumed when the
	// plan is a FROM subquery of an enclosing SELECT.
	est int
	// qs is the query's spill context: the shared memory budget and the
	// temp-file session every blocking operator in the tree spills into.
	// Subquery subtrees share their parent's; whoever executes the plan
	// owns closing it.
	qs *querySpill
}

// planQuery plans a whole statement: the statement-wide column analysis
// first — part of the planner pass, so planner-off scans stay full width
// and the on/off differentials check the pruning — then the operator tree.
func (e *Engine) planQuery(s *sqlparser.Select, snap *Snapshot, qs *querySpill) (*queryPlan, error) {
	if !e.plannerOff {
		qs.refCols = referencedColumns(s)
	}
	return e.planSelect(s, snap, qs)
}

// planSelect compiles a SELECT into an operator tree:
//
//	scan/join → filter(WHERE) → hashAgg → filter(HAVING) → project
//	  → topK|sort(ORDER BY) → distinct → limit
//
// FROM and WHERE plan as one unit over the leaves of the join tree
// (planFrom): unless the planner pass is disabled (Options.Planner),
// single-leaf WHERE and ON conjuncts push below the joins,
// equalities bridging two join inputs become hash-join keys whichever
// clause wrote them, and row-count estimates pick build sides and pre-size
// hash state (see planner.go). Every table reference — including subqueries in FROM,
// which recurse with the same pin — resolves against the one snapshot the
// statement pinned at start, so the whole tree reads a prefix-consistent
// view and execution (open/next on the returned tree) is lock-free over
// immutable versions. The stage order after the projection matches the
// legacy materialized pipeline (sort, then dedup, then limit).
func (e *Engine) planSelect(s *sqlparser.Select, snap *Snapshot, qs *querySpill) (*queryPlan, error) {
	// A `*` in the select list expands over every visible column of this
	// SELECT's FROM inputs, so its scans keep them all.
	star := false
	for _, item := range s.Items {
		star = star || item.Star
	}

	// FROM + WHERE
	src, err := e.planFrom(s.From, s.Where, star, snap, qs)
	if err != nil {
		return nil, err
	}

	// Aggregation: the select is rewritten so later stages reference the
	// aggregate output columns (_gN/_aN) instead of aggregate calls.
	aggs := collectAggregates(s)
	if len(aggs) > 0 || len(s.GroupBy) > 0 {
		var aggOp operator
		aggOp, s, err = e.planAggregate(src, s, aggs, qs)
		if err != nil {
			return nil, err
		}
		src = planNode{op: aggOp, est: estGroups(src.est)}
		if s.Having != nil {
			ctx := e.evalCtx()
			pred, err := compile(s.Having, &relation{cols: src.op.columns()}, ctx)
			if err != nil {
				return nil, err
			}
			src = e.filterNode(src, pred, ctx.secure)
		}
	} else if s.Having != nil {
		return nil, fmt.Errorf("engine: HAVING without aggregation")
	}

	// Projection, with hidden ORDER BY key columns appended when the keys
	// are not addressable in the visible output.
	inRel := &relation{cols: src.op.columns()}
	ctx := e.evalCtx()
	sb := newSetBuilder(inRel, ctx, e.n)
	outCols, err := e.projection(s, inRel, sb)
	if err != nil {
		return nil, err
	}
	var ospec *orderSpec
	if len(s.OrderBy) > 0 {
		if ospec, err = e.compileOrderKeys(s, inRel, outCols, sb); err != nil {
			return nil, err
		}
	}
	set := sb.build()
	projSchema := make([]relCol, len(set.items))
	for i, oc := range outCols {
		projSchema[i] = relCol{name: oc.Name, kind: oc.Kind}
	}
	for i := len(outCols); i < len(projSchema); i++ {
		projSchema[i] = relCol{name: fmt.Sprintf("_ord%d", i-len(outCols)), hidden: true}
	}
	est := src.est
	var root operator = &projectOp{pool: e.rowPool(ctx.secure), child: src.op, set: set, schema: projSchema}

	// ORDER BY: a bounded top-K heap when LIMIT caps the result (and
	// DISTINCT does not need the full sorted set first), else a sort sink.
	if ospec != nil {
		if s.Limit != nil && !s.Distinct {
			root = &topKOp{child: root, spec: ospec, k: *s.Limit, outWidth: len(outCols), batch: e.batchRows(), qs: qs}
		} else {
			root = &sortOp{child: root, spec: ospec, outWidth: len(outCols), batch: e.batchRows(), qs: qs}
		}
	}

	// DISTINCT, then LIMIT (legacy stage order).
	if s.Distinct {
		d := &distinctOp{child: root}
		if !e.plannerOff {
			d.hint = estGroups(est)
		}
		root = d
		est = estGroups(est)
	}
	if s.Limit != nil {
		root = &limitOp{child: root, remaining: *s.Limit}
		est = estLimited(est, s.Limit)
	}
	return &queryPlan{root: root, cols: outCols, est: est, qs: qs}, nil
}

// planRef plans one leaf of the FROM clause's join tree (planFrom flattens
// the joins themselves). star marks a `*` in the enclosing select
// list: table scans then keep every visible column on top of the
// statement's referenced names (a subquery's scans answer to the
// subquery's own select list instead).
func (e *Engine) planRef(ref sqlparser.TableRef, star bool, snap *Snapshot, qs *querySpill) (planNode, error) {
	switch r := ref.(type) {
	case sqlparser.TableName:
		ent, err := snap.table(r.Name)
		if err != nil {
			return planNode{}, err
		}
		alias := r.Alias
		if alias == "" {
			alias = r.Name
		}
		full := tableSchema(ent.t, alias)
		op := newScanOp(full, ent.v, e.batchRows(), func(c relCol) bool {
			return qs.refCols == nil || qs.refCols[c.name] || (star && !c.hidden)
		})
		qs.scanCols += len(op.schema)
		qs.tableCols += len(full)
		return planNode{op: op, est: op.nrows}, nil

	case *sqlparser.SubqueryRef:
		sub, err := e.planSelect(r.Sel, snap, qs)
		if err != nil {
			return planNode{}, err
		}
		schema := make([]relCol, len(sub.cols))
		for i, c := range sub.cols {
			schema[i] = relCol{qual: lowered(r.Alias), name: lowered(c.Name), kind: c.Kind}
		}
		return planNode{op: &renameOp{child: sub.root, schema: schema}, est: sub.est}, nil

	default:
		return planNode{}, fmt.Errorf("engine: unsupported FROM item %T", ref)
	}
}
