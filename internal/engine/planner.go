package engine

// This file is the planner pass between parse and operator construction.
// The naive tree compiles `FROM a, b WHERE a.k = b.k` into a nested-loop
// cross product with one post-join filter — O(n·m) rows materialised and
// filtered. The pass fixes that in three moves, none of which changes the
// result (docs/planner.md states the order contract):
//
//  1. WHERE is split into conjuncts; each conjunct referencing columns of
//     a single FROM input is pushed below the joins onto that input, and
//     equality conjuncts bridging two inputs become hash-join keys, so the
//     comma join plans the same hashJoinOp an explicit JOIN…ON would.
//  2. Row-count estimates (scanOp already knows its snapshot size) flow up
//     the tree: each left-deep join step compares the estimated sizes of
//     its two inputs and builds on the smaller one (flipping the
//     operator's internal roles while keeping the declared column order),
//     and the estimates pre-size the join/aggregation hash tables.
//  3. The proxy layers a rewrite/token cache on top (internal/proxy), so
//     repeated statements skip plan input derivation entirely.
//
// SDB_PLANNER=off (Options.Planner) disables the pass; the differential
// suites run both modes against each other.

import (
	"math"

	"sdb/internal/sqlparser"
)

// planNode is an operator annotated with the planner's output-cardinality
// estimate. Estimates are deliberately crude — exact scan counts combined
// with fixed selectivity guesses — because they only steer build-side
// choice and map pre-sizing, never correctness.
type planNode struct {
	op  operator
	est int
}

// Estimate model constants. The selectivity guesses are fixed: SDB's
// engine never sees plaintext values of sensitive columns, so value
// distribution stats are unknowable by design — row counts are the only
// honest signal, and these divisors just keep filtered estimates ordered
// below their inputs.
const (
	// filterSelDiv: a filtered input is estimated at child/3 rows.
	filterSelDiv = 3
	// groupDiv: an aggregation is estimated at child/4 groups.
	groupDiv = 4
	// swapBuildFactor: a join builds on its right input unless the right
	// estimate exceeds swapBuildFactor × the left estimate — the
	// hysteresis keeps near-tied inputs on the naive side, so plans (and
	// therefore output order, which a swap changes) only diverge when the
	// memory win is clear.
	swapBuildFactor = 2
)

func estFilter(n int) int { return n/filterSelDiv + 1 }

func estGroups(n int) int { return n/groupDiv + 1 }

// estJoinEqui estimates an equi-join at max(l, r): the common case in the
// schema this engine serves (TPC-H subset) is a foreign-key join, where
// every probe row matches at most a handful of build rows.
func estJoinEqui(l, r int) int {
	if l > r {
		return l
	}
	return r
}

// estCross is l×r with overflow saturation.
func estCross(l, r int) int {
	if l <= 0 || r <= 0 {
		return 0
	}
	if l > math.MaxInt/r {
		return math.MaxInt
	}
	return l * r
}

func estLimited(n int, limit *int64) int {
	if limit != nil && int64(n) > *limit {
		return int(*limit)
	}
	return n
}

// buildJoinOp assembles one left-deep join step between the covered inputs
// (left) and the next FROM input (right). With key pairs it plans a hash
// join, else a nested loop over cond (nil cond = pure cross join). Unless
// the planner is off, a hash join builds on the smaller estimated input: a
// swap exchanges the operator's internal probe/build children and sets
// flip, which restores the declared left++right column order on every
// emitted row. Nested loops never swap — their output order is the visible
// row order of WHERE-less cross products, which the planner must not
// change.
//
// leftKeys must be compiled against left's schema and rightKeys against
// right's; cond against the joined (left++right) schema.
func (e *Engine) buildJoinOp(left, right planNode, leftKeys, rightKeys []compiledExpr, cond compiledExpr, qs *querySpill) planNode {
	schema := append(append([]relCol{}, left.op.columns()...), right.op.columns()...)

	if len(leftKeys) > 0 {
		op := &hashJoinOp{e: e, schema: schema, residual: cond, batch: e.batchRows(), qs: qs}
		if !e.plannerOff && right.est > swapBuildFactor*left.est {
			op.left, op.right = right.op, left.op
			op.leftKeys, op.rightKeys = rightKeys, leftKeys
			op.flip = true
			op.buildHint = left.est
		} else {
			op.left, op.right = left.op, right.op
			op.leftKeys, op.rightKeys = leftKeys, rightKeys
			if !e.plannerOff {
				op.buildHint = right.est
			}
		}
		return planNode{op: op, est: estJoinEqui(left.est, right.est)}
	}

	op := &nestedLoopJoinOp{
		e: e, left: left.op, right: right.op, schema: schema, cond: cond,
		batch: e.batchRows(), qs: qs,
	}
	est := estCross(left.est, right.est)
	if cond != nil {
		est = estFilter(est)
	}
	return planNode{op: op, est: est}
}

// referencedColumns is the statement-wide analysis behind column pruning:
// the lower-cased name of every ColRef in any clause of s or of a FROM
// subquery at any depth. A scan may drop a stored column only when its name
// is not in the set, i.e. when no expression of the statement could resolve
// to it — qualifiers and scopes are deliberately ignored, which keeps too
// much rather than too little and leaves every "ambiguous column" / "no
// column" outcome exactly as the unpruned schemas produce it. nil (an
// expression form the walker does not know) means prune nothing.
func referencedColumns(s *sqlparser.Select) map[string]bool {
	names := make(map[string]bool)
	known := true
	expr := func(ex sqlparser.Expr) {
		known = walkExpr(ex, func(x sqlparser.Expr) bool {
			if cr, ok := x.(sqlparser.ColRef); ok {
				names[lowered(cr.Name)] = true
			}
			return true
		}) && known
	}
	var sel func(*sqlparser.Select)
	var from func(sqlparser.TableRef)
	from = func(ref sqlparser.TableRef) {
		switch r := ref.(type) {
		case *sqlparser.JoinRef:
			from(r.Left)
			from(r.Right)
			expr(r.On)
		case *sqlparser.SubqueryRef:
			sel(r.Sel)
		}
	}
	sel = func(s *sqlparser.Select) {
		for _, item := range s.Items {
			expr(item.Expr)
		}
		for _, ref := range s.From {
			from(ref)
		}
		expr(s.Where)
		for _, g := range s.GroupBy {
			expr(g)
		}
		expr(s.Having)
		for _, o := range s.OrderBy {
			expr(o.Expr)
		}
	}
	sel(s)
	if !known {
		return nil
	}
	return names
}

// conjRefs reports which FROM inputs a conjunct's column references bind
// to, as a bitmask over the input index. Columns resolve against the full
// joined relation — exactly the resolution the naive post-join filter
// would perform — so ambiguity and absence behave identically: any
// resolution failure (or an expression form the walker does not know)
// returns ok=false, and the conjunct stays in the top-level residual
// filter where compiling it reproduces the naive error.
func conjRefs(ex sqlparser.Expr, joined *relation, offsets []int) (mask uint64, ok bool) {
	resolved := true
	known := walkExpr(ex, func(x sqlparser.Expr) bool {
		cr, isCol := x.(sqlparser.ColRef)
		if !isCol {
			return true
		}
		idx, err := joined.resolve(cr.Table, cr.Name)
		if err != nil {
			resolved = false
			return true
		}
		for i := 0; i+1 < len(offsets); i++ {
			if idx >= offsets[i] && idx < offsets[i+1] {
				mask |= uint64(1) << uint(i)
				break
			}
		}
		return true
	})
	return mask, known && resolved
}

// classifiedConj is one WHERE conjunct with the set of FROM inputs it
// references.
type classifiedConj struct {
	ex   sqlparser.Expr
	mask uint64
}

// planFromWhere plans FROM + WHERE as one unit: single-input conjuncts are
// pushed below the joins onto their input, equality conjuncts bridging the
// covered prefix and the next input become hash-join keys at that left-deep
// step, and everything else (multi-input non-equi conjuncts, conjuncts
// referencing no input, and conjuncts the classifier cannot place) remains
// in a residual filter at the position the naive plan evaluates the whole
// WHERE. Join order is the FROM order — reordering inputs would change
// output order, which the planner never does; only the build side within a
// step is chosen by size (see buildJoinOp).
func (e *Engine) planFromWhere(refs []sqlparser.TableRef, where sqlparser.Expr, star bool, snap *Snapshot, qs *querySpill) (planNode, error) {
	nodes := make([]planNode, len(refs))
	offsets := make([]int, len(refs)+1)
	var full []relCol
	for i, ref := range refs {
		n, err := e.planRef(ref, star, snap, qs)
		if err != nil {
			return planNode{}, err
		}
		nodes[i] = n
		offsets[i] = len(full)
		full = append(full, n.op.columns()...)
	}
	offsets[len(refs)] = len(full)
	joined := &relation{cols: full}
	ctx := e.evalCtx()

	// Classify: push single-input conjuncts, queue bridging ones for the
	// join steps, keep the rest for the top residual.
	conjuncts := splitConjuncts(where)
	var residual []sqlparser.Expr
	perRef := make([][]sqlparser.Expr, len(refs))
	var crossing []classifiedConj
	for _, c := range conjuncts {
		mask, ok := conjRefs(c, joined, offsets)
		switch {
		case !ok || mask == 0:
			residual = append(residual, c)
		case mask&(mask-1) == 0: // single input
			i := bitIndex(mask)
			perRef[i] = append(perRef[i], c)
		default:
			crossing = append(crossing, classifiedConj{ex: c, mask: mask})
		}
	}
	for i := range refs {
		if len(perRef[i]) == 0 {
			continue
		}
		pred, err := compile(conjoin(perRef[i]), &relation{cols: nodes[i].op.columns()}, ctx)
		if err != nil {
			return planNode{}, err
		}
		nodes[i] = planNode{
			op:  &filterOp{e: e, child: nodes[i].op, pred: pred},
			est: estFilter(nodes[i].est),
		}
	}

	// Left-deep assembly in FROM order. Each step consumes the crossing
	// conjuncts whose highest-referenced input is the one being joined:
	// equalities with one side per join input become hash keys, the rest
	// become that join's residual condition.
	cur := nodes[0]
	covered := uint64(1)
	for i := 1; i < len(refs); i++ {
		bit := uint64(1) << uint(i)
		curRel := &relation{cols: cur.op.columns()}
		refRel := &relation{cols: nodes[i].op.columns()}
		var leftKeys, rightKeys []compiledExpr
		var joinRest []sqlparser.Expr
		remaining := crossing[:0:0]
		for _, c := range crossing {
			if c.mask&^(covered|bit) != 0 || c.mask&bit == 0 {
				remaining = append(remaining, c)
				continue
			}
			lk, rk, err := e.equiKeyPair(c.ex, curRel, refRel, joined, offsets, covered, bit)
			if err != nil {
				return planNode{}, err
			}
			if lk != nil {
				leftKeys = append(leftKeys, lk)
				rightKeys = append(rightKeys, rk)
			} else {
				joinRest = append(joinRest, c.ex)
			}
		}
		crossing = remaining

		var cond compiledExpr
		if len(joinRest) > 0 {
			var err error
			if cond, err = compile(conjoin(joinRest), &relation{cols: append(append([]relCol{}, curRel.cols...), refRel.cols...)}, ctx); err != nil {
				return planNode{}, err
			}
		}
		cur = e.buildJoinOp(cur, nodes[i], leftKeys, rightKeys, cond, qs)
		covered |= bit
	}

	// Anything unconsumed (unclassifiable conjuncts, constants — and,
	// defensively, any crossing leftovers) filters the joined stream where
	// the naive plan would have filtered everything.
	residual = append(residual, exprsOf(crossing)...)
	if len(residual) > 0 {
		pred, err := compile(conjoin(residual), joined, ctx)
		if err != nil {
			return planNode{}, err
		}
		cur = planNode{op: &filterOp{e: e, child: cur.op, pred: pred}, est: estFilter(cur.est)}
	}
	return cur, nil
}

// equiKeyPair tries to compile one bridging conjunct as a hash-join key
// pair for the step joining the covered inputs (curRel) with input bit
// (refRel): the conjunct must be an equality whose sides each reference
// columns of exactly one side of the step. A (nil, nil, nil) return means
// the conjunct is joinable only as a residual condition.
func (e *Engine) equiKeyPair(ex sqlparser.Expr, curRel, refRel, joined *relation, offsets []int, covered, bit uint64) (compiledExpr, compiledExpr, error) {
	be, ok := ex.(*sqlparser.BinaryExpr)
	if !ok || be.Op != "=" {
		return nil, nil, nil
	}
	lm, lok := conjRefs(be.L, joined, offsets)
	rm, rok := conjRefs(be.R, joined, offsets)
	if !lok || !rok || lm == 0 || rm == 0 {
		return nil, nil, nil
	}
	ctx := e.evalCtx()
	switch {
	case lm&^covered == 0 && rm&^bit == 0:
		lk, err := compile(be.L, curRel, ctx)
		if err != nil {
			return nil, nil, err
		}
		rk, err := compile(be.R, refRel, ctx)
		if err != nil {
			return nil, nil, err
		}
		return lk, rk, nil
	case rm&^covered == 0 && lm&^bit == 0:
		lk, err := compile(be.R, curRel, ctx)
		if err != nil {
			return nil, nil, err
		}
		rk, err := compile(be.L, refRel, ctx)
		if err != nil {
			return nil, nil, err
		}
		return lk, rk, nil
	}
	return nil, nil, nil
}

// bitIndex returns the index of the single set bit in mask.
func bitIndex(mask uint64) int {
	i := 0
	for mask > 1 {
		mask >>= 1
		i++
	}
	return i
}

func exprsOf(cs []classifiedConj) []sqlparser.Expr {
	var out []sqlparser.Expr
	for _, c := range cs {
		out = append(out, c.ex)
	}
	return out
}
