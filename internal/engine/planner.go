package engine

// This file is the planner pass between parse and operator construction.
// The naive tree evaluates predicates where the statement writes them:
// `FROM a, b WHERE a.k = b.k` is a nested-loop cross product under one
// filter, and `FROM a JOIN b ON a.k = b.k WHERE a.x > 5` joins every row of
// a before looking at x. The pass fixes that in three moves, none of which
// changes the result (docs/planner.md states the order contract):
//
//  1. FROM is flattened to the leaves of its inner-join tree and the ON and
//     WHERE conjuncts pooled (planFrom); each conjunct naming a single leaf
//     is pushed below the joins onto that leaf, and equality conjuncts
//     bridging two join inputs become hash-join keys — whichever clause
//     wrote them, so comma joins and JOIN…ON plan the same tree.
//  2. Row-count estimates (scanOp already knows its snapshot size) flow up
//     the tree: each left-deep join step compares the estimated sizes of
//     its two inputs and builds on the smaller one (flipping the
//     operator's internal roles while keeping the declared column order),
//     and the estimates pre-size the join/aggregation hash tables.
//  3. The proxy layers a rewrite/token cache on top (internal/proxy), so
//     repeated statements skip plan input derivation entirely.
//
// Options.Planner "off" disables the pass; the differential suites run
// both modes against each other.

import (
	"math"

	"sdb/internal/sqlparser"
	"sdb/internal/types"
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

// buildJoinOp assembles one left-deep join step between the covered leaves
// (left) and the next FROM leaf (right). With key pairs it plans a hash
// join, else a nested loop over cond (nil cond = pure cross join). Unless
// the planner is off, a hash join builds on the smaller estimated input: a
// swap exchanges the operator's internal probe/build children and sets
// flip, which restores the declared left++right column order on every
// emitted row. Nested loops never swap — their output order is the visible
// row order of WHERE-less cross products, which the planner must not
// change.
//
// leftKeys must be compiled against left's schema and rightKeys against
// right's; cond against the joined (left++right) schema. The keys are
// computed on their pool, the probe (keys, then cond) runs on both's.
func (e *Engine) buildJoinOp(left, right planNode, leftKeys, rightKeys []compiledExpr, cond compiledExpr, keysSecure, condSecure bool, qs *querySpill) planNode {
	schema := append(append([]relCol{}, left.op.columns()...), right.op.columns()...)
	pool := e.rowPool(keysSecure || condSecure)

	if len(leftKeys) > 0 {
		op := &hashJoinOp{keyPool: e.rowPool(keysSecure), pool: pool, schema: schema, residual: cond, batch: e.batchRows(), qs: qs}
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
		pool: pool, left: left.op, right: right.op, schema: schema, cond: cond,
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

// conjunct is one AND-term of the statement's predicate pool: a WHERE
// conjunct, or an ON conjunct of one explicit join.
type conjunct struct {
	ex sqlparser.Expr
	// cols is the relation the conjunct's names resolve in, laid out like
	// the full FROM relation so a bound index addresses the joined row: all
	// of it for WHERE; for ON only the leaves of its own join — the columns
	// of leaves declared after the join are cut off and those of leaves of
	// an earlier comma-separated ref are blanked, so they neither resolve
	// nor make a name ambiguous.
	cols []relCol
	// home is the assembly step the AST puts the conjunct at, and where it
	// stays unless the classifier places it lower: the step joining the
	// last leaf of its own JOIN for ON, the filter above every join
	// (step len(leaves)) for WHERE.
	home int
}

// planFrom plans FROM + WHERE as one unit over the leaves of the inner-join
// tree. `a JOIN b ON p JOIN c ON q, d` is the leaf list [a, b, c, d] — all
// joins are INNER, so comma and JOIN differ only in where their predicates
// are written — assembled left-deep in that order, with the conjuncts of p,
// q and WHERE in one pool. Each conjunct is placed once: naming a single
// leaf it becomes a filter directly above that leaf; naming several it goes
// to the step that first covers them, as a hash key when it is an equality
// with one side per join input (equiKeyPair), else as that join's residual;
// naming none, or not resolving, it stays at its home step, where compiling
// it reports what the naive plan reports. Leaf order is never changed —
// that would change output order; only the build side within a step is
// chosen by size (buildJoinOp).
//
// With the planner off the same assembly runs with placement disabled, which
// is the AST-shaped tree: every conjunct at its home step, so an explicit
// JOIN hashes on its own ON equalities, a comma is a cross product and WHERE
// is one filter on top.
func (e *Engine) planFrom(refs []sqlparser.TableRef, where sqlparser.Expr, star bool, snap *Snapshot, qs *querySpill) (planNode, error) {
	type onClause struct {
		ex     sqlparser.Expr
		lo, hi int // the join's leaves are [lo, hi)
	}
	var leaves []sqlparser.TableRef
	var ons []onClause
	var flatten func(sqlparser.TableRef)
	flatten = func(ref sqlparser.TableRef) {
		j, ok := ref.(*sqlparser.JoinRef)
		if !ok {
			leaves = append(leaves, ref)
			return
		}
		lo := len(leaves)
		flatten(j.Left)
		flatten(j.Right)
		ons = append(ons, onClause{j.On, lo, len(leaves)})
	}
	for _, ref := range refs {
		flatten(ref)
	}

	// Plan the leaves. full is the joined relation, offsets[i] the first
	// column of leaf i in it and leafOf the inverse map.
	nodes := make([]planNode, len(leaves))
	offsets := make([]int, 1, len(leaves)+2)
	var full []relCol
	var leafOf []int
	for i, ref := range leaves {
		n, err := e.planRef(ref, star, snap, qs)
		if err != nil {
			return planNode{}, err
		}
		nodes[i] = n
		for range n.op.columns() {
			leafOf = append(leafOf, i)
		}
		full = append(full, n.op.columns()...)
		offsets = append(offsets, len(full))
	}
	if len(leaves) == 0 {
		// SELECT without FROM: a single empty row is the only leaf.
		nodes = []planNode{{op: &valuesOp{rows: []types.Row{{}}}, est: 1}}
		offsets = append(offsets, 0)
	}
	n := len(nodes)

	var pool []conjunct
	for _, on := range ons {
		cols := full[:offsets[on.hi]]
		if on.lo > 0 {
			cols = append(make([]relCol, offsets[on.lo]), cols[offsets[on.lo]:]...)
		}
		for _, ex := range splitConjuncts(on.ex) {
			pool = append(pool, conjunct{ex: ex, cols: cols, home: on.hi - 1})
		}
	}
	if where != nil {
		for _, ex := range splitConjuncts(where) {
			pool = append(pool, conjunct{ex: ex, cols: full, home: n})
		}
	}

	// Place every conjunct: pushed[i] filters leaf i, steps[i] belongs to the
	// join of leaf i (1 ≤ i < n), steps[n] to the filter above the joins.
	pushed := make([][]sqlparser.Expr, n)
	steps := make([][]conjunct, n+1)
	for _, c := range pool {
		at := c.home
		if !e.plannerOff {
			if lo, hi, ok := leafSpan(c.ex, c.cols, leafOf); ok && lo <= hi {
				if lo == hi {
					pushed[lo] = append(pushed[lo], c.ex)
					continue
				}
				at = hi
			}
		}
		steps[at] = append(steps[at], c)
	}
	for i, exprs := range pushed {
		if len(exprs) == 0 {
			continue
		}
		ctx := e.evalCtx()
		pred, err := compile(conjoin(exprs), &relation{cols: full[offsets[i]:offsets[i+1]]}, ctx)
		if err != nil {
			return planNode{}, err
		}
		nodes[i] = e.filterNode(nodes[i], pred, ctx.secure)
	}

	// Left-deep assembly in leaf order.
	cur := nodes[0]
	for i := 1; i < n; i++ {
		var leftKeys, rightKeys []compiledExpr
		var rest []conjunct
		kctx, cctx := e.evalCtx(), e.evalCtx()
		for _, c := range steps[i] {
			lk, rk, err := equiKeyPair(c, i, offsets, leafOf, kctx)
			if err != nil {
				return planNode{}, err
			}
			if lk == nil {
				rest = append(rest, c)
				continue
			}
			leftKeys = append(leftKeys, lk)
			rightKeys = append(rightKeys, rk)
		}
		cond, err := compileAll(rest, offsets[i+1], cctx)
		if err != nil {
			return planNode{}, err
		}
		cur = e.buildJoinOp(cur, nodes[i], leftKeys, rightKeys, cond, kctx.secure, cctx.secure, qs)
	}
	ctx := e.evalCtx()
	top, err := compileAll(steps[n], len(full), ctx)
	if err != nil {
		return planNode{}, err
	}
	if top != nil {
		cur = e.filterNode(cur, top, ctx.secure)
	}
	return cur, nil
}

func (e *Engine) filterNode(child planNode, pred compiledExpr, secure bool) planNode {
	return planNode{op: &filterOp{pool: e.rowPool(secure), child: child.op, pred: pred}, est: estFilter(child.est)}
}

// leafSpan resolves every column reference of ex in cols and reports the
// lowest and highest FROM leaf they bind to; lo > hi means ex names no
// column. ok is false when a name does not resolve — absent, ambiguous, or
// outside an ON clause's own join — or ex holds an expression form the
// walker does not know. Resolution is exactly what compiling the conjunct at
// its home step performs, so whatever the classifier declines to place
// fails there with the naive plan's error.
func leafSpan(ex sqlparser.Expr, cols []relCol, leafOf []int) (lo, hi int, ok bool) {
	lo, hi = len(leafOf), -1
	rel := &relation{cols: cols}
	resolved := true
	known := walkExpr(ex, func(x sqlparser.Expr) bool {
		cr, isCol := x.(sqlparser.ColRef)
		if !isCol {
			return true
		}
		idx, err := rel.resolve(cr.Table, cr.Name)
		if err != nil {
			resolved = false
			return true
		}
		lo, hi = min(lo, leafOf[idx]), max(hi, leafOf[idx])
		return true
	})
	return lo, hi, known && resolved
}

// equiKeyPair tries to compile conjunct c as a hash-join key pair for the
// step joining leaf `step` to the leaves before it: c must be an equality
// with one side naming only earlier leaves and the other only leaf step.
// The keys bind against their own side's row. A (nil, nil, nil) return
// means the conjunct is joinable only as a residual condition.
func equiKeyPair(c conjunct, step int, offsets, leafOf []int, ctx *evalCtx) (lk, rk compiledExpr, err error) {
	be, ok := c.ex.(*sqlparser.BinaryExpr)
	if !ok || be.Op != "=" {
		return nil, nil, nil
	}
	l, r := be.L, be.R
	llo, lhi, lok := leafSpan(l, c.cols, leafOf)
	rlo, rhi, rok := leafSpan(r, c.cols, leafOf)
	if llo == step && lhi == step {
		l, r = r, l
		llo, lhi, rlo, rhi = rlo, rhi, llo, lhi
	}
	if !lok || !rok || lhi < 0 || lhi >= step || rlo != step || rhi != step {
		return nil, nil, nil
	}
	if lk, err = compile(l, &relation{cols: c.cols[:offsets[step]]}, ctx); err != nil {
		return nil, nil, err
	}
	if rk, err = compile(r, &relation{cols: c.cols[offsets[step]:offsets[step+1]]}, ctx); err != nil {
		return nil, nil, err
	}
	return lk, rk, nil
}

// compileAll binds each conjunct against the first width columns of its own
// relation and returns their conjunction (nil for none), evaluated left to
// right with AND's short circuit.
func compileAll(cs []conjunct, width int, ctx *evalCtx) (compiledExpr, error) {
	preds := make([]compiledExpr, len(cs))
	for i, c := range cs {
		var err error
		if preds[i], err = compile(c.ex, &relation{cols: c.cols[:width]}, ctx); err != nil {
			return nil, err
		}
	}
	switch len(preds) {
	case 0:
		return nil, nil
	case 1:
		return preds[0], nil
	}
	return func(row types.Row) (types.Value, error) {
		for _, p := range preds {
			v, err := p(row)
			if err != nil {
				return types.Null, err
			}
			if !v.Bool() {
				return types.NewBool(false), nil
			}
		}
		return types.NewBool(true), nil
	}, nil
}
