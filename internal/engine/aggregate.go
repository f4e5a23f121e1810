package engine

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"sdb/internal/bigmod"
	"sdb/internal/sqlparser"
	"sdb/internal/types"
)

// aggregateNames are the recognised aggregate functions. sdb_min/sdb_max
// are the secure aggregates over flat-key tags (see DESIGN.md §1): they
// select the extreme share using the masked-comparison protocol and return
// it still encrypted.
var aggregateNames = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
	"sdb_min": true, "sdb_max": true,
}

func isAggregateName(name string) bool {
	return aggregateNames[strings.ToLower(name)]
}

// collectAggregates finds every distinct aggregate call in the SELECT list,
// HAVING and ORDER BY.
func collectAggregates(s *sqlparser.Select) []*sqlparser.FuncCall {
	var out []*sqlparser.FuncCall
	seen := make(map[string]bool)
	walk := func(ex sqlparser.Expr) {
		walkExpr(ex, func(x sqlparser.Expr) bool {
			fc, ok := x.(*sqlparser.FuncCall)
			if !ok || !isAggregateName(fc.Name) {
				return true
			}
			if key := fc.String(); !seen[key] {
				seen[key] = true
				out = append(out, fc)
			}
			return false // don't descend into aggregate args
		})
	}
	for _, item := range s.Items {
		walk(item.Expr)
	}
	walk(s.Having)
	for _, o := range s.OrderBy {
		walk(o.Expr)
	}
	return out
}

// aggSpec is one compiled aggregate call. Its arguments are items
// [lo, hi) of the operator's expression set (the group keys come first),
// so every aggregate of the operator evaluates in one row program.
type aggSpec struct {
	call   *sqlparser.FuncCall
	name   string // lower-cased function name
	lo, hi int
	sum    *shareSum     // share SUM arithmetic (sum, avg)
	reveal *maskedReveal // sdb_min / sdb_max
}

// compileAggs builds the expression set of a hash aggregation — the group
// keys, then each aggregate's arguments — and the aggregate specs over it,
// compiling through ctx.
func (e *Engine) compileAggs(keys []sqlparser.Expr, aggs []*sqlparser.FuncCall, rel *relation, ctx *evalCtx) (*exprSet, []aggSpec, error) {
	sb := newSetBuilder(rel, ctx, e.n)
	for _, k := range keys {
		if _, err := sb.add(k); err != nil {
			return nil, nil, err
		}
	}
	specs := make([]aggSpec, len(aggs))
	for i, a := range aggs {
		spec := aggSpec{call: a, name: strings.ToLower(a.Name), lo: len(sb.set.items)}
		args := a.Args
		switch {
		case spec.name == "sdb_min" || spec.name == "sdb_max":
			if len(a.Args) != 4 {
				return nil, nil, fmt.Errorf("engine: %s expects (tag, mtag, p, n)", spec.name)
			}
			var err error
			if spec.reveal, err = newMaskedReveal(spec.name, a.Args[2], a.Args[3], ctx); err != nil {
				return nil, nil, err
			}
			args = a.Args[:2]
			for j, arg := range args {
				if err := checkShareColumn(arg, rel, spec.name, j+1); err != nil {
					return nil, nil, err
				}
			}
		case a.Star:
			args = nil
		case len(a.Args) == 0:
			// The states index their argument: an empty list would panic on
			// a pool goroutine, where no session-level recover reaches.
			return nil, nil, fmt.Errorf("engine: %s() needs an argument", spec.name)
		}
		if spec.name == "sum" || spec.name == "avg" {
			spec.sum = &shareSum{mc: e.mod()}
		}
		for j, arg := range args {
			if j == 0 && spec.name == "sum" && !a.Distinct && e.n != nil {
				_, fin, raw, err := sb.addSum(arg, e.n)
				if err != nil {
					return nil, nil, err
				}
				spec.sum.raw, spec.sum.fin = raw, fin
				continue
			}
			if _, err := sb.add(arg); err != nil {
				return nil, nil, err
			}
		}
		spec.hi = len(sb.set.items)
		specs[i] = spec
	}
	return sb.build(), specs, nil
}

// newState builds the incremental transition state for this aggregate.
func (sp *aggSpec) newState() (aggState, error) {
	switch sp.name {
	case "count":
		st := &countState{star: sp.call.Star, distinct: sp.call.Distinct}
		if st.distinct {
			st.seen = make(map[string]bool)
		}
		return st, nil
	case "sum":
		return newSumState(sp.call.Distinct, sp.sum), nil
	case "avg":
		return &avgState{sum: newSumState(sp.call.Distinct, sp.sum)}, nil
	case "min", "max":
		return &minMaxState{min: sp.name == "min"}, nil
	case "sdb_min", "sdb_max":
		return &secExtremeState{min: sp.name == "sdb_min", reveal: sp.reveal}, nil
	default:
		return nil, fmt.Errorf("engine: unknown aggregate %q", sp.name)
	}
}

// fold transitions st by one row whose set items were evaluated into vals
// (and, for a share SUM over a row program, into fr).
func (sp *aggSpec) fold(st aggState, set *exprSet, fr *frame, vals []types.Value) (int, error) {
	if sp.sum != nil && sp.sum.raw {
		st.(*sumState).addResidue(set.raw(fr, sp.lo))
		return 0, nil
	}
	return st.add(vals[sp.lo:sp.hi])
}

// aggState is the incremental form of one aggregate: rows transition into
// it one at a time (inside a parallel partition), partition states merge,
// and final produces the output value. All transitions and merges are
// associative-and-deterministic by construction, so partitioned execution
// reproduces the serial fold exactly.
// Every state also round-trips through one codec row (spillRow /
// loadSpillRow), which is what lets grouped state spill to disk and merge
// back without changing results.
type aggState interface {
	// add folds one row's argument values in and reports how many new
	// auxiliary entries (DISTINCT dedup keys) the state retained for it,
	// so callers can track resident weight incrementally in O(1) per row.
	add(vals []types.Value) (int, error)
	merge(other aggState) error
	final() (types.Value, error)
	// spillRow serializes the state as one spill-codec row.
	spillRow() (types.Row, error)
	// loadSpillRow restores a spillRow into a freshly-constructed state
	// of the same spec.
	loadSpillRow(row types.Row) error
	// retained reports the auxiliary entries the state holds beyond the
	// group row itself — DISTINCT dedup sets — so budget accounting sees
	// per-group state that grows with input cardinality.
	retained() int
}

// sortedKeys returns a map's keys in sorted order, so spilled state is
// byte-deterministic regardless of map iteration order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---- COUNT ----------------------------------------------------------------

type countState struct {
	star, distinct bool
	n              int64
	seen           map[string]bool
}

func (st *countState) add(vals []types.Value) (int, error) {
	if st.star {
		st.n++
		return 0, nil
	}
	v := vals[0]
	if v.IsNull() {
		return 0, nil
	}
	if st.distinct {
		k := v.GroupKey()
		if st.seen[k] {
			return 0, nil
		}
		st.seen[k] = true
		return 1, nil
	}
	st.n++
	return 0, nil
}

func (st *countState) merge(other aggState) error {
	o := other.(*countState)
	st.n += o.n
	for k := range o.seen {
		st.seen[k] = true
	}
	return nil
}

func (st *countState) final() (types.Value, error) {
	if st.distinct {
		return types.NewInt(int64(len(st.seen))), nil
	}
	return types.NewInt(st.n), nil
}

func (st *countState) retained() int { return len(st.seen) }

// spillRow: [n, distinct keys...].
func (st *countState) spillRow() (types.Row, error) {
	row := types.Row{types.NewInt(st.n)}
	for _, k := range sortedKeys(st.seen) {
		row = append(row, types.NewString(k))
	}
	return row, nil
}

func (st *countState) loadSpillRow(row types.Row) error {
	if len(row) < 1 {
		return fmt.Errorf("engine: malformed COUNT spill state")
	}
	st.n = row[0].I
	if st.distinct {
		for _, v := range row[1:] {
			st.seen[v.S] = true
		}
	}
	return nil
}

// ---- SUM ----------------------------------------------------------------

// shareSum is the modular side of a SUM: the modulus shares add under (the
// engine's; nil when it has none) and, for a SUM whose argument is a row
// program (raw), the constant F·R its total is finished with — the
// program's factor, applied once per group instead of once per row
// (nil when F = 1).
type shareSum struct {
	mc  *bigmod.MontCtx
	raw bool
	fin []big.Word
}

// sumPartial is a partial SUM: the integer sum (exact in 128 bits, so
// merge order cannot make it overflow), the k-limb share sum (nil until a
// share arrives) and the kind transition the fold ended in. A raw SUM's
// share sum is the unscaled residue sum — in memory, in spilled state and
// through merges.
type sumPartial struct {
	intSum types.Int128
	share  []big.Word
	kind   types.Kind
}

// addValue applies one value to the partial, mirroring the serial kind
// transitions exactly so partitioned and serial execution agree.
func (sp *sumPartial) addValue(v types.Value, mod *shareSum) error {
	switch v.K {
	case types.KindShare:
		// Modular share sum: all inputs are under a common flat key
		// (the proxy's rewrite guarantees it), so the sum is a share
		// of the plaintext sum under that key.
		if mod.mc == nil {
			return fmt.Errorf("engine: share SUM requires a configured modulus")
		}
		if sp.share == nil {
			sp.share = make([]big.Word, mod.mc.Words())
		}
		mod.mc.AddBig(sp.share, v.B)
		sp.kind = types.KindShare
	case types.KindInt, types.KindDecimal:
		sp.intSum.Add(v.I)
		if sp.kind != types.KindDecimal {
			sp.kind = v.K
		}
	default:
		return fmt.Errorf("engine: cannot SUM %s", v.K)
	}
	return nil
}

// merge folds another partial into sp, replaying the same transitions on
// the aggregated quantities.
func (sp *sumPartial) merge(other sumPartial, mod *shareSum) {
	if other.kind == types.KindNull {
		return
	}
	if other.share != nil {
		if sp.share == nil {
			sp.share = make([]big.Word, mod.mc.Words())
		}
		mod.mc.AddTo(sp.share, sp.share, other.share)
	}
	sp.intSum.Merge(other.intSum)
	if sp.kind != types.KindDecimal || other.kind == types.KindShare {
		sp.kind = other.kind
	}
}

type sumState struct {
	part     sumPartial
	mod      *shareSum
	distinct bool
	// seen maps dedup keys to values so DISTINCT partials can union-merge.
	seen map[string]types.Value
}

func newSumState(distinct bool, mod *shareSum) *sumState {
	st := &sumState{mod: mod, distinct: distinct}
	st.part.kind = types.KindNull
	if distinct {
		st.seen = make(map[string]types.Value)
	}
	return st
}

func (st *sumState) add(vals []types.Value) (int, error) {
	v := vals[0]
	if v.IsNull() {
		return 0, nil
	}
	grew := 0
	if st.distinct {
		k := v.GroupKey()
		if _, ok := st.seen[k]; ok {
			return 0, nil
		}
		st.seen[k] = v
		grew = 1
	}
	return grew, st.part.addValue(v, st.mod)
}

// addResidue folds one row program's unscaled residue: a limb add and a
// conditional subtract, no division and no allocation.
func (st *sumState) addResidue(x []big.Word) {
	if st.part.share == nil {
		st.part.share = make([]big.Word, len(x))
	}
	st.mod.mc.AddTo(st.part.share, st.part.share, x)
	st.part.kind = types.KindShare
}

func (st *sumState) merge(other aggState) error {
	o := other.(*sumState)
	if st.distinct {
		// Re-fold only the values this partial has not seen; the modular
		// and integer sums are value-determined, so the union is exact.
		for k, v := range o.seen {
			if _, ok := st.seen[k]; ok {
				continue
			}
			st.seen[k] = v
			if err := st.part.addValue(v, st.mod); err != nil {
				return err
			}
		}
		return nil
	}
	st.part.merge(o.part, st.mod)
	return nil
}

func (st *sumState) final() (types.Value, error) {
	switch st.part.kind {
	case types.KindNull:
		return types.Null, nil
	case types.KindShare:
		mc, sum := st.mod.mc, st.part.share
		if st.mod.fin != nil {
			z := make([]big.Word, mc.Words())
			mc.MulTo(mc.NewScratch(), z, sum, st.mod.fin)
			sum = z
		}
		return types.NewShare(mc.Int(sum)), nil
	default:
		sum, err := st.part.intSum.Int64()
		if err != nil {
			return types.Null, fmt.Errorf("engine: SUM: %w", err)
		}
		return types.Value{K: st.part.kind, I: sum}, nil
	}
}

func (st *sumState) retained() int { return len(st.seen) }

// spillRow: [kind, intSum high, intSum low, share sum|NULL, (distinct
// key, value)...]. A raw SUM spills its unscaled residue sum.
func (st *sumState) spillRow() (types.Row, error) {
	share := types.Null
	if st.part.share != nil {
		share = types.NewShare(st.mod.mc.Int(st.part.share))
	}
	row := types.Row{types.NewInt(int64(st.part.kind)), types.NewInt(st.part.intSum.Hi), types.NewInt(int64(st.part.intSum.Lo)), share}
	for _, k := range sortedKeys(st.seen) {
		row = append(row, types.NewString(k), st.seen[k])
	}
	return row, nil
}

func (st *sumState) loadSpillRow(row types.Row) error {
	if len(row) < 4 || (len(row)-4)%2 != 0 || (row[3].K == types.KindShare && st.mod.mc == nil) {
		return fmt.Errorf("engine: malformed SUM spill state")
	}
	st.part.kind = types.Kind(row[0].I)
	st.part.intSum = types.Int128{Hi: row[1].I, Lo: uint64(row[2].I)}
	if row[3].K == types.KindShare {
		st.part.share = st.mod.mc.Limbs(row[3].B)
	}
	if st.distinct {
		for i := 4; i < len(row); i += 2 {
			st.seen[row[i].S] = row[i+1]
		}
	}
	return nil
}

// ---- AVG ------------------------------------------------------------------

type avgState struct {
	sum   *sumState
	count int64 // non-null argument rows
}

func (st *avgState) add(vals []types.Value) (int, error) {
	if vals[0].IsNull() {
		return 0, nil
	}
	st.count++
	return st.sum.add(vals)
}

func (st *avgState) merge(other aggState) error {
	o := other.(*avgState)
	st.count += o.count
	return st.sum.merge(o.sum)
}

func (st *avgState) final() (types.Value, error) {
	switch st.sum.part.kind {
	case types.KindShare:
		return types.Null, fmt.Errorf("engine: AVG over shares must be rewritten to SUM + COUNT")
	case types.KindNull:
		return types.Null, nil
	}
	// AVG(DISTINCT x) divides the deduplicated sum by the deduplicated
	// count (SQL semantics); the dedup set already lives in the sum state.
	count := st.count
	if st.sum.distinct {
		count = int64(len(st.sum.seen))
	}
	if count == 0 {
		return types.Null, nil
	}
	// Two extra decimal digits of precision, in the 128-bit arithmetic of
	// the proxy's decrypted AVG (scale bookkeeping lives above us): the
	// sum itself need not fit an int64, only the mean.
	mean, err := st.sum.part.intSum.MeanX100(count)
	if err != nil {
		return types.Null, fmt.Errorf("engine: AVG: %w", err)
	}
	return types.Value{K: types.KindDecimal, I: mean}, nil
}

func (st *avgState) retained() int { return st.sum.retained() }

// spillRow: [count] followed by the embedded sum state's row.
func (st *avgState) spillRow() (types.Row, error) {
	sumRow, err := st.sum.spillRow()
	if err != nil {
		return nil, err
	}
	return append(types.Row{types.NewInt(st.count)}, sumRow...), nil
}

func (st *avgState) loadSpillRow(row types.Row) error {
	if len(row) < 1 {
		return fmt.Errorf("engine: malformed AVG spill state")
	}
	st.count = row[0].I
	return st.sum.loadSpillRow(row[1:])
}

// ---- MIN / MAX ------------------------------------------------------------

type minMaxState struct {
	min  bool
	best types.Value
}

func (st *minMaxState) better(v types.Value) bool {
	return st.best.IsNull() ||
		(st.min && v.Compare(st.best) < 0) ||
		(!st.min && v.Compare(st.best) > 0)
}

func (st *minMaxState) add(vals []types.Value) (int, error) {
	v := vals[0]
	if v.IsNull() {
		return 0, nil
	}
	if v.K == types.KindShare {
		return 0, fmt.Errorf("engine: MIN/MAX over shares requires sdb_min/sdb_max with an order token")
	}
	if st.better(v) {
		st.best = v
	}
	return 0, nil
}

func (st *minMaxState) merge(other aggState) error {
	o := other.(*minMaxState)
	if !o.best.IsNull() && st.better(o.best) {
		st.best = o.best
	}
	return nil
}

func (st *minMaxState) final() (types.Value, error) { return st.best, nil }

func (st *minMaxState) retained() int { return 0 }

// spillRow: [best] (NULL when no value was seen).
func (st *minMaxState) spillRow() (types.Row, error) {
	return types.Row{st.best}, nil
}

func (st *minMaxState) loadSpillRow(row types.Row) error {
	if len(row) != 1 {
		return fmt.Errorf("engine: malformed MIN/MAX spill state")
	}
	st.best = row[0]
	return nil
}

// ---- sdb_min / sdb_max ----------------------------------------------------

// secExtremeState implements sdb_min / sdb_max over flat-key tags: pairwise
// masked comparison (tag_c − tag_best)·mtag_c revealed with the flat
// product token P (Q = 0 because flat keys do not involve the row id). The
// winner's tag is retained, still encrypted under the flat key.
//
// Partitioned execution is a tournament: each partition holds its local
// winner (tag plus that row's mask, needed to compare the winner later),
// and partition winners reduce with the same masked-comparison protocol.
// Flat-key tags are deterministic per plaintext, so the winning tag is
// independent of the comparison association.
type secExtremeState struct {
	min       bool
	reveal    *maskedReveal
	tag, mtag *big.Int
}

// beats reports whether candidate (tag, mtag) wins against best.
func (st *secExtremeState) beats(tag, mtag, best *big.Int) bool {
	sign := st.reveal.sign(tag, best, mtag)
	return (st.min && sign < 0) || (!st.min && sign > 0)
}

func (st *secExtremeState) add(vals []types.Value) (int, error) {
	tag, mtag := vals[0], vals[1]
	if tag.IsNull() {
		return 0, nil
	}
	if tag.K != types.KindShare || mtag.K != types.KindShare {
		return 0, fmt.Errorf("engine: sdb_min/sdb_max args must be shares")
	}
	if st.tag == nil || st.beats(tag.B, mtag.B, st.tag) {
		st.tag, st.mtag = tag.B, mtag.B
	}
	return 0, nil
}

func (st *secExtremeState) merge(other aggState) error {
	o := other.(*secExtremeState)
	if o.tag == nil {
		return nil
	}
	if st.tag == nil || st.beats(o.tag, o.mtag, st.tag) {
		st.tag, st.mtag = o.tag, o.mtag
	}
	return nil
}

func (st *secExtremeState) retained() int { return 0 }

func (st *secExtremeState) final() (types.Value, error) {
	if st.tag == nil {
		return types.Null, nil
	}
	return types.NewShare(st.tag), nil
}

// spillRow: [tag, mask] of the partition winner as shares, [NULL, NULL]
// before any candidate — spilled state is exactly "a partition winner", and
// merging replays the tournament.
func (st *secExtremeState) spillRow() (types.Row, error) {
	if st.tag == nil {
		return types.Row{types.Null, types.Null}, nil
	}
	return types.Row{types.NewShare(st.tag), types.NewShare(st.mtag)}, nil
}

func (st *secExtremeState) loadSpillRow(row types.Row) error {
	switch {
	case len(row) != 2:
	case row[0].IsNull() && row[1].IsNull():
		st.tag, st.mtag = nil, nil
		return nil
	case row[0].K == types.KindShare && row[1].K == types.KindShare:
		st.tag, st.mtag = row[0].B, row[1].B
		return nil
	}
	return fmt.Errorf("engine: malformed sdb_min/sdb_max spill state")
}

// substExpr structurally replaces sub-expressions whose String() matches a
// key in subst with the corresponding column reference. Group-by
// expressions and aggregate calls are substituted this way after
// aggregation.
func substExpr(ex sqlparser.Expr, subst map[string]sqlparser.ColRef) sqlparser.Expr {
	if cr, ok := subst[ex.String()]; ok {
		return cr
	}
	switch x := ex.(type) {
	case *sqlparser.BinaryExpr:
		return &sqlparser.BinaryExpr{Op: x.Op, L: substExpr(x.L, subst), R: substExpr(x.R, subst)}
	case *sqlparser.UnaryExpr:
		return &sqlparser.UnaryExpr{Op: x.Op, E: substExpr(x.E, subst)}
	case *sqlparser.FuncCall:
		out := &sqlparser.FuncCall{Name: x.Name, Star: x.Star, Distinct: x.Distinct}
		for _, a := range x.Args {
			out.Args = append(out.Args, substExpr(a, subst))
		}
		return out
	case *sqlparser.BetweenExpr:
		return &sqlparser.BetweenExpr{E: substExpr(x.E, subst), Lo: substExpr(x.Lo, subst), Hi: substExpr(x.Hi, subst), Not: x.Not}
	case *sqlparser.InExpr:
		out := &sqlparser.InExpr{E: substExpr(x.E, subst), Not: x.Not}
		for _, i := range x.List {
			out.List = append(out.List, substExpr(i, subst))
		}
		return out
	case *sqlparser.LikeExpr:
		return &sqlparser.LikeExpr{E: substExpr(x.E, subst), Pattern: substExpr(x.Pattern, subst), Not: x.Not}
	case *sqlparser.IsNullExpr:
		return &sqlparser.IsNullExpr{E: substExpr(x.E, subst), Not: x.Not}
	case *sqlparser.CaseExpr:
		out := &sqlparser.CaseExpr{}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, sqlparser.WhenClause{Cond: substExpr(w.Cond, subst), Then: substExpr(w.Then, subst)})
		}
		if x.Else != nil {
			out.Else = substExpr(x.Else, subst)
		}
		return out
	default:
		return ex
	}
}
