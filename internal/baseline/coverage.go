package baseline

import (
	"fmt"
	"sort"
	"strings"

	"sdb/internal/sqlparser"
)

// Op enumerates the secure operations a query demands of its encrypted
// columns. The coverage checker extracts the set for a query and asks each
// system's rule table whether it can run the query natively (all operators
// at the server, no client-side fallback, no per-query precomputation).
type Op uint8

const (
	// OpEq: equality predicate / GROUP BY / DISTINCT on encrypted data.
	OpEq Op = iota
	// OpOrd: range predicate or ORDER BY on encrypted data.
	OpOrd
	// OpSum: SUM/AVG aggregate over an encrypted expression.
	OpSum
	// OpMinMax: MIN/MAX over encrypted data.
	OpMinMax
	// OpAddEE: addition of two encrypted operands.
	OpAddEE
	// OpAddEP: addition of an encrypted operand and a constant.
	OpAddEP
	// OpMulEE: multiplication of two encrypted operands.
	OpMulEE
	// OpMulEP: multiplication of an encrypted operand by a constant or a
	// plaintext column.
	OpMulEP
	// OpJoinEq: equi-join on encrypted columns.
	OpJoinEq
	// OpCompose: an encrypted operator applied to the OUTPUT of another
	// encrypted operator (e.g. SUM over a product of encrypted columns) —
	// the data-interoperability property itself.
	OpCompose
)

var opNames = map[Op]string{
	OpEq: "eq", OpOrd: "ord", OpSum: "sum", OpMinMax: "minmax",
	OpAddEE: "add(E,E)", OpAddEP: "add(E,p)", OpMulEE: "mul(E,E)",
	OpMulEP: "mul(E,p)", OpJoinEq: "join(E=E)", OpCompose: "compose",
}

func (o Op) String() string { return opNames[o] }

// OpSet is a set of required operations.
type OpSet map[Op]bool

// Add inserts an op.
func (s OpSet) Add(op Op) { s[op] = true }

// List returns the ops sorted for display.
func (s OpSet) List() []Op {
	out := make([]Op, 0, len(s))
	for op := range s {
		out = append(out, op)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s OpSet) String() string {
	parts := make([]string, 0, len(s))
	for _, op := range s.List() {
		parts = append(parts, op.String())
	}
	return strings.Join(parts, ",")
}

// CryptDBSupports encodes the onion rules (Popa et al., CACM 2012):
//
//   - equality, group-by and equi-join: DET/JOIN onion — supported
//   - order: OPE onion — supported
//   - SUM and add(E,E), mul(E,p): HOM (Paillier) — supported
//   - MIN/MAX: OPE — supported
//   - mul(E,E): no onion multiplies two ciphertexts — NOT supported
//   - composition: onions are not interoperable — any operator over the
//     output of another encrypted operator is NOT supported
func CryptDBSupports(ops OpSet) bool {
	if ops[OpMulEE] || ops[OpCompose] {
		return false
	}
	return true
}

// SDBSupports encodes SDB's operator set: everything above is covered by
// the share algebra, including composition — that is the point of data
// interoperability. (Division is client-side in both systems and is not an
// Op.)
func SDBSupports(ops OpSet) bool {
	return true
}

// SensitiveFn reports whether a column reference is sensitive. Analyses
// pass a closure over their schema.
type SensitiveFn func(table, column string) bool

// AnalyzeQuery extracts the OpSet a SELECT demands of sensitive columns.
func AnalyzeQuery(sel *sqlparser.Select, sensitive SensitiveFn) (OpSet, error) {
	a := &analyzer{sensitive: sensitive, ops: make(OpSet)}
	if _, err := a.selectStmt(sel); err != nil {
		return nil, err
	}
	return a.ops, nil
}

type analyzer struct {
	sensitive SensitiveFn
	ops       OpSet
	// aliases maps select-item aliases to their classification so that
	// ORDER BY revenue / HAVING total > x see through to the encrypted
	// aggregate they name. Derived-table outputs land here too, under both
	// "col" and "alias.col".
	aliases map[string]exprInfo
}

// exprInfo classifies a sub-expression. derived marks outputs that exist
// only in a computation-specific encrypted form that other onion families
// cannot consume (SUM/AVG outputs live in HOM; mul(E,E) has no onion at
// all). HOM is closed under add(E,E), add(E,p) and mul(E,p), so those do
// NOT set derived.
type exprInfo struct {
	enc     bool
	derived bool
}

// selectStmt analyzes one SELECT and returns the classification of its
// output columns by name (for derived tables and alias references).
func (a *analyzer) selectStmt(sel *sqlparser.Select) (map[string]exprInfo, error) {
	saved := a.aliases
	a.aliases = make(map[string]exprInfo)
	defer func() { a.aliases = saved }()
	// FROM first, so derived-table outputs are visible to the items.
	for _, ref := range sel.From {
		if err := a.tableRef(ref); err != nil {
			return nil, err
		}
	}
	outputs := make(map[string]exprInfo)
	for _, item := range sel.Items {
		if item.Star {
			continue
		}
		info, err := a.expr(item.Expr)
		if err != nil {
			return nil, err
		}
		name := strings.ToLower(item.Alias)
		if name == "" {
			if cr, ok := item.Expr.(sqlparser.ColRef); ok {
				name = strings.ToLower(cr.Name)
			}
		}
		if name != "" {
			a.aliases[name] = info
			outputs[name] = info
		}
	}
	if sel.Where != nil {
		if _, err := a.expr(sel.Where); err != nil {
			return nil, err
		}
	}
	for _, g := range sel.GroupBy {
		gi, err := a.expr(g)
		if err != nil {
			return nil, err
		}
		if gi.enc {
			a.ops.Add(OpEq)
			if gi.derived {
				a.ops.Add(OpCompose)
			}
		}
	}
	if sel.Having != nil {
		if _, err := a.expr(sel.Having); err != nil {
			return nil, err
		}
	}
	for _, o := range sel.OrderBy {
		oi, err := a.expr(o.Expr)
		if err != nil {
			return nil, err
		}
		if oi.enc {
			a.ops.Add(OpOrd)
			if oi.derived {
				a.ops.Add(OpCompose)
			}
		}
	}
	if sel.Distinct {
		a.ops.Add(OpEq)
	}
	return outputs, nil
}

func (a *analyzer) tableRef(ref sqlparser.TableRef) error {
	switch r := ref.(type) {
	case sqlparser.TableName:
		return nil
	case *sqlparser.SubqueryRef:
		outputs, err := a.selectStmt(r.Sel)
		if err != nil {
			return err
		}
		for name, info := range outputs {
			a.aliases[name] = info
			a.aliases[strings.ToLower(r.Alias)+"."+name] = info
		}
		return nil
	case *sqlparser.JoinRef:
		if err := a.tableRef(r.Left); err != nil {
			return err
		}
		if err := a.tableRef(r.Right); err != nil {
			return err
		}
		info, err := a.expr(r.On)
		if err != nil {
			return err
		}
		_ = info
		return nil
	default:
		return fmt.Errorf("baseline: unknown table ref %T", ref)
	}
}

func (a *analyzer) expr(ex sqlparser.Expr) (exprInfo, error) {
	switch x := ex.(type) {
	case sqlparser.ColRef:
		if x.Table != "" {
			if info, ok := a.aliases[strings.ToLower(x.Table)+"."+strings.ToLower(x.Name)]; ok {
				return info, nil
			}
		} else if info, ok := a.aliases[strings.ToLower(x.Name)]; ok {
			return info, nil
		}
		return exprInfo{enc: a.sensitive(x.Table, x.Name)}, nil

	case sqlparser.IntLit, sqlparser.DecLit, sqlparser.StrLit,
		sqlparser.DateLit, sqlparser.BoolLit, sqlparser.NullLit, sqlparser.HexLit:
		return exprInfo{}, nil

	case *sqlparser.BinaryExpr:
		l, err := a.expr(x.L)
		if err != nil {
			return exprInfo{}, err
		}
		r, err := a.expr(x.R)
		if err != nil {
			return exprInfo{}, err
		}
		switch x.Op {
		case "+", "-":
			switch {
			case l.enc && r.enc:
				a.ops.Add(OpAddEE)
			case l.enc || r.enc:
				a.ops.Add(OpAddEP)
			}
			// HOM is closed under addition: derived-ness propagates but
			// addition itself composes fine.
			return exprInfo{enc: l.enc || r.enc, derived: l.derived || r.derived}, nil
		case "*", "/", "%":
			switch {
			case l.enc && r.enc:
				// No onion multiplies two ciphertexts; the output has no
				// home onion at all.
				a.ops.Add(OpMulEE)
				return exprInfo{enc: true, derived: true}, nil
			case l.enc || r.enc:
				a.ops.Add(OpMulEP) // HOM exponentiation: still HOM
			}
			return exprInfo{enc: l.enc || r.enc, derived: l.derived || r.derived}, nil
		case "=", "!=":
			if l.enc || r.enc {
				if l.enc && r.enc && isJoinShape(x) {
					a.ops.Add(OpJoinEq)
				} else {
					a.ops.Add(OpEq)
				}
				if (l.enc && l.derived) || (r.enc && r.derived) {
					a.ops.Add(OpCompose)
				}
			}
			return exprInfo{}, nil
		case "<", "<=", ">", ">=":
			if l.enc || r.enc {
				a.ops.Add(OpOrd)
				if (l.enc && l.derived) || (r.enc && r.derived) {
					a.ops.Add(OpCompose)
				}
			}
			return exprInfo{}, nil
		default: // AND OR ||
			return exprInfo{}, nil
		}

	case *sqlparser.UnaryExpr:
		return a.expr(x.E)

	case *sqlparser.FuncCall:
		name := strings.ToLower(x.Name)
		var argInfo exprInfo
		for _, arg := range x.Args {
			ai, err := a.expr(arg)
			if err != nil {
				return exprInfo{}, err
			}
			if ai.enc {
				argInfo = ai
			}
		}
		switch name {
		case "sum", "avg":
			if argInfo.enc {
				a.ops.Add(OpSum)
				// Summing HOM-form inputs is fine (mul(E,E) inputs were
				// already flagged); the OUTPUT lives in HOM, which no
				// other onion can compare, group or order.
				return exprInfo{enc: true, derived: true}, nil
			}
		case "min", "max":
			if argInfo.enc {
				a.ops.Add(OpMinMax)
				if argInfo.derived {
					// MIN/MAX needs OPE, which cannot consume HOM output.
					a.ops.Add(OpCompose)
				}
				// OPE output stays comparable.
				return exprInfo{enc: true}, nil
			}
		case "count":
			if x.Distinct && argInfo.enc {
				a.ops.Add(OpEq)
			}
			return exprInfo{}, nil
		}
		return exprInfo{enc: argInfo.enc, derived: argInfo.enc}, nil

	case *sqlparser.BetweenExpr:
		e, err := a.expr(x.E)
		if err != nil {
			return exprInfo{}, err
		}
		if _, err := a.expr(x.Lo); err != nil {
			return exprInfo{}, err
		}
		if _, err := a.expr(x.Hi); err != nil {
			return exprInfo{}, err
		}
		if e.enc {
			a.ops.Add(OpOrd)
			if e.derived {
				a.ops.Add(OpCompose)
			}
		}
		return exprInfo{}, nil

	case *sqlparser.InExpr:
		e, err := a.expr(x.E)
		if err != nil {
			return exprInfo{}, err
		}
		if e.enc {
			a.ops.Add(OpEq)
		}
		for _, item := range x.List {
			if _, err := a.expr(item); err != nil {
				return exprInfo{}, err
			}
		}
		return exprInfo{}, nil

	case *sqlparser.LikeExpr:
		return exprInfo{}, nil

	case *sqlparser.IsNullExpr:
		return a.expr(x.E)

	case *sqlparser.CaseExpr:
		out := exprInfo{}
		for _, w := range x.Whens {
			if _, err := a.expr(w.Cond); err != nil {
				return exprInfo{}, err
			}
			ti, err := a.expr(w.Then)
			if err != nil {
				return exprInfo{}, err
			}
			if ti.enc {
				out = exprInfo{enc: true, derived: true}
			}
		}
		if x.Else != nil {
			ei, err := a.expr(x.Else)
			if err != nil {
				return exprInfo{}, err
			}
			if ei.enc {
				out = exprInfo{enc: true, derived: true}
			}
		}
		return out, nil

	default:
		return exprInfo{}, fmt.Errorf("baseline: unknown expression %T", ex)
	}
}

// isJoinShape reports whether an equality compares two column references
// from different tables.
func isJoinShape(x *sqlparser.BinaryExpr) bool {
	l, lok := x.L.(sqlparser.ColRef)
	r, rok := x.R.(sqlparser.ColRef)
	return lok && rok && !strings.EqualFold(l.Table, r.Table)
}
