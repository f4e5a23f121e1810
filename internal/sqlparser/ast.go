package sqlparser

import (
	"fmt"
	"math/big"
	"math/bits"
	"strconv"
	"strings"

	"sdb/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	String() string
}

// CreateTable is CREATE TABLE name (col type [SENSITIVE], …).
type CreateTable struct {
	Name string
	Cols []ColumnDef
}

// ColumnDef is one column definition.
type ColumnDef struct {
	Name string
	Type types.ColumnType
}

// DropTable is DROP TABLE name. The proxy forwards it verbatim and
// discards the table's column keys; a durable service provider logs it so
// the drop survives restart.
type DropTable struct {
	Name string
}

// Insert is INSERT INTO name [(cols)] VALUES (…), (…).
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// Update is UPDATE name SET col = expr, … [WHERE cond]. SDB uses it for
// server-side key rotation (SET col = sdb_keyupdate(col, …)).
type Update struct {
	Table string
	Set   []SetClause
	Where Expr
}

// SetClause is one col = expr assignment.
type SetClause struct {
	Column string
	Expr   Expr
}

// Select is a full SELECT statement.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	// Limit is nil when absent.
	Limit *int64
}

// SelectItem is one projection: an expression with optional alias, or *.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableRef is a FROM-clause item.
type TableRef interface {
	tableRef()
	String() string
}

// TableName references a stored table, optionally aliased.
type TableName struct {
	Name  string
	Alias string
}

// JoinRef is an explicit INNER JOIN with an ON condition.
type JoinRef struct {
	Left, Right TableRef
	On          Expr
}

// SubqueryRef is a derived table: (SELECT …) AS alias.
type SubqueryRef struct {
	Sel   *Select
	Alias string
}

func (*CreateTable) stmt() {}
func (*DropTable) stmt()   {}
func (*Insert) stmt()      {}
func (*Update) stmt()      {}
func (*Select) stmt()      {}

func (TableName) tableRef()    {}
func (*JoinRef) tableRef()     {}
func (*SubqueryRef) tableRef() {}

// Expr is any scalar expression.
type Expr interface {
	expr()
	String() string
}

// ColRef is a column reference, optionally table-qualified.
type ColRef struct {
	Table string
	Name  string
}

// IntLit is an integer literal.
type IntLit struct{ V int64 }

// DecLit is a fixed-point decimal literal: Scaled / 10^Scale.
type DecLit struct {
	Scaled int64
	Scale  int
}

// StrLit is a string literal.
type StrLit struct{ V string }

// DateLit is DATE 'YYYY-MM-DD', stored as epoch days.
type DateLit struct{ Days int64 }

// BoolLit is TRUE or FALSE.
type BoolLit struct{ V bool }

// NullLit is NULL.
type NullLit struct{}

// HexLit is an arbitrary-precision 0x… literal; rewritten queries carry SDB
// tokens and the modulus in these.
type HexLit struct{ V *big.Int }

// BinaryExpr is a binary operation. Op is one of
// + - * / % = != < <= > >= AND OR ||.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr is -expr or NOT expr.
type UnaryExpr struct {
	Op string // "-" or "NOT"
	E  Expr
}

// FuncCall is a function or aggregate call. Star marks COUNT(*); Distinct
// marks COUNT(DISTINCT e) etc.
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
}

// BetweenExpr is e [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Not       bool
}

// InExpr is e [NOT] IN (list…).
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

// LikeExpr is e [NOT] LIKE pattern.
type LikeExpr struct {
	E, Pattern Expr
	Not        bool
}

// IsNullExpr is e IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

// CaseExpr is CASE WHEN cond THEN val … [ELSE val] END.
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr
}

// WhenClause is one WHEN…THEN… arm.
type WhenClause struct {
	Cond, Then Expr
}

func (ColRef) expr()       {}
func (IntLit) expr()       {}
func (DecLit) expr()       {}
func (StrLit) expr()       {}
func (DateLit) expr()      {}
func (BoolLit) expr()      {}
func (NullLit) expr()      {}
func (HexLit) expr()       {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*FuncCall) expr()    {}
func (*BetweenExpr) expr() {}
func (*InExpr) expr()      {}
func (*LikeExpr) expr()    {}
func (*IsNullExpr) expr()  {}
func (*CaseExpr) expr()    {}

// ---- Deparsing. String() output re-parses to an equivalent AST; the SDB
// proxy relies on this to ship rewritten queries as SQL text.

func (c ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

func (l IntLit) String() string { return strconv.FormatInt(l.V, 10) }

func (l DecLit) String() string {
	return types.FormatDecimal(l.Scaled, l.Scale)
}

func (l StrLit) String() string { return string(l.appendTo(nil)) }

func (l DateLit) String() string { return string(l.appendTo(nil)) }

func (l BoolLit) String() string {
	if l.V {
		return "TRUE"
	}
	return "FALSE"
}

func (NullLit) String() string { return "NULL" }

func (l HexLit) String() string { return string(l.appendTo(nil)) }

// A literal's appendTo appends its String() to dst; Insert.String writes
// every cell of an upload through it into one buffer.
func (l IntLit) appendTo(dst []byte) []byte { return strconv.AppendInt(dst, l.V, 10) }

func (l DecLit) appendTo(dst []byte) []byte { return types.AppendDecimal(dst, l.Scaled, l.Scale) }

func (l StrLit) appendTo(dst []byte) []byte {
	dst = append(dst, '\'')
	for v := l.V; ; {
		i := strings.IndexByte(v, '\'')
		if i < 0 {
			dst = append(dst, v...)
			break
		}
		dst = append(dst, v[:i+1]...)
		dst = append(dst, '\'')
		v = v[i+1:]
	}
	return append(dst, '\'')
}

func (l DateLit) appendTo(dst []byte) []byte {
	dst = append(dst, "DATE '"...)
	return append(types.AppendDate(dst, types.NewDate(l.Days)), '\'')
}

func (l BoolLit) appendTo(dst []byte) []byte { return append(dst, l.String()...) }

func (l NullLit) appendTo(dst []byte) []byte { return append(dst, "NULL"...) }

// HexLit's digits are written from the words of the magnitude, most
// significant first, as big.Int.Text(16) writes them.
func (l HexLit) appendTo(dst []byte) []byte {
	if l.V.Sign() < 0 {
		dst = append(dst, '-')
	}
	dst = append(dst, "0x"...)
	words := l.V.Bits()
	if len(words) == 0 {
		return append(dst, '0')
	}
	top := len(words) - 1
	dst = strconv.AppendUint(dst, uint64(words[top]), 16)
	var buf [bits.UintSize / 4]byte
	for i := top - 1; i >= 0; i-- {
		digits := strconv.AppendUint(buf[:0], uint64(words[i]), 16)
		for k := len(digits); k < len(buf); k++ {
			dst = append(dst, '0')
		}
		dst = append(dst, digits...)
	}
	return dst
}

func (b *BinaryExpr) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

func (u *UnaryExpr) String() string {
	if u.Op == "NOT" {
		return "(NOT " + u.E.String() + ")"
	}
	return "(" + u.Op + u.E.String() + ")"
}

func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return f.Name + "(" + d + strings.Join(args, ", ") + ")"
}

func (b *BetweenExpr) String() string {
	not := ""
	if b.Not {
		not = "NOT "
	}
	return "(" + b.E.String() + " " + not + "BETWEEN " + b.Lo.String() + " AND " + b.Hi.String() + ")"
}

func (i *InExpr) String() string {
	items := make([]string, len(i.List))
	for k, e := range i.List {
		items[k] = e.String()
	}
	not := ""
	if i.Not {
		not = "NOT "
	}
	return "(" + i.E.String() + " " + not + "IN (" + strings.Join(items, ", ") + "))"
}

func (l *LikeExpr) String() string {
	not := ""
	if l.Not {
		not = "NOT "
	}
	return "(" + l.E.String() + " " + not + "LIKE " + l.Pattern.String() + ")"
}

func (i *IsNullExpr) String() string {
	not := ""
	if i.Not {
		not = "NOT "
	}
	return "(" + i.E.String() + " IS " + not + "NULL)"
}

func (c *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		sb.WriteString(" WHEN " + w.Cond.String() + " THEN " + w.Then.String())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE " + c.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

func (t TableName) String() string {
	if t.Alias != "" && !strings.EqualFold(t.Alias, t.Name) {
		return t.Name + " AS " + t.Alias
	}
	return t.Name
}

func (j *JoinRef) String() string {
	return j.Left.String() + " JOIN " + j.Right.String() + " ON " + j.On.String()
}

func (s *SubqueryRef) String() string {
	return "(" + s.Sel.String() + ") AS " + s.Alias
}

func (c *CreateTable) String() string {
	cols := make([]string, len(c.Cols))
	for i, col := range c.Cols {
		cols[i] = col.Name + " " + columnTypeSQL(col.Type)
	}
	return "CREATE TABLE " + c.Name + " (" + strings.Join(cols, ", ") + ")"
}

func (d *DropTable) String() string {
	return "DROP TABLE " + d.Name
}

func columnTypeSQL(t types.ColumnType) string {
	var s string
	switch t.Kind {
	case types.KindInt:
		s = "INT"
	case types.KindDecimal:
		s = fmt.Sprintf("DECIMAL(%d)", t.Scale)
	case types.KindDate:
		s = "DATE"
	case types.KindString:
		s = "STRING"
	case types.KindBool:
		s = "BOOL"
	case types.KindShare:
		s = "SHARE"
	default:
		s = "UNKNOWN"
	}
	if t.Sensitive {
		s += " SENSITIVE"
	}
	return s
}

func (u *Update) String() string {
	var sb strings.Builder
	sb.WriteString("UPDATE " + u.Table + " SET ")
	for i, set := range u.Set {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(set.Column + " = " + set.Expr.String())
	}
	if u.Where != nil {
		sb.WriteString(" WHERE " + u.Where.String())
	}
	return sb.String()
}

func (i *Insert) String() string {
	b := make([]byte, 0, i.renderSize())
	b = append(b, "INSERT INTO "...)
	b = append(b, i.Table...)
	if len(i.Columns) > 0 {
		b = append(b, " ("...)
		for k, c := range i.Columns {
			if k > 0 {
				b = append(b, ", "...)
			}
			b = append(b, c...)
		}
		b = append(b, ')')
	}
	b = append(b, " VALUES "...)
	for r, row := range i.Rows {
		if r > 0 {
			b = append(b, ", "...)
		}
		b = append(b, '(')
		for k, e := range row {
			if k > 0 {
				b = append(b, ", "...)
			}
			if lit, ok := e.(interface{ appendTo([]byte) []byte }); ok {
				b = lit.appendTo(b)
			} else {
				b = append(b, e.String()...)
			}
		}
		b = append(b, ')')
	}
	return string(b)
}

// renderSize estimates the length of String() from above for an upload
// of literals, so one allocation usually holds the whole statement.
func (i *Insert) renderSize() int {
	n := len("INSERT INTO  () VALUES ") + len(i.Table)
	for _, c := range i.Columns {
		n += len(c) + 2
	}
	for _, row := range i.Rows {
		n += 4
		for _, e := range row {
			switch l := e.(type) {
			case HexLit:
				n += 3 + (l.V.BitLen()+3)/4 // sign, 0x and digits
			case StrLit:
				n += len(l.V) + 4
			default:
				n += 20 // an int64, decimal or DATE literal
			}
			n += 2
		}
	}
	return n
}

func (s *Select) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if it.Star {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, f := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(f.String())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		keys := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			keys[i] = g.String()
		}
		sb.WriteString(" GROUP BY " + strings.Join(keys, ", "))
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		keys := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			keys[i] = o.Expr.String()
			if o.Desc {
				keys[i] += " DESC"
			}
		}
		sb.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if s.Limit != nil {
		sb.WriteString(fmt.Sprintf(" LIMIT %d", *s.Limit))
	}
	return sb.String()
}
