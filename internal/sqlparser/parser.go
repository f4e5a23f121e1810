package sqlparser

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"sdb/internal/types"
)

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// allow a trailing semicolon
	if p.peek().kind == tokPunct && p.peek().text == ";" {
		p.advance()
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sqlparser: trailing input at %q", p.peek().text)
	}
	return stmt, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(src string) (*Select, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*Select)
	if !ok {
		return nil, fmt.Errorf("sqlparser: expected SELECT, got %T", stmt)
	}
	return sel, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) peekAhead(k int) token {
	if p.i+k >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.i+k]
}

func (p *parser) advance() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sqlparser: expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return fmt.Errorf("sqlparser: expected %q, got %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) acceptOp(s string) bool {
	t := p.peek()
	if t.kind == tokOp && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sqlparser: expected identifier, got %q", t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.isKeyword("CREATE"):
		return p.parseCreateTable()
	case p.isKeyword("INSERT"):
		return p.parseInsert()
	case p.isKeyword("UPDATE"):
		return p.parseUpdate()
	case p.isKeyword("DROP"):
		return p.parseDropTable()
	default:
		return nil, fmt.Errorf("sqlparser: expected SELECT, CREATE, DROP, INSERT or UPDATE, got %q", p.peek().text)
	}
}

func (p *parser) parseDropTable() (Statement, error) {
	p.advance() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name}, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	upd := &Update{Table: name}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if !p.acceptOp("=") {
			return nil, fmt.Errorf("sqlparser: expected '=' after %q", col)
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, SetClause{Column: col, Expr: e})
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = e
	}
	return upd, nil
}

func (p *parser) parseCreateTable() (Statement, error) {
	p.advance() // CREATE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		colName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		colType, err := p.parseColumnType()
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", colName, err)
		}
		cols = append(cols, ColumnDef{Name: colName, Type: colType})
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &CreateTable{Name: name, Cols: cols}, nil
}

func (p *parser) parseColumnType() (types.ColumnType, error) {
	t := p.peek()
	var ct types.ColumnType
	switch {
	case t.kind == tokIdent || t.kind == tokKeyword:
		name := strings.ToUpper(t.text)
		switch name {
		case "INT", "INTEGER", "BIGINT":
			ct.Kind = types.KindInt
			p.advance()
		case "DECIMAL", "NUMERIC":
			p.advance()
			ct.Kind = types.KindDecimal
			ct.Scale = 2
			if p.acceptPunct("(") {
				st := p.peek()
				if st.kind != tokInt {
					return ct, fmt.Errorf("expected scale, got %q", st.text)
				}
				p.advance()
				// Either DECIMAL(scale) or DECIMAL(precision, scale);
				// only the final scale is validated and kept.
				scale, err := strconv.Atoi(st.text)
				if err != nil {
					return ct, fmt.Errorf("bad decimal scale %q", st.text)
				}
				if p.acceptPunct(",") {
					st2 := p.peek()
					if st2.kind != tokInt {
						return ct, fmt.Errorf("expected scale, got %q", st2.text)
					}
					p.advance()
					scale, err = strconv.Atoi(st2.text)
					if err != nil {
						return ct, fmt.Errorf("bad decimal scale %q", st2.text)
					}
				}
				if scale < 0 || scale > 12 {
					return ct, fmt.Errorf("decimal scale %d out of range [0,12]", scale)
				}
				ct.Scale = scale
				if err := p.expectPunct(")"); err != nil {
					return ct, err
				}
			}
		case "DATE":
			ct.Kind = types.KindDate
			p.advance()
		case "STRING", "TEXT", "VARCHAR", "CHAR":
			ct.Kind = types.KindString
			p.advance()
			if p.acceptPunct("(") { // ignore length
				if p.peek().kind == tokInt {
					p.advance()
				}
				if err := p.expectPunct(")"); err != nil {
					return ct, err
				}
			}
		case "BOOL", "BOOLEAN":
			ct.Kind = types.KindBool
			p.advance()
		case "SHARE":
			ct.Kind = types.KindShare
			p.advance()
		default:
			return ct, fmt.Errorf("unknown type %q", t.text)
		}
	default:
		return ct, fmt.Errorf("expected type, got %q", t.text)
	}
	if p.acceptKeyword("SENSITIVE") {
		ct.Sensitive = true
	}
	return ct, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name}
	if p.acceptPunct("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	return ins, nil
}

func (p *parser) parseSelect() (*Select, error) {
	p.advance() // SELECT
	sel := &Select{}
	sel.Distinct = p.acceptKeyword("DISTINCT")

	for {
		if p.peek().kind == tokOp && p.peek().text == "*" {
			p.advance()
			sel.Items = append(sel.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				alias, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.peek().kind == tokIdent {
				item.Alias = p.advance().text
			}
			sel.Items = append(sel.Items, item)
		}
		if p.acceptPunct(",") {
			continue
		}
		break
	}

	if p.acceptKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
	}

	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}

	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
	}

	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}

	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
	}

	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokInt {
			return nil, fmt.Errorf("sqlparser: expected LIMIT count, got %q", t.text)
		}
		p.advance()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("sqlparser: bad LIMIT %q", t.text)
		}
		sel.Limit = &v
	}

	return sel, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	left, err := p.parsePrimaryTableRef()
	if err != nil {
		return nil, err
	}
	for {
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			return left, nil
		}
		right, err := p.parsePrimaryTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left = &JoinRef{Left: left, Right: right, On: on}
	}
}

func (p *parser) parsePrimaryTableRef() (TableRef, error) {
	if p.acceptPunct("(") {
		if !p.isKeyword("SELECT") {
			return nil, fmt.Errorf("sqlparser: expected subquery after '(' in FROM")
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		ref := &SubqueryRef{Sel: sub}
		if p.acceptKeyword("AS") {
			alias, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ref.Alias = alias
		} else if p.peek().kind == tokIdent {
			ref.Alias = p.advance().text
		} else {
			return nil, fmt.Errorf("sqlparser: derived table requires an alias")
		}
		return ref, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ref := TableName{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ref.Alias = alias
	} else if p.peek().kind == tokIdent {
		ref.Alias = p.advance().text
	}
	return ref, nil
}

// ---- expressions, precedence climbing:
// OR < AND < NOT < comparison/IN/BETWEEN/LIKE/IS < additive(+,-,||) <
// multiplicative(*,/,%) < unary minus < primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		p.advance()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// postfix predicates
	for {
		switch {
		case p.peek().kind == tokOp && isCmpOp(p.peek().text):
			op := p.advance().text
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: op, L: l, R: r}
		case p.isKeyword("BETWEEN"):
			p.advance()
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BetweenExpr{E: l, Lo: lo, Hi: hi}
		case p.isKeyword("IN"):
			p.advance()
			list, err := p.parseExprList()
			if err != nil {
				return nil, err
			}
			l = &InExpr{E: l, List: list}
		case p.isKeyword("LIKE"):
			p.advance()
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &LikeExpr{E: l, Pattern: pat}
		case p.isKeyword("IS"):
			p.advance()
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			l = &IsNullExpr{E: l, Not: not}
		case p.isKeyword("NOT"):
			// e NOT BETWEEN / NOT IN / NOT LIKE
			save := p.i
			p.advance()
			switch {
			case p.isKeyword("BETWEEN"):
				p.advance()
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if err := p.expectKeyword("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &BetweenExpr{E: l, Lo: lo, Hi: hi, Not: true}
			case p.isKeyword("IN"):
				p.advance()
				list, err := p.parseExprList()
				if err != nil {
					return nil, err
				}
				l = &InExpr{E: l, List: list, Not: true}
			case p.isKeyword("LIKE"):
				p.advance()
				pat, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &LikeExpr{E: l, Pattern: pat, Not: true}
			default:
				p.i = save
				return l, nil
			}
		default:
			return l, nil
		}
	}
}

func isCmpOp(s string) bool {
	switch s {
	case "=", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) parseExprList() ([]Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return list, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokOp && (t.text == "+" || t.text == "-" || t.text == "||") {
			p.advance()
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokOp && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.advance()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// fold -literal
		switch lit := e.(type) {
		case IntLit:
			return IntLit{V: -lit.V}, nil
		case DecLit:
			return DecLit{Scaled: -lit.Scaled, Scale: lit.Scale}, nil
		case HexLit:
			return HexLit{V: new(big.Int).Neg(lit.V)}, nil
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	if p.acceptOp("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.advance()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlparser: bad integer %q", t.text)
		}
		return IntLit{V: v}, nil

	case tokDecimal:
		p.advance()
		return parseDecimalLit(t.text)

	case tokHex:
		p.advance()
		v, ok := new(big.Int).SetString(t.text, 16)
		if !ok {
			return nil, fmt.Errorf("sqlparser: bad hex literal %q", t.text)
		}
		return HexLit{V: v}, nil

	case tokString:
		p.advance()
		return StrLit{V: t.text}, nil

	case tokKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return NullLit{}, nil
		case "TRUE":
			p.advance()
			return BoolLit{V: true}, nil
		case "FALSE":
			p.advance()
			return BoolLit{V: false}, nil
		case "DATE":
			p.advance()
			st := p.peek()
			if st.kind != tokString {
				return nil, fmt.Errorf("sqlparser: DATE requires a 'YYYY-MM-DD' string")
			}
			p.advance()
			v, err := types.ParseDate(st.text)
			if err != nil {
				return nil, err
			}
			return DateLit{Days: v.I}, nil
		case "CASE":
			return p.parseCase()
		}
		return nil, fmt.Errorf("sqlparser: unexpected keyword %q in expression", t.text)

	case tokIdent:
		// function call or column reference
		if p.peekAhead(1).kind == tokPunct && p.peekAhead(1).text == "(" {
			return p.parseFuncCall()
		}
		p.advance()
		if p.peek().kind == tokOp && p.peek().text == "." {
			p.advance()
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return ColRef{Table: t.text, Name: col}, nil
		}
		return ColRef{Name: t.text}, nil

	case tokPunct:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("sqlparser: unexpected token %q in expression", t.text)
}

func parseDecimalLit(text string) (Expr, error) {
	dot := strings.IndexByte(text, '.')
	whole, frac := text[:dot], text[dot+1:]
	scale := len(frac)
	scaled, err := strconv.ParseInt(whole+frac, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("sqlparser: bad decimal %q", text)
	}
	return DecLit{Scaled: scaled, Scale: scale}, nil
}

func (p *parser) parseFuncCall() (Expr, error) {
	name := p.advance().text
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: strings.ToLower(name)}
	if p.peek().kind == tokOp && p.peek().text == "*" {
		p.advance()
		fc.Star = true
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.acceptPunct(")") {
		return fc, nil
	}
	fc.Distinct = p.acceptKeyword("DISTINCT")
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, e)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *parser) parseCase() (Expr, error) {
	p.advance() // CASE
	ce := &CaseExpr{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, fmt.Errorf("sqlparser: CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}
