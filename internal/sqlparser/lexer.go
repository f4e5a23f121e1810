// Package sqlparser implements the SQL dialect shared by the SDB proxy and
// the service-provider engine: a lexer, an AST with exact deparsing (the
// proxy ships rewritten SQL *text* to the SP, as in the paper's Figure 3),
// and a recursive-descent parser.
//
// The dialect covers what the TPC-H workload and the SDB rewrites need:
// CREATE TABLE (with the SENSITIVE column attribute), INSERT, and SELECT
// with joins, WHERE, GROUP BY, HAVING, ORDER BY, LIMIT, DISTINCT, CASE,
// IN/BETWEEN/LIKE/IS NULL, scalar functions and aggregates, subqueries in
// FROM, and arbitrary-precision hex literals (0x…) used to carry SDB
// tokens inside rewritten queries.
//
// Uploads are the longest text either side handles: the proxy renders
// every rewritten INSERT once, and the engine parses it back. So the
// VALUES path is short at every step:
//   - the lexer sizes its token slice from the input, slices a quoted
//     string with no doubled quote out of the source, and matches
//     keywords without allocating;
//   - the parser reads a VALUES cell that is one literal (or a minus and
//     a numeric literal) followed by ',' or ')' with parsePrimary, not
//     through the ten precedence levels of parseExpr, and decodes hex
//     digits straight into words;
//   - the renderer writes an INSERT into one pre-sized buffer, its
//     literals through strconv.
//
// Each short cut yields the AST and the text the general path would
// (TestValuesFastPathMatchesExpr, TestInsertRenderGolden, FuzzInsertValues).
package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind enumerates lexical token kinds.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokDecimal
	tokHex
	tokString
	tokOp    // operators: + - * / % = != <> < <= > >= || .
	tokPunct // ( ) , ;
)

type token struct {
	kind tokenKind
	text string // raw text; keywords upper-cased
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "<eof>"
	}
	return t.text
}

// keywords is the reserved-word set, each mapped to itself so a lexed
// keyword's text is this string, not a fresh copy. Function names (SUM,
// COUNT, sdb_mul…) are deliberately NOT keywords; they lex as identifiers.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "ASC",
		"DESC", "LIMIT", "AS", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE",
		"IS", "NULL", "CREATE", "TABLE", "INSERT", "INTO", "UPDATE", "SET",
		"DROP", "VALUES", "JOIN", "INNER", "ON", "DISTINCT", "CASE", "WHEN",
		"THEN", "ELSE", "END", "SENSITIVE", "TRUE", "FALSE", "DATE", "INTERVAL",
	} {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword (SENSITIVE).
const maxKeywordLen = 9

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes the whole input.
func lex(src string) ([]token, error) {
	// A VALUES list, the longest input the lexer meets, has about two
	// tokens per comma (the cell and the comma); three leave room for
	// signs, DATE and parentheses, so an upload lexes into one slice.
	l := &lexer{src: src, toks: make([]token, 0, 3*strings.Count(src, ",")+16)}
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, tok)
		if tok.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	// skip whitespace and -- comments
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
scan:
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]

	switch {
	case c == '\'':
		return l.lexString()
	case c >= '0' && c <= '9':
		return l.lexNumber()
	}
	if r, _ := utf8.DecodeRuneInString(l.src[l.pos:]); isIdentStart(r) {
		return l.lexIdent()
	}

	// operators and punctuation
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "!=", "<>", "<=", ">=", "||":
		l.pos += 2
		if two == "<>" {
			two = "!="
		}
		return token{kind: tokOp, text: two, pos: start}, nil
	}
	switch c {
	case '+', '-', '*', '/', '%', '=', '<', '>', '.':
		l.pos++
		return token{kind: tokOp, text: l.src[start:l.pos], pos: start}, nil
	case '(', ')', ',', ';':
		l.pos++
		return token{kind: tokPunct, text: l.src[start:l.pos], pos: start}, nil
	}
	return token{}, fmt.Errorf("sqlparser: unexpected character %q at offset %d", c, start)
}

func (l *lexer) lexString() (token, error) {
	start := l.pos
	body := start + 1
	end := strings.IndexByte(l.src[body:], '\'')
	if end < 0 {
		return token{}, fmt.Errorf("sqlparser: unterminated string at offset %d", start)
	}
	end += body
	if end+1 >= len(l.src) || l.src[end+1] != '\'' {
		// No '' escape: the token is a slice of the source.
		l.pos = end + 1
		return token{kind: tokString, text: l.src[body:end], pos: start}, nil
	}
	var sb strings.Builder
	sb.Grow(end - body + 16)
	l.pos = body
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return token{kind: tokString, text: sb.String(), pos: start}, nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return token{}, fmt.Errorf("sqlparser: unterminated string at offset %d", start)
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	if l.src[l.pos] == '0' && l.pos+1 < len(l.src) && (l.src[l.pos+1] == 'x' || l.src[l.pos+1] == 'X') {
		l.pos += 2
		hexStart := l.pos
		for l.pos < len(l.src) && isHexDigit(l.src[l.pos]) {
			l.pos++
		}
		if l.pos == hexStart {
			return token{}, fmt.Errorf("sqlparser: empty hex literal at offset %d", start)
		}
		return token{kind: tokHex, text: l.src[hexStart:l.pos], pos: start}, nil
	}
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	kind := tokInt
	if l.pos < len(l.src) && l.src[l.pos] == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
		kind = tokDecimal
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
	}
	return token{kind: kind, text: l.src[start:l.pos], pos: start}, nil
}

func (l *lexer) lexIdent() (token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		if c := l.src[l.pos]; c < utf8.RuneSelf {
			if c != '_' && !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9') {
				break
			}
			l.pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		l.pos += size
	}
	text := l.src[start:l.pos]
	if kw, ok := keyword(text); ok {
		return token{kind: tokKeyword, text: kw, pos: start}, nil
	}
	return token{kind: tokIdent, text: text, pos: start}, nil
}

// keyword reports whether an identifier's text is a keyword in any case,
// and returns the keyword. An ASCII word is upper-cased in a stack buffer;
// anything else goes through strings.ToUpper, whose Unicode case mapping
// folds some non-ASCII letters (ſ, ı) into keyword letters.
func keyword(text string) (string, bool) {
	var buf [maxKeywordLen]byte
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= utf8.RuneSelf {
			kw, ok := keywords[strings.ToUpper(text)]
			return kw, ok
		}
		if i < len(buf) {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			buf[i] = c
		}
	}
	if len(text) > len(buf) {
		return "", false
	}
	kw, ok := keywords[string(buf[:len(text)])]
	return kw, ok
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
