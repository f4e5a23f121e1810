package sqlparser

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

// renderCorpus is a fixed set of INSERT ASTs covering every literal the
// renderer writes: signed and extreme integers, decimals of several
// scales, hex shares of both signs and of product width, strings with
// doubled-quote escapes and non-ASCII text, dates on both sides of the epoch, NULL and
// the booleans, plus a few non-literal cells.
func renderCorpus() []*Insert {
	share, _ := new(big.Int).SetString("c0ffee"+strings.Repeat("0123456789abcdef", 8), 16)
	negShare := new(big.Int).Neg(share)
	cells := []Expr{
		IntLit{V: 0}, IntLit{V: 7}, IntLit{V: -5}, IntLit{V: math.MaxInt64}, IntLit{V: math.MinInt64 + 1},
		DecLit{Scaled: 12345, Scale: 2}, DecLit{Scaled: -12345, Scale: 2}, DecLit{Scaled: 5, Scale: 3},
		DecLit{Scaled: -5, Scale: 3}, DecLit{Scaled: 42, Scale: 0}, DecLit{Scaled: 0, Scale: 2},
		DecLit{Scaled: -99999999, Scale: 12},
		HexLit{V: big.NewInt(0)}, HexLit{V: big.NewInt(0x1f)}, HexLit{V: big.NewInt(-0x1f)},
		HexLit{V: share}, HexLit{V: negShare},
		StrLit{V: ""}, StrLit{V: "plain"}, StrLit{V: "it's"}, StrLit{V: "''"}, StrLit{V: "a''b'"},
		StrLit{V: "été 世界"}, StrLit{V: "Customer#000000001"},
		DateLit{Days: 0}, DateLit{Days: 9131}, DateLit{Days: -1}, DateLit{Days: 10561},
		NullLit{}, BoolLit{V: true}, BoolLit{V: false},
		&UnaryExpr{Op: "-", E: ColRef{Name: "x"}},
		&BinaryExpr{Op: "+", L: IntLit{V: 1}, R: IntLit{V: 2}},
		&FuncCall{Name: "sdb_mul", Args: []Expr{ColRef{Table: "t", Name: "v"}, HexLit{V: big.NewInt(3)}}},
	}
	var rows [][]Expr
	for i := 0; i < len(cells); i += 3 {
		rows = append(rows, cells[i:min(i+3, len(cells))])
	}
	return []*Insert{
		{Table: "t", Rows: [][]Expr{{IntLit{V: 1}}}},
		{Table: "t", Columns: []string{"a", "b", "c"}, Rows: rows},
		{Table: "lineitem", Rows: [][]Expr{cells}},
		{Table: "u", Columns: []string{"v", "sdb_mask", "row_id", "sdb_w"},
			Rows: [][]Expr{{HexLit{V: share}, HexLit{V: share}, HexLit{V: big.NewInt(1 << 62)}, HexLit{V: negShare}}}},
	}
}

// TestInsertRenderGolden holds Insert.String() over renderCorpus to the
// digest of the text the renderer has always written: the SP must
// receive byte-identical SQL however the renderer is built.
func TestInsertRenderGolden(t *testing.T) {
	h := sha256.New()
	for _, ins := range renderCorpus() {
		s := ins.String()
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
		again, err := Parse(s)
		if err != nil {
			t.Fatalf("rendered INSERT does not parse: %v\n%s", err, s)
		}
		if got := again.String(); got != s {
			t.Errorf("render is not stable:\n%s\n%s", s, got)
		}
	}
	const want = "b577b772e36f832a24d2d8a179c0b5205c3163dc58ab9ebd665fef88c0f46d2f"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("rendered corpus digest %s, want %s", got, want)
	}
}

// valueCells are VALUES cells for the fast-path differential: literals the
// fast path takes, and shapes that must fall through to parseExpr (a
// literal followed by an operator, nested signs, parentheses, calls).
var valueCells = []string{
	"0", "7", "-5", "- 5", "9223372036854775807", "-9223372036854775807",
	"1.25", "-1.25", "0.00", "-0.005",
	"0x0", "0x1f", "-0x1f", "0X00aBc", "0x" + strings.Repeat("f", 130), "-0x" + strings.Repeat("9", 131),
	"'a'", "''", "''''", "'a''b'", "'été 世界'", "'Customer#000000001'",
	"DATE '1995-01-01'", "DATE '1969-12-31'", "NULL", "TRUE", "FALSE", "true",
	"1 + 2", "5 * 3", "-5 * 3", "0x1f - 1", "'a' || 'b'", "DATE '1995-01-01' + 1",
	"- -5", "-(5)", "(1)", "-'a'", "x", "t.x", "-x", "sdb_mul(x, 0x2a)",
	"NULL IS NULL", "1 BETWEEN 0 AND 2", "5 IN (1, 2)", "NOT TRUE", "1 = 1",
	"CASE WHEN TRUE THEN 1 ELSE 2 END",
	"9223372036854775808", "-9223372036854775808", "DATE 'x'",
	"0.0000000000000000001", "0.00000700000000000000000", "123456789012345678.9",
}

// TestValuesFastPathMatchesExpr holds parseValue to parseExpr: every cell
// of a VALUES list parses to the AST the general expression path gives
// the same text, or both fail.
func TestValuesFastPathMatchesExpr(t *testing.T) {
	for _, cell := range valueCells {
		if msg := valuesAgree(cell); msg != "" {
			t.Error(msg)
		}
		// No cell here holds a top-level comma, so a cell parseExpr
		// refuses makes the INSERT fail too.
		_, werr := ParseExpr(cell)
		if _, err := Parse("INSERT INTO t VALUES (" + cell + ")"); (werr == nil) != (err == nil) {
			t.Errorf("%q: parseExpr error %v, VALUES error %v", cell, werr, err)
		}
	}
}

// valuesAgree parses cell alone with parseExpr and as every cell of a
// two-row INSERT, and describes the first difference ("" if none): an
// expression parseExpr accepts must give the same AST in every cell, and
// an INSERT that parses must render to text that re-parses to itself. (A
// cell parseExpr refuses, such as "1, 2", may still make a valid INSERT
// of another shape.)
func valuesAgree(cell string) string {
	want, werr := ParseExpr(cell)
	src := "INSERT INTO t VALUES (" + cell + "\n), (" + cell + "\n, " + cell + "\n)"
	stmt, err := Parse(src)
	if err != nil {
		if werr == nil {
			return fmt.Sprintf("%q: parseExpr accepts it, VALUES error %v", cell, err)
		}
		return ""
	}
	ins := stmt.(*Insert)
	if r := ins.String(); mustReparse(r) != r {
		return fmt.Sprintf("%q: rendered INSERT %q does not round-trip", cell, r)
	}
	if werr != nil {
		return ""
	}
	for _, got := range []Expr{ins.Rows[0][0], ins.Rows[1][0], ins.Rows[1][1]} {
		if !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("%q: VALUES cell %#v, parseExpr %#v", cell, got, want)
		}
	}
	return ""
}

func mustReparse(s string) string {
	stmt, err := Parse(s)
	if err != nil {
		return "error: " + err.Error()
	}
	return stmt.String()
}

// TestHexLiteralDecoding holds hexInt to big.Int.SetString over widths on
// both sides of every word boundary, leading zeros and both cases.
func TestHexLiteralDecoding(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const digits = "0123456789abcdefABCDEF"
	for n := 1; n <= 80; n++ {
		for trial := 0; trial < 4; trial++ {
			b := make([]byte, n)
			for i := range b {
				b[i] = digits[rng.IntN(len(digits))]
			}
			if trial == 0 {
				b[0] = '0'
			}
			want, _ := new(big.Int).SetString(string(b), 16)
			if got := hexInt(string(b)); got.Cmp(want) != 0 {
				t.Fatalf("hexInt(%s) = %x, want %x", b, got, want)
			}
		}
	}
}
