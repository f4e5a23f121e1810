package sqlparser

import (
	"testing"
)

// fuzzSeeds is the shared corpus: the SQL shapes the SDB pipeline
// generates and consumes, plus lexical edge cases (string escapes, hex
// share literals, unicode, deliberately broken inputs).
var fuzzSeeds = []string{
	// Representative TPC-H shapes (Q1, Q6, Q19-style predicates).
	`SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
        SUM(l_extendedprice) AS sum_base_price, COUNT(*) AS count_order
     FROM lineitem WHERE l_shipdate <= '1998-09-02'
     GROUP BY l_returnflag, l_linestatus
     ORDER BY l_returnflag, l_linestatus`,
	`SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem
     WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
       AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`,
	`SELECT o_orderpriority, COUNT(*) FROM orders
     WHERE o_orderdate >= '1993-07-01'
       AND (o_totalprice > 1000 OR o_orderpriority LIKE '1-%')
     GROUP BY o_orderpriority HAVING COUNT(*) > 0
     ORDER BY o_orderpriority LIMIT 10`,
	// Joins, subqueries, aliases.
	`SELECT n.n_name, SUM(l.l_extendedprice) FROM customer AS c
     JOIN orders AS o ON c.c_custkey = o.o_custkey
     JOIN lineitem AS l ON l.l_orderkey = o.o_orderkey
     JOIN nation AS n ON c.c_nationkey = n.n_nationkey
     GROUP BY n.n_name ORDER BY 2 DESC`,
	`SELECT cntrycode, COUNT(*) FROM
     (SELECT substr(c_name, 10, 2) AS cntrycode FROM customer WHERE c_acctbal > 0.00) AS t
     GROUP BY cntrycode ORDER BY cntrycode`,
	// SDB-rewritten shapes: hex share literals, UDFs, hidden columns.
	`SELECT sdb_mul(l_quantity, 0x2a, 0xffef), row_id, sdb_w FROM lineitem`,
	`UPDATE t SET v = sdb_keyupdate(v, sdb_w, 0x1f, -0x2c, 0xffef) WHERE id > 3`,
	`INSERT INTO t (id, v, row_id, sdb_w) VALUES (1, 0xabc, 0xdef, 0x123)`,
	`SELECT a FROM t ORDER BY sdb_ord(tag, mtag, 0x11, 0xffef) DESC`,
	// Multi-row uploads: what the VALUES fast path reads, and a literal
	// followed by an operator, which it must leave to parseExpr.
	`INSERT INTO t VALUES (1, 'it''s', -0x1f, DATE '1995-01-01', NULL), (-2, '', 0xABC, '世界', TRUE)`,
	`INSERT INTO t (a, b, c) VALUES (-1.25, 'x''''y', -0x00ff), (0.00, 'été', 0x0), (3, 'a' || 'b', 2 * -3)`,
	`INSERT INTO t VALUES (5 - 1, -5, - 5), (-(5), 'q', FALSE)`,
	// Expressions: nesting, CASE, IN, BETWEEN, unary minus, concat.
	`SELECT CASE WHEN a > 0 THEN -(a * (b + 3)) ELSE a END FROM t
     WHERE a IN (1, 2, 3) AND b NOT BETWEEN -5 AND 5 AND c IS NOT NULL`,
	`SELECT 'it''s' || '-' || s, length(s), substring(s, 1, 2) FROM t WHERE s LIKE '%a_b%'`,
	`CREATE TABLE t2 (id INT, price DECIMAL(12,2) SENSITIVE, d DATE, note STRING)`,
	// Lexical edge cases and garbage.
	`SELECT 0x FROM t`,
	`SELECT 'unterminated FROM t`,
	`SELECT * FROM`,
	`SELECT ((((1))))`,
	"SELECT été, '世界' FROM café",
	"select`thing",
	`)(`,
	``,
}

// FuzzLex checks the tokenizer never panics and either tokenizes or
// errors cleanly.
func FuzzLex(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lex(src)
		if err == nil && len(src) > 0 && len(toks) == 0 {
			t.Fatalf("lex(%q) returned no tokens and no error", src)
		}
	})
}

// FuzzParse checks the parser never panics, and that everything it
// accepts round-trips: stmt.String() must re-parse to an identical
// rendering. The proxy relies on this — every rewritten statement crosses
// to the engine as String() output.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		rendered := stmt.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("round-trip parse failed for %q -> %q: %v", src, rendered, err)
		}
		if got := again.String(); got != rendered {
			t.Fatalf("String() not stable: %q -> %q -> %q", src, rendered, got)
		}
	})
}

// FuzzInsertValues checks the VALUES fast path against the general
// expression path: an expression parseExpr accepts parses to the same AST
// as every cell of a two-row INSERT, and the INSERT's String() re-parses
// to the same text.
func FuzzInsertValues(f *testing.F) {
	for _, c := range valueCells {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, cell string) {
		if msg := valuesAgree(cell); msg != "" {
			t.Fatal(msg)
		}
	})
}
