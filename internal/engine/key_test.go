package engine

import (
	"math/big"
	"testing"

	"sdb/internal/storage"
	"sdb/internal/types"
)

// groupKey is the composite key the group table (GROUP BY and DISTINCT)
// and the hash join build for a value tuple: its values' AppendGroupKey
// encodings, concatenated.
func groupKey(row types.Row) string {
	var buf []byte
	for _, v := range row {
		buf = v.AppendGroupKey(buf)
	}
	return string(buf)
}

// TestKeyEncodingInjective is the regression for the concatenated-key
// collision: ("ab","c") and ("a","bc") concatenate identically without
// framing, so they used to share GROUP BY / DISTINCT / hash-join keys. The
// binary form frames every component; these are the pairs that must differ
// and the one that must not.
func TestKeyEncodingInjective(t *testing.T) {
	str, share := types.NewString, func(b ...byte) types.Value { return types.NewShare(new(big.Int).SetBytes(b)) }
	distinct := [][2]types.Row{
		{{str("ab"), str("c")}, {str("a"), str("bc")}},
		// Neither a separator nor a length prefix is forgeable from value text.
		{{str("a|"), str("b")}, {str("a"), str("|b")}},
		{{str("\x01a")}, {str(""), str("a")}},
		{{types.NewInt(1)}, {types.NewDecimal(1)}},
		{{types.NewInt(1)}, {types.NewBool(true)}},
		{{types.NewInt(1)}, {types.NewDate(1)}},
		{{str("")}, {types.Null}},
		{{str("")}, {}},
		{{share(1)}, {share(1, 0)}},
		{{share()}, {types.Null}},
		{{share(1), share(2)}, {share(1, 2)}},
	}
	for _, p := range distinct {
		if groupKey(p[0]) == groupKey(p[1]) {
			t.Errorf("group key collision: %v vs %v (%q)", p[0], p[1], groupKey(p[0]))
		}
	}
	// Leading zero bytes do not change a residue, so they must not change
	// its key: equal shares join and group together however they were built.
	if groupKey(types.Row{share(0, 0, 7)}) != groupKey(types.Row{share(7)}) {
		t.Errorf("equal shares encode differently")
	}
}

// fuzzTuple decodes a value tuple from fuzz bytes: a count, then per value
// a kind byte and a short payload (one byte for the int64-backed kinds, so
// equal values of different kinds are common; up to three bytes for strings
// and shares, so boundary-shifting collisions are reachable).
func fuzzTuple(data []byte) (types.Row, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	take := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		b := data[:n]
		data = data[n:]
		return b
	}
	row := make(types.Row, next()%4)
	for i := range row {
		switch k := types.Kind(next() % 7); k {
		case types.KindNull:
		case types.KindString:
			row[i] = types.NewString(string(take(int(next() % 4))))
		case types.KindShare:
			row[i] = types.NewShare(new(big.Int).SetBytes(take(int(next() % 4))))
		default:
			row[i] = types.Value{K: k, I: int64(int8(next()))}
		}
	}
	return row, data
}

// FuzzGroupKeyInjective: two value tuples share a composite key exactly
// when they have the same length and agree, component by component, in
// kind and in Compare.
func FuzzGroupKeyInjective(f *testing.F) {
	f.Add([]byte{2, 4, 2, 'a', 'b', 4, 1, 'c', 2, 4, 1, 'a', 4, 2, 'b', 'c'}) // ("ab","c") ("a","bc")
	f.Add([]byte{1, 1, 1, 1, 2, 1})                                           // int 1, decimal 1
	f.Add([]byte{1, 4, 0, 1, 0})                                              // "" vs NULL
	f.Add([]byte{1, 6, 3, 0, 0, 7, 1, 6, 1, 7})                               // share 0x000007 vs 0x07
	f.Add([]byte{2, 1, 5, 0, 2, 1, 5, 0})                                     // equal tuples
	f.Fuzz(func(t *testing.T, data []byte) {
		a, rest := fuzzTuple(data)
		b, _ := fuzzTuple(rest)
		same := len(a) == len(b)
		for i := 0; same && i < len(a); i++ {
			same = a[i].K == b[i].K && a[i].Compare(b[i]) == 0
		}
		if got := groupKey(a) == groupKey(b); got != same {
			t.Fatalf("%v vs %v: keys equal = %v, values equal = %v", a, b, got, same)
		}
	})
}

// collisionEngine holds rows whose multi-column keys collide under naive
// concatenation.
func collisionEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(storage.NewCatalog(), nil)
	mustExec(t, e, `CREATE TABLE s (x STRING, y STRING, v INT)`)
	mustExec(t, e, `INSERT INTO s VALUES ('ab', 'c', 1), ('a', 'bc', 2), ('ab', 'c', 3)`)
	return e
}

func TestGroupByNoKeyCollisions(t *testing.T) {
	e := collisionEngine(t)
	res := mustExec(t, e, `SELECT x, y, SUM(v) FROM s GROUP BY x, y`)
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 groups, got %d: %v", len(res.Rows), res.Rows)
	}
	// First-encounter order: ('ab','c') sums 1+3, then ('a','bc') = 2.
	if res.Rows[0][2].I != 4 || res.Rows[1][2].I != 2 {
		t.Errorf("group sums: %v", res.Rows)
	}
}

func TestDistinctNoKeyCollisions(t *testing.T) {
	e := collisionEngine(t)
	res := mustExec(t, e, `SELECT DISTINCT x, y FROM s`)
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 distinct rows, got %d: %v", len(res.Rows), res.Rows)
	}
}

func TestHashJoinNoKeyCollisions(t *testing.T) {
	e := collisionEngine(t)
	mustExec(t, e, `CREATE TABLE u (x STRING, y STRING, w INT)`)
	mustExec(t, e, `INSERT INTO u VALUES ('a', 'bc', 9)`)
	res := mustExec(t, e, `SELECT v, w FROM s JOIN u ON s.x = u.x AND s.y = u.y`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("two-column hash join matched colliding keys: %v", res.Rows)
	}
}
