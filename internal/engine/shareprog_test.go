package engine

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"sdb/internal/bigmod"
	"sdb/internal/secure"
	"sdb/internal/sqlparser"
	"sdb/internal/types"
)

// The row programs (shareprog.go) must reproduce the scalar secure
// operators byte for byte. The reference here evaluates the same UDF trees
// one node at a time with secure.ApplyToken, Multiply, AddShares, SubShares
// and MaskedSign, exactly as the engine did before it compiled them.

var (
	errOracleKind = errors.New("oracle: argument must be a share")
	errOracleInv  = fmt.Errorf("oracle: %w", bigmod.ErrNotInvertible)
)

// errClass is how the differential compares failures: which kind of input
// was bad, not the wording.
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, bigmod.ErrNotInvertible):
		return "inverse"
	case errors.Is(err, errOracleKind),
		strings.Contains(err.Error(), "must be a share"),
		strings.Contains(err.Error(), "numeric plaintext"):
		return "kind"
	default:
		return "other: " + err.Error()
	}
}

// oracleEval evaluates a share-UDF tree over one row with the scalar
// operators.
func oracleEval(ex sqlparser.Expr, rel *relation, row types.Row) (types.Value, error) {
	switch x := ex.(type) {
	case sqlparser.HexLit:
		return types.NewShare(x.V), nil
	case sqlparser.IntLit:
		return types.NewInt(x.V), nil
	case sqlparser.ColRef:
		idx, err := rel.resolve(x.Table, x.Name)
		if err != nil {
			return types.Null, err
		}
		return row[idx], nil
	case *sqlparser.CaseExpr: // CASE WHEN id > c THEN a ELSE b END
		cond := x.Whens[0].Cond.(*sqlparser.BinaryExpr)
		id, err := oracleEval(cond.L, rel, row)
		if err != nil {
			return types.Null, err
		}
		if !id.IsNull() && id.I > cond.R.(sqlparser.IntLit).V {
			return oracleEval(x.Whens[0].Then, rel, row)
		}
		return oracleEval(x.Else, rel, row)
	}
	x := ex.(*sqlparser.FuncCall)
	share := func(i int) (*big.Int, error) {
		v, err := oracleEval(x.Args[i], rel, row)
		if err != nil {
			return nil, err
		}
		if v.K != types.KindShare {
			return nil, errOracleKind
		}
		return v.B, nil
	}
	n := x.Args[len(x.Args)-1].(sqlparser.HexLit).V
	hex := func(i int) *big.Int { return x.Args[i].(sqlparser.HexLit).V }
	switch x.Name {
	case "sdb_mul", "sdb_add", "sdb_sub":
		a, err := share(0)
		if err != nil {
			return types.Null, err
		}
		b, err := share(1)
		if err != nil {
			return types.Null, err
		}
		switch x.Name {
		case "sdb_mul":
			return types.NewShare(secure.Multiply(a, b, n)), nil
		case "sdb_add":
			return types.NewShare(secure.AddShares(a, b, n)), nil
		}
		return types.NewShare(secure.SubShares(a, b, n)), nil
	case "sdb_scale":
		ve, err := share(0)
		if err != nil {
			return types.Null, err
		}
		pv, err := oracleEval(x.Args[1], rel, row)
		if err != nil {
			return types.Null, err
		}
		if !numericKind(pv.K) {
			return types.Null, errOracleKind
		}
		return types.NewShare(secure.Multiply(ve, new(big.Int).Mod(big.NewInt(pv.I), n), n)), nil
	default: // sdb_keyupdate, sdb_sign
		ve, err := share(0)
		if err != nil {
			return types.Null, err
		}
		w, err := share(1)
		if err != nil {
			return types.Null, err
		}
		out := secure.ApplyToken(secure.Token{P: hex(2), Q: hex(3)}, ve, w, n)
		if out == nil {
			return types.Null, errOracleInv
		}
		if x.Name == "sdb_sign" {
			return types.NewInt(int64(secure.MaskedSign(out, new(big.Int).Rsh(n, 1)))), nil
		}
		return types.NewShare(out), nil
	}
}

// sameValue is byte identity for shares, value identity otherwise.
func sameValue(a, b types.Value) bool {
	if a.K != b.K {
		return false
	}
	if a.K == types.KindShare {
		return a.B.Cmp(b.B) == 0 && string(a.B.Bytes()) == string(b.B.Bytes())
	}
	return a.I == b.I
}

// progCase is one randomized differential: a relation of share, helper and
// plaintext columns, rows (some with a malformed share or a helper that
// has no inverse), and UDF trees over a modulus n with subtrees over a
// second modulus.
type progCase struct {
	r       *rand.Rand
	n, nAlt *big.Int
	rel     *relation
	rows    []types.Row
}

// progCaseModuli spans the Montgomery core's shapes: one limb (and the
// smallest modulus), a composite with many small factors (helpers without
// inverses are common), several limbs, the 512-bit deployment width and
// the hybrid-REDC width.
var progCaseModuli = []func(r *rand.Rand) *big.Int{
	func(*rand.Rand) *big.Int { return big.NewInt(3) },
	func(*rand.Rand) *big.Int { return big.NewInt(3 * 5 * 7 * 11 * 13 * 17 * 19 * 23) },
	func(r *rand.Rand) *big.Int { return randOdd(r, 61) },
	func(r *rand.Rand) *big.Int { return randOdd(r, 130) },
	func(r *rand.Rand) *big.Int { return randOdd(r, 512) },
	func(r *rand.Rand) *big.Int { return randOdd(r, 1088) },
}

func randOdd(r *rand.Rand, bits int) *big.Int {
	n := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	n.SetBit(n, bits-1, 1)
	return n.SetBit(n, 0, 1)
}

func newProgCase(seed int64, modulus int) *progCase {
	r := rand.New(rand.NewSource(seed))
	c := &progCase{r: r, n: progCaseModuli[modulus%len(progCaseModuli)](r), nAlt: randOdd(r, 200)}
	c.rel = &relation{cols: []relCol{
		{name: "id", kind: types.KindInt}, {name: "p", kind: types.KindInt},
		{name: "v", kind: types.KindShare}, {name: "m", kind: types.KindShare},
		{name: "u"}, // kind known only per row (a derived column)
		{name: "sdb_w", kind: types.KindShare}, {name: "w2", kind: types.KindShare},
	}}
	for i := 0; i < 24; i++ {
		fault := r.Intn(6)
		helper := func() types.Value {
			if fault == 1 { // no inverse: zero, or n itself
				if r.Intn(2) == 0 {
					return types.NewShare(new(big.Int))
				}
				return types.NewShare(new(big.Int).Set(c.n))
			}
			return types.NewShare(c.unit(fault == 0))
		}
		row := types.Row{
			types.NewInt(int64(i)), types.NewInt(r.Int63n(2001) - 1000),
			types.NewShare(c.residue()), types.NewShare(c.residue()), types.NewShare(c.residue()),
			helper(), helper(),
		}
		if fault == 0 { // one malformed argument; every helper invertible
			switch r.Intn(4) {
			case 0:
				row[2] = types.Null
			case 1:
				row[4] = types.NewInt(7)
			case 2:
				row[1] = types.Null
			default:
				row[5] = types.Null
			}
		}
		c.rows = append(c.rows, row)
	}
	return c
}

// residue draws a share: usually in [0, n), sometimes zero or past n.
func (c *progCase) residue() *big.Int {
	v := new(big.Int).Rand(c.r, c.n)
	switch c.r.Intn(8) {
	case 0:
		return new(big.Int)
	case 1:
		return v.Add(v, c.n)
	}
	return v
}

// unit draws a value invertible modulo n (and modulo nAlt when both).
func (c *progCase) unit(both bool) *big.Int {
	for {
		v := new(big.Int).Rand(c.r, c.n)
		if bigmod.Coprime(v, c.n) && (!both || bigmod.Coprime(v, c.nAlt)) && v.Sign() > 0 {
			return v
		}
	}
}

func hexLit(v *big.Int) sqlparser.Expr { return sqlparser.HexLit{V: v} }

func call(name string, args ...sqlparser.Expr) *sqlparser.FuncCall {
	return &sqlparser.FuncCall{Name: name, Args: args}
}

// token draws P (occasionally 0, 1 or past n) and Q (0, small or
// modulus-wide, either sign).
func (c *progCase) token(n *big.Int) (p, q sqlparser.Expr) {
	P := new(big.Int).Rand(c.r, n)
	switch c.r.Intn(5) {
	case 0:
		P.SetInt64(0)
	case 1:
		P.SetInt64(1)
	case 2:
		P.Add(P, n)
	}
	Q := new(big.Int)
	switch c.r.Intn(4) {
	case 1:
		Q.SetInt64(c.r.Int63n(40) + 1)
	case 2:
		Q.Rand(c.r, n)
	case 3:
		Q.Rand(c.r, n).Neg(Q)
	}
	return hexLit(P), hexLit(Q)
}

// helperArg is a helper column, or a constant (0x1 with Q = 0 is the
// proxy's flat re-key).
func (c *progCase) helperArg(n *big.Int) sqlparser.Expr {
	switch c.r.Intn(5) {
	case 0:
		return hexLit(big.NewInt(1))
	case 1:
		for {
			w := new(big.Int).Rand(c.r, n)
			if w.Sign() > 0 && bigmod.Coprime(w, n) {
				return hexLit(w)
			}
		}
	case 2:
		return sqlparser.ColRef{Name: "w2"}
	}
	return sqlparser.ColRef{Name: "sdb_w"}
}

// tree draws a share-valued UDF tree over n.
func (c *progCase) tree(n *big.Int, depth int) sqlparser.Expr {
	if depth == 0 || c.r.Intn(5) == 0 {
		switch c.r.Intn(7) {
		case 0:
			return hexLit(new(big.Int).Rand(c.r, n))
		case 1:
			return sqlparser.ColRef{Name: "m"}
		case 2:
			return sqlparser.ColRef{Name: "u"}
		case 3:
			if n == c.n && depth > 0 { // a subtree over another modulus
				return c.tree(c.nAlt, depth-1)
			}
		case 4:
			if depth > 0 {
				return &sqlparser.CaseExpr{
					Whens: []sqlparser.WhenClause{{
						Cond: &sqlparser.BinaryExpr{Op: ">", L: sqlparser.ColRef{Name: "id"}, R: sqlparser.IntLit{V: 11}},
						Then: c.tree(n, depth-1),
					}},
					Else: hexLit(new(big.Int).Rand(c.r, n)),
				}
			}
		}
		return sqlparser.ColRef{Name: "v"}
	}
	nh := hexLit(n)
	switch c.r.Intn(5) {
	case 0:
		return call("sdb_mul", c.tree(n, depth-1), c.tree(n, depth-1), nh)
	case 1:
		return call("sdb_add", c.tree(n, depth-1), c.tree(n, depth-1), nh)
	case 2:
		return call("sdb_sub", c.tree(n, depth-1), c.tree(n, depth-1), nh)
	case 3:
		var plain sqlparser.Expr = sqlparser.ColRef{Name: "p"}
		if c.r.Intn(3) == 0 {
			plain = sqlparser.IntLit{V: c.r.Int63n(2001) - 1000}
		}
		return call("sdb_scale", c.tree(n, depth-1), plain, nh)
	}
	p, q := c.token(n)
	return call("sdb_keyupdate", c.tree(n, depth-1), c.helperArg(n), p, q, nh)
}

// root draws a program output: a share tree or an sdb_sign reveal.
func (c *progCase) root(depth int) sqlparser.Expr {
	if c.r.Intn(4) == 0 {
		p, q := c.token(c.n)
		return call("sdb_sign", c.tree(c.n, depth), c.helperArg(c.n), p, q, hexLit(c.n))
	}
	return c.tree(c.n, depth)
}

// check runs trees through both compilation paths — each tree as its own
// closure, and all of them as one operator's expression set with the share
// roots alternately read raw (as a SUM does) — against the oracle.
func (c *progCase) check(t testing.TB, trees []sqlparser.Expr) {
	t.Helper()
	ctx := &evalCtx{n: c.n}
	mc := bigmod.MontCtxFor(c.n)
	want := make([][]types.Value, len(trees))
	wantErr := make([][]error, len(trees))
	for i, tr := range trees {
		want[i] = make([]types.Value, len(c.rows))
		wantErr[i] = make([]error, len(c.rows))
		for j, row := range c.rows {
			want[i][j], wantErr[i][j] = oracleEval(tr, c.rel, row)
		}
		fn, err := compile(tr, c.rel, ctx)
		if err != nil {
			t.Fatalf("compile %s: %v", tr, err)
		}
		for j, row := range c.rows {
			got, err := fn(row)
			if errClass(err) != errClass(wantErr[i][j]) {
				t.Fatalf("tree %s row %d: error %v, oracle %v", tr, j, err, wantErr[i][j])
			}
			if err == nil && !sameValue(got, want[i][j]) {
				t.Fatalf("tree %s row %d: %v (%s), oracle %v (%s)", tr, j, got, got.K, want[i][j], want[i][j].K)
			}
		}
	}

	sb := newSetBuilder(c.rel, ctx, c.n)
	fins := make([][]big.Word, len(trees))
	raws := make([]bool, len(trees))
	for i, tr := range trees {
		var err error
		if i%2 == 0 {
			_, fins[i], raws[i], err = sb.addSum(tr, c.n)
		} else {
			_, err = sb.add(tr)
		}
		if err != nil {
			t.Fatalf("set add %s: %v", tr, err)
		}
	}
	set := sb.build()
	fr := set.frame()
	defer set.release(fr)
	out := make([]types.Value, len(trees))
	for j, row := range c.rows {
		var wantE error
		for i := range trees {
			if wantErr[i][j] != nil {
				wantE = wantErr[i][j]
				break
			}
		}
		err := set.eval(fr, row, out)
		if errClass(err) != errClass(wantE) {
			t.Fatalf("set row %d: error %v, oracle %v", j, err, wantE)
		}
		if err != nil {
			continue
		}
		for i := range trees {
			got := out[i]
			if raws[i] {
				z := append([]big.Word(nil), set.raw(fr, i)...)
				if fins[i] != nil {
					mc.MulTo(mc.NewScratch(), z, z, fins[i])
				}
				got = types.NewShare(mc.Int(z))
			}
			if !sameValue(got, want[i][j]) {
				t.Fatalf("set item %d (%s) row %d: %v, oracle %v", i, trees[i], j, got, want[i][j])
			}
		}
	}
}

// TestShareProgramVsScalarOracle is the row programs' differential: random
// UDF trees over every modulus shape, with key updates of every exponent
// sign and Base tokens, constant and row helpers (inverted and not), CASE
// and other-modulus leaves, and malformed rows.
func TestShareProgramVsScalarOracle(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		c := newProgCase(seed, int(seed))
		trees := make([]sqlparser.Expr, 6)
		for i := range trees {
			trees[i] = c.root(1 + c.r.Intn(4))
		}
		// A shared subtree under two roots exercises the hash-consing.
		shared := c.tree(c.n, 3)
		trees = append(trees, shared, call("sdb_keyupdate", shared, sqlparser.ColRef{Name: "sdb_w"}, hexLit(big.NewInt(5)), hexLit(big.NewInt(-3)), hexLit(c.n)))
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { c.check(t, trees) })
	}
}

// TestShareProgramFolding pins what a row program saves, on the shape of
// TPC-H Q1's revenue SUM: the key updates of one operator share their
// (helper, exponent) lookups, the flat re-keys (Q = 0) and token constants
// cost no instruction, and no instruction divides.
func TestShareProgramFolding(t *testing.T) {
	c := newProgCase(7, 4)
	n, nh, w := c.n, hexLit(c.n), sqlparser.ColRef{Name: "sdb_w"}
	ku := func(x sqlparser.Expr, q sqlparser.Expr) sqlparser.Expr {
		return call("sdb_keyupdate", x, w, hexLit(c.unit(false)), q, nh)
	}
	qE, qD := hexLit(big.NewInt(-101)), hexLit(big.NewInt(-202))
	one, zero := hexLit(big.NewInt(1)), hexLit(new(big.Int))
	disc := call("sdb_sub", hexLit(big.NewInt(77)), ku(sqlparser.ColRef{Name: "m"}, qD), nh)
	revenue := call("sdb_keyupdate", ku(call("sdb_mul", sqlparser.ColRef{Name: "v"}, disc, nh), qE), one, hexLit(big.NewInt(99)), zero, nh)
	trees := []sqlparser.Expr{ku(sqlparser.ColRef{Name: "v"}, qE), ku(sqlparser.ColRef{Name: "m"}, qD), revenue}
	sb := newSetBuilder(c.rel, &evalCtx{n: n}, n)
	for _, tr := range trees {
		if _, _, raw, err := sb.addSum(tr, n); err != nil || !raw {
			t.Fatalf("%s: raw %v, %v", tr, raw, err)
		}
	}
	set := sb.build()
	count, exps := map[opcode]int{}, 0
	for _, in := range set.prog.ins {
		count[in.op]++
		exps += len(in.regs)
	}
	// Loads v, m; sdb_w's check-free powers: one instruction, 2 exponents;
	// REDCs: v·y_E, m·y_D, v·(77/P − m·y_D), that·y_E; one subtract.
	if count[opPow] != 1 || exps != 2 || count[opMul] != 4 || count[opSub] != 1 || count[opLoad] != 2 || len(set.prog.ins) != 8 {
		t.Errorf("program %v with %d exponents, want 2 loads, 1 lookup of 2 exponents, 4 REDCs, 1 subtract", count, exps)
	}
	c.check(t, trees)
}

// TestShareProgramHelperPowerSet: one helper feeds four exponents, one of
// them negative, so the set compiles to one opPow of four registers. It
// runs on an empty memo — every power computed from one chain per row,
// the negative one inverted — and again warm, over the composite (helpers
// without inverses), 512-bit and hybrid-width moduli; each time every
// output, and every failure, is the scalar ApplyToken's.
func TestShareProgramHelperPowerSet(t *testing.T) {
	for _, modulus := range []int{1, 4, 5} {
		c := newProgCase(int64(46+modulus), modulus)
		n, nh := c.n, hexLit(c.n)
		qs := []*big.Int{big.NewInt(37), new(big.Int).Rand(c.r, n), new(big.Int).Lsh(n, 3), new(big.Int).Rand(c.r, n)}
		qs[3].Neg(qs[3])
		trees := make([]sqlparser.Expr, len(qs))
		for i, q := range qs {
			trees[i] = call("sdb_keyupdate", sqlparser.ColRef{Name: "v"}, sqlparser.ColRef{Name: "sdb_w"}, hexLit(c.unit(false)), hexLit(q), nh)
		}
		want := make([][]types.Value, len(c.rows))
		wantErr := make([]error, len(c.rows))
		for j, row := range c.rows {
			for _, tr := range trees {
				v, err := oracleEval(tr, c.rel, row)
				want[j] = append(want[j], v)
				if wantErr[j] == nil {
					wantErr[j] = err
				}
			}
		}
		secure.ResetHelperPowers() // before build, which resolves the memo's tables
		sb := newSetBuilder(c.rel, &evalCtx{n: n}, n)
		for _, tr := range trees {
			if _, err := sb.add(tr); err != nil {
				t.Fatal(err)
			}
		}
		set := sb.build()
		var pows []int
		for _, in := range set.prog.ins {
			if in.op == opPow {
				pows = append(pows, len(in.regs))
			}
		}
		if len(pows) != 1 || pows[0] != len(qs) {
			t.Fatalf("modulus %d: opPow registers %v, want one opPow of %d", modulus, pows, len(qs))
		}
		for _, pass := range []string{"cold", "warm"} {
			before := secure.HelperPowers()
			fr := set.frame()
			out := make([]types.Value, len(trees))
			for j, row := range c.rows {
				err := set.eval(fr, row, out)
				if errClass(err) != errClass(wantErr[j]) {
					t.Fatalf("modulus %d %s row %d: error %v, scalar %v", modulus, pass, j, err, wantErr[j])
				}
				for i := range trees {
					if err == nil && !sameValue(out[i], want[j][i]) {
						t.Fatalf("modulus %d %s row %d exponent %d: %v, scalar %v", modulus, pass, j, i, out[i], want[j][i])
					}
				}
			}
			set.release(fr)
			after := secure.HelperPowers()
			t.Logf("modulus %d %s: %d hits, %d misses", modulus, pass, after.Hits-before.Hits, after.Misses-before.Misses)
			if pass == "cold" && after.Misses == before.Misses || pass == "warm" && after.Hits == before.Hits {
				t.Fatalf("modulus %d %s: %+v → %+v", modulus, pass, before, after)
			}
		}
	}
}

// TestShareProgramReveal checks the comparison kernel of sdb_min/sdb_max
// against the scalar protocol.
func TestShareProgramReveal(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		c := newProgCase(seed, int(seed))
		n := c.n
		p, _ := c.token(n)
		rev, err := newMaskedReveal("sdb_min", p, hexLit(n), &evalCtx{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			a, b, m := c.residue(), c.residue(), c.residue()
			x := secure.Multiply(secure.SubShares(a, b, n), m, n)
			want := secure.MaskedSign(secure.Multiply(x, p.(sqlparser.HexLit).V, n), new(big.Int).Rsh(n, 1))
			if got := rev.sign(a, b, m); got != want {
				t.Fatalf("seed %d: sign %d, oracle %d", seed, got, want)
			}
		}
	}
}

// FuzzShareProgram drives the differential from a fuzzed seed, modulus
// shape and depth.
func FuzzShareProgram(f *testing.F) {
	for i := 0; i < len(progCaseModuli); i++ {
		f.Add(int64(i+1), uint8(i), uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, modulus, depth uint8) {
		c := newProgCase(seed, int(modulus))
		trees := make([]sqlparser.Expr, 3)
		for i := range trees {
			trees[i] = c.root(int(depth % 6))
		}
		c.check(t, trees)
	})
}

// malformedUDFStatements are SDB UDF calls with malformed token material:
// a zero modulus, a plaintext mask, a non-share token. Evaluated per row
// they panic (on pool workers, where no recover reaches), so each must be
// refused at plan time.
var malformedUDFStatements = []string{
	`SELECT sdb_keyupdate(v, sdb_w, 0x3, 0x5, 0x0) FROM enc`,
	`SELECT sdb_sign(v, sdb_w, 0x3, 0x5, 0x0) FROM enc`,
	`SELECT sdb_const(sdb_w, 0x3, 0x5, 0x0) FROM enc`,
	`SELECT sdb_mul(v, m, 0x0) FROM enc`,
	`SELECT sdb_add(v, m, 0x0) FROM enc`,
	`SELECT sdb_scale(v, id, 0x0) FROM enc`,
	`SELECT id FROM enc ORDER BY sdb_ord(v, id, 0x3, 0x5)`,
	`SELECT id FROM enc ORDER BY sdb_ord(v, m, 1, 2)`,
	`SELECT id FROM enc ORDER BY sdb_ord(v, m, 0x3, 0x0)`,
	`SELECT sum(sdb_keyupdate(v, sdb_w, 0x3, 0x5, 0x0)) FROM enc`,
	`SELECT sdb_min(v, m, 0x3, 0x0) FROM enc`,
}

func TestMalformedUDFsArePlanTimeErrors(t *testing.T) {
	f := newSecureFixture(t, []int64{4, -9, 17})
	for _, sql := range malformedUDFStatements {
		stmt, err := f.eng.Prepare(sql)
		if err != nil {
			t.Fatalf("%s: parse: %v", sql, err)
		}
		it, err := stmt.Query(context.Background())
		if err == nil {
			it.Close()
			t.Errorf("%s: planned; want a plan-time error", sql)
			continue
		}
		if strings.Contains(err.Error(), "0x") {
			t.Errorf("%s: error prints a literal: %v", sql, err)
		}
	}
	// And the engine keeps serving.
	res, err := f.eng.ExecuteSQL(`SELECT COUNT(*) FROM enc`)
	if err != nil || res.Rows[0][0].I != 3 {
		t.Fatalf("after the malformed statements: %v, %v", res, err)
	}
}

// TestSecureSumResidentSpilledParallel: a share SUM over a row program
// accumulates the unscaled residues and applies its folded constant once
// per group. The shares must be identical resident and spilled (the
// spilled state is the unscaled sum), serial and parallel, and equal the
// scalar oracle's sum of per-row shares — for plain, DISTINCT, nested and
// scaled arguments.
func TestSecureSumResidentSpilledParallel(t *testing.T) {
	vals := make([]int64, 90)
	for i := range vals {
		vals[i] = int64(i*37%101) - 50
	}
	f := newSecureFixture(t, vals)
	n := f.s.N()
	flat, _ := f.s.FlatKey()
	tok, _ := f.s.KeyUpdateToken(f.ck, flat)
	ku := func(x string) string {
		return fmt.Sprintf("sdb_keyupdate(%s, sdb_w, %s, %s, %s)", x, hex(tok.P), sqlparser.HexLit{V: tok.Q}, hex(n))
	}
	args := []string{
		ku("v"),
		ku(fmt.Sprintf("sdb_mul(v, m, %s)", hex(n))),
		fmt.Sprintf("sdb_keyupdate(sdb_sub(%s, %s, %s), 0x1, %s, 0x0, %s)", hex(big.NewInt(12345)), ku("v"), hex(n), hex(tok.P), hex(n)),
		ku(fmt.Sprintf("sdb_scale(v, id, %s)", hex(n))),
	}
	var items []string
	for _, a := range args {
		items = append(items, "SUM("+a+")", "SUM(DISTINCT "+a+")")
	}
	sql := fmt.Sprintf("SELECT id %% 7 AS g, %s FROM enc GROUP BY id %% 7 ORDER BY g", strings.Join(items, ", "))

	// The oracle: per-row shares from the scalar operators, summed per group.
	scan, err := f.eng.ExecuteSQL(`SELECT id, v, m, sdb_w FROM enc`)
	if err != nil {
		t.Fatal(err)
	}
	rel := &relation{cols: []relCol{{name: "id"}, {name: "v"}, {name: "m"}, {name: "sdb_w"}}}
	want := make([][]*big.Int, 7)
	for g := range want {
		want[g] = make([]*big.Int, len(items))
	}
	seen := map[string]bool{}
	for _, row := range scan.Rows {
		g := row[0].I % 7
		for i, a := range args {
			sel, err := sqlparser.ParseSelect("SELECT " + a + " FROM enc")
			if err != nil {
				t.Fatal(err)
			}
			v, err := oracleEval(sel.Items[0].Expr, rel, row)
			if err != nil {
				t.Fatal(err)
			}
			for d, k := range []int{2 * i, 2*i + 1} {
				key := fmt.Sprintf("%d/%d/%s", g, k, v.B)
				if d == 1 && seen[key] {
					continue
				}
				seen[key] = true
				if want[g][k] == nil {
					want[g][k] = new(big.Int)
				}
				want[g][k] = secure.AddShares(want[g][k], v.B, n)
			}
		}
	}

	modes := []struct {
		name   string
		opts   Options
		spills bool
	}{
		{"resident serial", Options{Parallelism: 1, MemBudgetRows: -1}, false},
		{"resident parallel", Options{Parallelism: 4, ChunkSize: 5, MemBudgetRows: -1}, false},
		{"spilled serial", Options{Parallelism: 1, ChunkSize: 4, MemBudgetRows: 6, SpillDir: t.TempDir()}, true},
		{"spilled parallel", spillOptions(6, t.TempDir()), true},
	}
	for _, m := range modes {
		f.eng.SetOptions(m.opts)
		res, st := queryWithStats(t, f.eng, sql)
		if (st.Spills > 0) != m.spills {
			t.Fatalf("%s: %d spills", m.name, st.Spills)
		}
		if len(res.Rows) != 7 {
			t.Fatalf("%s: %d groups", m.name, len(res.Rows))
		}
		for g, row := range res.Rows {
			for k := range items {
				if got := row[k+1]; got.K != types.KindShare || got.B.Cmp(want[g][k]) != 0 {
					t.Fatalf("%s: group %d %s = %v, oracle %v", m.name, g, items[k], got, want[g][k])
				}
			}
		}
	}
	f.eng.SetOptions(Options{})
}
