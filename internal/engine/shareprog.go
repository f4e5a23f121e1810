package engine

import (
	"fmt"
	"math/big"
	"strings"
	"sync"

	"sdb/internal/bigmod"
	"sdb/internal/secure"
	"sdb/internal/sqlparser"
	"sdb/internal/types"
)

// Share row programs.
//
// Every tree of SDB UDFs the proxy emits carries its token material and
// modulus as literals, so everything about it except the row's shares and
// helpers is known when the statement is planned. A tree therefore
// compiles, with every other share tree of the same operator, into one
// straight-line program over k-limb registers (the Montgomery core of
// internal/bigmod) instead of a closure per UDF doing big.Int Mul+Mod:
//
//   - each register holds a residue v whose share is v·F mod n for a
//     factor F the compiler tracks per node. sdb_mul is one REDC,
//     v_a ⊙ v_b = v_a·v_b·R⁻¹, so its factor is F_a·F_b·R; a key update
//     multiplies its operand by the memoised helper power ToMont(w^Q) —
//     one memo lookup and one REDC, y·R·R⁻¹ cancelling — and folds its
//     token constant P into the factor instead of multiplying every row
//     by it; a Q = 0 re-key of a flat share costs nothing at all;
//   - sdb_add/sdb_sub need equal factors: a constant operand is divided
//     by the other side's factor at plan time, a row operand is rescaled
//     by one REDC with a plan-time ratio;
//   - the factor is applied once where the value leaves the program — one
//     REDC by F·R for a share output, the sign of v ⊙ F·R for sdb_sign,
//     and once per group for a share SUM, which adds the unscaled
//     residues with a conditional subtract (aggregate.go);
//   - instructions are hash-consed per operator, so a (helper, exponent)
//     pair several expressions of the operator share is looked up once per
//     row, and so is any common subtree (Q1's key-updated discount under
//     three SUMs);
//   - every exponent one helper source is raised to joins that source's
//     one opPow, so a row's helper is hashed once, its powers are probed
//     together, and the ones no earlier row left in the memo are computed
//     together, from one squaring chain (secure.PowerSet).
//
// What stays outside: a subtree that is not a share UDF over the program's
// modulus (CASE, plaintext arithmetic, a tree over another modulus) is a
// leaf, evaluated by its own closure; sdb_min/sdb_max compare shares that
// arrive as values and reveal through maskedReveal below.
// Token material and moduli must be constants: a malformed one (even or
// zero modulus, non-share token) is a plan-time error, never a panic on a
// pool worker.

// shareUDFs are the UDFs that produce a share and compile into programs;
// sdb_sign produces the program's one plaintext output.
var shareUDFs = map[string]int{ // name → arity
	"sdb_mul": 3, "sdb_add": 3, "sdb_sub": 3, "sdb_scale": 3,
	"sdb_keyupdate": 5, "sdb_sign": 5,
}

type opcode uint8

const (
	opLoad  opcode = iota // r[dst] = the share src yields, reduced mod n
	opCheck               // src must yield a share (helper of a Q = 0 token)
	opPow                 // r[regs[e]] = ToMont(w^qs[e]) for helper w = src, every e (read-only)
	opMul                 // r[dst] = r[a] ⊙ r[b]
	opScale               // r[dst] = r[a] ⊙ (plaintext src mod n)
	opAdd                 // r[dst] = r[a] + r[b] mod n
	opSub                 // r[dst] = r[a] − r[b] mod n
)

type instr struct {
	op        opcode
	dst, a, b int
	src       *shareSrc
	regs      []int            // opPow: one register per exponent
	qs        []*big.Int       // opPow: the exponents
	pows      *secure.PowerSet // opPow: the memo's view of qs
}

// insKey identifies an instruction for hash-consing; an opPow key names
// one exponent of its source (q).
type insKey struct {
	op   opcode
	a, b int
	src  string
	q    string
}

// shareSrc is a program leaf: a column of the row, or a value the program
// does not compute itself. fname/arg name the UDF argument it fills, for
// the per-row kind errors.
type shareSrc struct {
	col   int          // row index; -1 when fn yields the value
	fn    compiledExpr // non-column leaves
	konst bool         // fn is a constant share (no per-row check needed)
	key   string       // identity for hash-consing
	fname string
	arg   int
}

func (s *shareSrc) value(row types.Row) (types.Value, error) {
	if s.fn != nil {
		return s.fn(row)
	}
	return row[s.col], nil
}

func (s *shareSrc) share(row types.Row) (*big.Int, error) {
	v, err := s.value(row)
	if err != nil {
		return nil, err
	}
	if v.K != types.KindShare {
		return nil, fmt.Errorf("engine: %s arg %d must be a share, got %s", s.fname, s.arg, v.K)
	}
	return v.B, nil
}

// progRoot is one output of a program: the register and, unless the
// factor is 1, the constant F·R that finishes it.
type progRoot struct {
	reg  int
	fin  []big.Word
	sign bool // sdb_sign: output the sign of the finished residue
}

// shareProg is a compiled program. It is immutable after compilation and
// shared by every worker; each worker evaluates it in its own frame.
type shareProg struct {
	mc      *bigmod.MontCtx
	ins     []instr
	nregs   int
	maxPows int // the most exponents of one opPow
	consts  []progConst
	pool    sync.Pool // *frame
}

type progConst struct {
	reg int
	val []big.Word
}

// frame is one worker's registers and scratch for a program. A register
// is k limbs of the frame's slab, constants pre-loaded, except that opPow
// points its registers at memo entries on a hit: own[i] is instruction i's
// registers' own memory, where its misses are computed, and out the
// scratch its results come back through. ms holds, after a row's first
// memo miss, the squaring chain the misses are computed from. hits counts
// the frame's memo hits until put publishes them, once per chunk or call.
type frame struct {
	r    [][]big.Word
	slab []big.Word
	own  [][][]big.Word
	out  [][]big.Word
	ms   *bigmod.MontScratch
	tmp  []big.Word
	hits int64
}

func (p *shareProg) get() *frame {
	if fr, ok := p.pool.Get().(*frame); ok {
		return fr
	}
	k := p.mc.Words()
	fr := &frame{r: make([][]big.Word, p.nregs), slab: make([]big.Word, p.nregs*k),
		own: make([][][]big.Word, len(p.ins)), out: make([][]big.Word, p.maxPows),
		ms: p.mc.NewScratch(), tmp: make([]big.Word, k)}
	for i := range fr.r {
		fr.r[i] = fr.reg(i)
	}
	for i := range p.ins {
		for _, reg := range p.ins[i].regs {
			fr.own[i] = append(fr.own[i], fr.reg(reg))
		}
	}
	for _, c := range p.consts {
		copy(fr.r[c.reg], c.val)
	}
	return fr
}

// reg is register i's own memory.
func (fr *frame) reg(i int) []big.Word {
	k := len(fr.tmp)
	return fr.slab[i*k : (i+1)*k : (i+1)*k]
}

func (p *shareProg) put(fr *frame) {
	secure.FlushHelperPowerHits(&fr.hits)
	p.pool.Put(fr)
}

// run evaluates every instruction for one row.
func (p *shareProg) run(fr *frame, row types.Row) error {
	r := fr.r
	for i := range p.ins {
		in := &p.ins[i]
		switch in.op {
		case opLoad:
			v, err := in.src.share(row)
			if err != nil {
				return err
			}
			p.mc.Reduce(r[in.dst], v)
		case opCheck:
			if _, err := in.src.share(row); err != nil {
				return err
			}
		case opPow:
			w, err := in.src.share(row)
			if err != nil {
				return err
			}
			out := fr.out[:len(in.regs)]
			if err := in.pows.Powers(fr.ms, &fr.hits, w, fr.own[i], out); err != nil {
				return fmt.Errorf("engine: %s: %w", in.src.fname, err)
			}
			for e, reg := range in.regs {
				r[reg] = out[e]
			}
		case opMul:
			p.mc.MulTo(fr.ms, r[in.dst], r[in.a], r[in.b])
		case opScale:
			pv, err := in.src.value(row)
			if err != nil {
				return err
			}
			if !numericKind(pv.K) {
				return fmt.Errorf("engine: sdb_scale needs a numeric plaintext, got %s", pv.K)
			}
			p.mc.SetInt64(fr.tmp, pv.I)
			p.mc.MulTo(fr.ms, r[in.dst], r[in.a], fr.tmp)
		case opAdd:
			p.mc.AddTo(r[in.dst], r[in.a], r[in.b])
		case opSub:
			p.mc.SubTo(r[in.dst], r[in.a], r[in.b])
		}
	}
	return nil
}

// value finishes a root after run: a fresh share, or the sign sdb_sign
// reveals.
func (p *shareProg) value(fr *frame, rt *progRoot) types.Value {
	v := fr.r[rt.reg]
	if rt.sign {
		if rt.fin != nil {
			p.mc.MulTo(fr.ms, fr.tmp, v, rt.fin)
			v = fr.tmp
		}
		return types.NewInt(int64(p.mc.SignOf(v)))
	}
	if rt.fin == nil {
		return types.NewShare(p.mc.Int(v))
	}
	z := make([]big.Word, p.mc.Words())
	p.mc.MulTo(fr.ms, z, v, rt.fin)
	return types.NewShare(new(big.Int).SetBits(z))
}

// pval is a node's compile-time description: a register whose share is
// v·f mod n, or (reg < 0) a constant share c.
type pval struct {
	reg  int
	f, c *big.Int
}

// progBuilder compiles share trees over one modulus into a shareProg.
type progBuilder struct {
	p      *shareProg
	n      *big.Int
	r, rI  *big.Int // R and R⁻¹ mod n
	rel    *relation
	ctx    *evalCtx
	seen   map[insKey]int
	consts map[string]int
	pows   map[string]int // helper source key → its opPow's index in p.ins
}

func newProgBuilder(n *big.Int, rel *relation, ctx *evalCtx) *progBuilder {
	mc := bigmod.MontCtxFor(n) // callers validated n (udfModulus)
	ctx.secure = true
	return &progBuilder{
		p: &shareProg{mc: mc},
		n: n, r: mc.R(), rI: mc.RInv(), rel: rel, ctx: ctx,
		seen: map[insKey]int{}, consts: map[string]int{}, pows: map[string]int{},
	}
}

func (b *progBuilder) mul(xs ...*big.Int) *big.Int {
	z := big.NewInt(1)
	for _, x := range xs {
		z.Mul(z, x).Mod(z, b.n)
	}
	return z
}

// emit appends an instruction unless an identical one exists, returning
// its destination register.
func (b *progBuilder) emit(k insKey, in instr) int {
	if dst, ok := b.seen[k]; ok {
		return dst
	}
	in.dst = -1
	if in.op != opCheck {
		in.dst = b.p.nregs
		b.p.nregs++
	}
	b.seen[k] = in.dst
	b.p.ins = append(b.p.ins, in)
	return in.dst
}

// konst returns the register pre-loaded with the residue c.
func (b *progBuilder) konst(c *big.Int) int {
	key := c.Text(16)
	if reg, ok := b.consts[key]; ok {
		return reg
	}
	reg := b.p.nregs
	b.p.nregs++
	b.consts[key] = reg
	b.p.consts = append(b.p.consts, progConst{reg: reg, val: b.p.mc.Limbs(c)})
	return reg
}

// reg materialises a node as a register with its factor.
func (b *progBuilder) reg(x pval) (int, *big.Int) {
	if x.reg < 0 {
		return b.konst(x.c), big.NewInt(1)
	}
	return x.reg, x.f
}

// redc emits the one-REDC product of two registers.
func (b *progBuilder) redc(x, y int) int {
	return b.emit(insKey{op: opMul, a: min(x, y), b: max(x, y)}, instr{op: opMul, a: x, b: y})
}

// rescale multiplies a register's residue by g (one REDC by g·R).
func (b *progBuilder) rescale(reg int, g *big.Int) int {
	return b.redc(reg, b.konst(b.mul(g, b.r)))
}

// root compiles a share-UDF tree (or sdb_sign) as a program output.
func (b *progBuilder) root(x *sqlparser.FuncCall) (progRoot, error) {
	var v pval
	var err error
	sign := strings.EqualFold(x.Name, "sdb_sign")
	if sign {
		v, err = b.keyUpdate(x)
	} else {
		v, err = b.udf(x)
	}
	if err != nil {
		return progRoot{}, err
	}
	reg, f := b.reg(v)
	rt := progRoot{reg: reg, sign: sign}
	if f.Cmp(big.NewInt(1)) != 0 {
		rt.fin = b.p.mc.Limbs(b.mul(f, b.r))
	}
	return rt, nil
}

// node compiles one share-valued UDF argument.
func (b *progBuilder) node(ex sqlparser.Expr, fname string, arg int) (pval, error) {
	if fc, ok := ex.(*sqlparser.FuncCall); ok && isShareUDF(fc.Name) && !strings.EqualFold(fc.Name, "sdb_sign") {
		n, err := udfModulus(fc, b.ctx)
		if err != nil {
			return pval{}, err
		}
		if n.Cmp(b.n) == 0 {
			return b.udf(fc)
		}
	}
	c, ok, err := constValue(ex, b.ctx)
	if err != nil {
		return pval{}, err
	}
	if ok {
		if c.K != types.KindShare {
			return pval{}, fmt.Errorf("engine: %s arg %d must be a share, got %s", fname, arg, c.K)
		}
		return pval{reg: -1, c: new(big.Int).Mod(c.B, b.n)}, nil
	}
	src, err := b.source(ex, fname, arg, true)
	if err != nil {
		return pval{}, err
	}
	reg := b.emit(insKey{op: opLoad, src: src.key}, instr{op: opLoad, src: src})
	return pval{reg: reg, f: big.NewInt(1)}, nil
}

// source binds a non-constant leaf (a share one unless share is false).
func (b *progBuilder) source(ex sqlparser.Expr, fname string, arg int, share bool) (*shareSrc, error) {
	if share {
		if err := checkShareColumn(ex, b.rel, fname, arg); err != nil {
			return nil, err
		}
	}
	if cr, ok := ex.(sqlparser.ColRef); ok {
		idx, err := b.rel.resolve(cr.Table, cr.Name)
		if err != nil {
			return nil, err
		}
		return &shareSrc{col: idx, key: fmt.Sprintf("c%d", idx), fname: fname, arg: arg}, nil
	}
	fn, err := compile(ex, b.rel, b.ctx)
	if err != nil {
		return nil, err
	}
	return &shareSrc{col: -1, fn: fn, key: "e" + ex.String(), fname: fname, arg: arg}, nil
}

// helper binds a token's row-helper argument.
func (b *progBuilder) helper(ex sqlparser.Expr, fname string, arg int) (*shareSrc, error) {
	c, ok, err := constValue(ex, b.ctx)
	if err != nil {
		return nil, err
	}
	if !ok {
		return b.source(ex, fname, arg, true)
	}
	if c.K != types.KindShare {
		return nil, fmt.Errorf("engine: %s arg %d must be a share, got %s", fname, arg, c.K)
	}
	return &shareSrc{col: -1, fn: constExpr(c), konst: true, key: "k" + c.B.Text(16), fname: fname, arg: arg}, nil
}

// udf compiles one share-producing UDF call over the builder's modulus.
func (b *progBuilder) udf(x *sqlparser.FuncCall) (pval, error) {
	name := strings.ToLower(x.Name)
	switch name {
	case "sdb_mul", "sdb_add", "sdb_sub":
		l, err := b.node(x.Args[0], name, 1)
		if err != nil {
			return pval{}, err
		}
		r, err := b.node(x.Args[1], name, 2)
		if err != nil {
			return pval{}, err
		}
		if name == "sdb_mul" {
			return b.mulNodes(l, r), nil
		}
		return b.addNodes(l, r, name == "sdb_sub"), nil
	case "sdb_scale":
		// ve = v·vk⁻¹, so p·ve is a share of p·v under the SAME column key.
		ve, err := b.node(x.Args[0], name, 1)
		if err != nil {
			return pval{}, err
		}
		pv, ok, err := constValue(x.Args[1], b.ctx)
		if err != nil {
			return pval{}, err
		}
		if ok {
			if !numericKind(pv.K) {
				return pval{}, fmt.Errorf("engine: sdb_scale needs a numeric plaintext, got %s", pv.K)
			}
			return b.mulNodes(ve, pval{reg: -1, c: new(big.Int).Mod(big.NewInt(pv.I), b.n)}), nil
		}
		src, err := b.source(x.Args[1], name, 2, false)
		if err != nil {
			return pval{}, err
		}
		reg, f := b.reg(ve)
		dst := b.emit(insKey{op: opScale, a: reg, src: src.key}, instr{op: opScale, a: reg, src: src})
		return pval{reg: dst, f: b.mul(f, b.r)}, nil
	default: // sdb_keyupdate
		return b.keyUpdate(x)
	}
}

// keyUpdate compiles sdb_keyupdate(ve, w, P, Q, n) and sdb_sign (the same
// with the result revealed): the share P·ve·w^Q.
func (b *progBuilder) keyUpdate(x *sqlparser.FuncCall) (pval, error) {
	name := strings.ToLower(x.Name)
	p, q, err := tokenConsts(x, 2, b.ctx)
	if err != nil {
		return pval{}, err
	}
	ve, err := b.node(x.Args[0], name, 1)
	if err != nil {
		return pval{}, err
	}
	w, err := b.helper(x.Args[1], name, 2)
	if err != nil {
		return pval{}, err
	}
	if q.Sign() == 0 { // w^0 = 1: the helper is only kind-checked
		if !w.konst {
			b.emit(insKey{op: opCheck, src: w.key}, instr{op: opCheck, src: w})
		}
		if ve.reg < 0 {
			return pval{reg: -1, c: b.mul(p, ve.c)}, nil
		}
		return pval{reg: ve.reg, f: b.mul(p, ve.f)}, nil
	}
	y := b.pow(w, q)
	if ve.reg < 0 { // y·R residue: the constant joins the factor with R⁻¹
		return pval{reg: y, f: b.mul(p, ve.c, b.rI)}, nil
	}
	return pval{reg: b.redc(ve.reg, y), f: b.mul(p, ve.f)}, nil
}

// pow returns the register of ToMont(w^q), q ≠ 0. The exponent joins the
// source's one opPow, emitted where the source is first raised: an opPow
// reads only the row, so its later registers are ready before anything
// emitted after them reads them.
func (b *progBuilder) pow(w *shareSrc, q *big.Int) int {
	key := insKey{op: opPow, src: w.key, q: q.String()}
	if dst, ok := b.seen[key]; ok {
		return dst
	}
	i, ok := b.pows[w.key]
	if !ok {
		i = len(b.p.ins)
		b.pows[w.key] = i
		b.p.ins = append(b.p.ins, instr{op: opPow, src: w})
	}
	reg := b.p.nregs
	b.p.nregs++
	b.seen[key] = reg
	in := &b.p.ins[i]
	in.regs, in.qs = append(in.regs, reg), append(in.qs, q)
	b.p.maxPows = max(b.p.maxPows, len(in.regs))
	return reg
}

// build resolves every opPow's exponents in the memo and returns the
// finished program.
func (b *progBuilder) build() *shareProg {
	for i := range b.p.ins {
		if in := &b.p.ins[i]; in.op == opPow {
			in.pows = secure.NewPowerSet(b.n, in.qs...)
		}
	}
	return b.p
}

func (b *progBuilder) mulNodes(l, r pval) pval {
	switch {
	case l.reg < 0 && r.reg < 0:
		return pval{reg: -1, c: b.mul(l.c, r.c)}
	case r.reg < 0:
		return pval{reg: l.reg, f: b.mul(l.f, r.c)}
	case l.reg < 0:
		return pval{reg: r.reg, f: b.mul(r.f, l.c)}
	}
	return pval{reg: b.redc(l.reg, r.reg), f: b.mul(l.f, r.f, b.r)}
}

// addNodes brings both operands to one factor — dividing a constant by
// the row operand's factor at plan time, else rescaling one row operand —
// and adds or subtracts the residues.
func (b *progBuilder) addNodes(l, r pval, sub bool) pval {
	if l.reg < 0 && r.reg < 0 {
		c := new(big.Int).Add(l.c, r.c)
		if sub {
			c.Sub(l.c, r.c)
		}
		return pval{reg: -1, c: c.Mod(c, b.n)}
	}
	// f: the common factor; each side's residue is divided by it.
	f := r.f
	if l.reg >= 0 {
		f = l.f
	}
	fInv := new(big.Int).ModInverse(f, b.n)
	if fInv == nil { // no common factor to divide by: finish both sides
		f, fInv = big.NewInt(1), big.NewInt(1)
	}
	side := func(x pval) int {
		if x.reg < 0 {
			return b.konst(b.mul(x.c, fInv))
		}
		if x.f.Cmp(f) == 0 {
			return x.reg
		}
		return b.rescale(x.reg, b.mul(x.f, fInv))
	}
	lr, rr := side(l), side(r)
	op, a, c := opAdd, min(lr, rr), max(lr, rr)
	if sub {
		op, a, c = opSub, lr, rr
	}
	return pval{reg: b.emit(insKey{op: op, a: a, b: c}, instr{op: op, a: lr, b: rr}), f: f}
}

// checkShareColumn refuses, at plan time, a column argument whose declared
// kind rules out a share; undeclared kinds (derived columns) are checked
// per row.
func checkShareColumn(ex sqlparser.Expr, rel *relation, fname string, arg int) error {
	cr, ok := ex.(sqlparser.ColRef)
	if !ok {
		return nil
	}
	idx, err := rel.resolve(cr.Table, cr.Name)
	if err != nil {
		return err
	}
	if k := rel.cols[idx].kind; k != types.KindNull && k != types.KindShare {
		return fmt.Errorf("engine: %s arg %d must be a share, got %s", fname, arg, k)
	}
	return nil
}

func isShareUDF(name string) bool {
	_, ok := shareUDFs[strings.ToLower(name)]
	return ok
}

// udfModulus checks a share UDF's arity and returns its modulus, which
// must be an odd share constant of at least 3 (the Montgomery core's
// domain; anything else is malformed input, refused before any row runs).
func udfModulus(x *sqlparser.FuncCall, ctx *evalCtx) (*big.Int, error) {
	name := strings.ToLower(x.Name)
	if want := shareUDFs[name]; len(x.Args) != want {
		return nil, fmt.Errorf("engine: %s expects %d args, got %d", x.Name, want, len(x.Args))
	}
	return constModulus(x.Name, x.Args[len(x.Args)-1], ctx)
}

// constModulus evaluates a modulus argument.
func constModulus(fname string, ex sqlparser.Expr, ctx *evalCtx) (*big.Int, error) {
	n, ok, err := constValue(ex, ctx)
	if err != nil {
		return nil, err
	}
	if !ok || n.K != types.KindShare || bigmod.MontCtxFor(n.B) == nil {
		return nil, fmt.Errorf("engine: %s: modulus must be an odd share constant of at least 3", fname)
	}
	return n.B, nil
}

// tokenConsts evaluates a token's P and Q (arguments from, from+1).
func tokenConsts(x *sqlparser.FuncCall, from int, ctx *evalCtx) (p, q *big.Int, err error) {
	var vals [2]*big.Int
	for i := range vals {
		v, ok, err := constValue(x.Args[from+i], ctx)
		if err != nil {
			return nil, nil, err
		}
		if !ok || v.K != types.KindShare {
			return nil, nil, fmt.Errorf("engine: %s: token p and q must be share constants", x.Name)
		}
		vals[i] = v.B
	}
	return vals[0], vals[1], nil
}

// constValue evaluates ex when it names no column; ok is false otherwise.
func constValue(ex sqlparser.Expr, ctx *evalCtx) (v types.Value, ok bool, err error) {
	cols := false
	known := walkExpr(ex, func(x sqlparser.Expr) bool {
		_, isCol := x.(sqlparser.ColRef)
		cols = cols || isCol
		return !cols
	})
	if cols || !known {
		return types.Null, false, nil
	}
	v, err = evalConst(ex, ctx)
	return v, err == nil, err
}

// ---- expression sets ------------------------------------------------------

// exprSet is the expressions one operator evaluates per row — a
// projection's select list and order keys, an aggregation's group keys and
// arguments, an UPDATE's SET list — with every share tree over the set's modulus compiled into
// one program, so the operator pays each (helper, exponent) lookup and
// each common subtree once per row. Other expressions are closures.
type exprSet struct {
	prog  *shareProg // nil when no item is a share tree
	items []setItem
}

type setItem struct {
	fn   compiledExpr
	root progRoot
	raw  bool // the unscaled residue is read from the frame (share SUM)
}

// frame returns per-worker scratch for eval (nil when there is no program).
func (s *exprSet) frame() *frame {
	if s.prog == nil {
		return nil
	}
	return s.prog.get()
}

func (s *exprSet) release(fr *frame) {
	if fr != nil {
		s.prog.put(fr)
	}
}

// eval evaluates every item for one row into out (raw items excepted).
func (s *exprSet) eval(fr *frame, row types.Row, out []types.Value) error {
	if s.prog != nil {
		if err := s.prog.run(fr, row); err != nil {
			return err
		}
	}
	for i := range s.items {
		it := &s.items[i]
		switch {
		case it.fn != nil:
			v, err := it.fn(row)
			if err != nil {
				return err
			}
			out[i] = v
		case !it.raw:
			out[i] = s.prog.value(fr, &it.root)
		}
	}
	return nil
}

// raw returns a raw item's unscaled residue after eval.
func (s *exprSet) raw(fr *frame, i int) []big.Word { return fr.r[s.items[i].root.reg] }

// setBuilder assembles an exprSet. The program's modulus is the preferred
// one when given (the engine's, which share SUMs accumulate modulo), else
// the first share tree's.
type setBuilder struct {
	rel *relation
	ctx *evalCtx
	n   *big.Int
	pb  *progBuilder
	set exprSet
}

func newSetBuilder(rel *relation, ctx *evalCtx, n *big.Int) *setBuilder {
	return &setBuilder{rel: rel, ctx: ctx, n: n}
}

// add appends ex and returns its item index.
func (sb *setBuilder) add(ex sqlparser.Expr) (int, error) {
	i, _, _, err := sb.addSum(ex, nil)
	return i, err
}

// addFn appends a compiled closure.
func (sb *setBuilder) addFn(fn compiledExpr) int {
	sb.set.items = append(sb.set.items, setItem{fn: fn})
	return len(sb.set.items) - 1
}

// addSum appends the argument of a SUM modulo sumMod (nil: not a SUM).
// When it is a share tree modulo sumMod its residue stays unscaled (raw)
// and fin (F·R, nil for F = 1) is what the SUM multiplies its total by.
func (sb *setBuilder) addSum(ex sqlparser.Expr, sumMod *big.Int) (int, []big.Word, bool, error) {
	i := len(sb.set.items)
	if fc, ok := ex.(*sqlparser.FuncCall); ok && isShareUDF(fc.Name) {
		n, err := udfModulus(fc, sb.ctx)
		if err != nil {
			return 0, nil, false, err
		}
		if sb.n == nil {
			sb.n = n
		}
		if n.Cmp(sb.n) == 0 {
			if sb.pb == nil {
				sb.pb = newProgBuilder(n, sb.rel, sb.ctx)
			}
			rt, err := sb.pb.root(fc)
			if err != nil {
				return 0, nil, false, err
			}
			raw := sumMod != nil && !rt.sign && n.Cmp(sumMod) == 0
			sb.set.items = append(sb.set.items, setItem{root: rt, raw: raw})
			return i, rt.fin, raw, nil
		}
	}
	fn, err := compile(ex, sb.rel, sb.ctx)
	if err != nil {
		return 0, nil, false, err
	}
	return sb.addFn(fn), nil, false, nil
}

func (sb *setBuilder) build() *exprSet {
	if sb.pb != nil {
		sb.set.prog = sb.pb.build()
	}
	return &sb.set
}

// compileShareExpr compiles one share-UDF call (or sdb_sign) as a closure
// over a program of its own, for expression contexts evaluated one value
// at a time (predicates, join keys, CASE arms).
func compileShareExpr(x *sqlparser.FuncCall, rel *relation, ctx *evalCtx) (compiledExpr, error) {
	sb := newSetBuilder(rel, ctx, nil)
	if _, err := sb.add(x); err != nil {
		return nil, err
	}
	set := sb.build()
	p, rt := set.prog, set.items[0].root
	return func(row types.Row) (types.Value, error) {
		fr := p.get()
		defer p.put(fr)
		if err := p.run(fr, row); err != nil {
			return types.Null, err
		}
		return p.value(fr, &rt), nil
	}, nil
}

// ---- masked reveal --------------------------------------------------------

// maskedReveal is the comparison protocol's reveal over shares that arrive
// as values — sdb_min/sdb_max candidates: the sign of (a − b)·m·P mod n.
// P·R² is folded at plan time, so the reveal is two REDCs and no division.
type maskedReveal struct {
	mc   *bigmod.MontCtx
	c    []big.Word
	pool sync.Pool // *revealScratch
}

type revealScratch struct {
	ms   *bigmod.MontScratch
	d, t []big.Word
}

func newMaskedReveal(fname string, pEx, nEx sqlparser.Expr, ctx *evalCtx) (*maskedReveal, error) {
	n, err := constModulus(fname, nEx, ctx)
	if err != nil {
		return nil, err
	}
	p, ok, err := constValue(pEx, ctx)
	if err != nil {
		return nil, err
	}
	if !ok || p.K != types.KindShare {
		return nil, fmt.Errorf("engine: %s: reveal token p must be a share constant", fname)
	}
	mc := bigmod.MontCtxFor(n)
	ctx.secure = true
	c := new(big.Int).Mul(p.B, mc.R()) // P·R²: two REDCs leave P·(a − b)·m
	c.Mul(c, mc.R()).Mod(c, n)
	return &maskedReveal{mc: mc, c: mc.Limbs(c)}, nil
}

func (r *maskedReveal) sign(a, b, m *big.Int) int {
	s, ok := r.pool.Get().(*revealScratch)
	if !ok {
		k := r.mc.Words()
		s = &revealScratch{ms: r.mc.NewScratch(), d: make([]big.Word, k), t: make([]big.Word, k)}
	}
	defer r.pool.Put(s)
	r.mc.Reduce(s.d, a)
	r.mc.Reduce(s.t, b)
	r.mc.SubTo(s.d, s.d, s.t)
	r.mc.Reduce(s.t, m)
	r.mc.MulTo(s.ms, s.d, s.d, s.t)
	r.mc.MulTo(s.ms, s.d, s.d, r.c)
	return r.mc.SignOf(s.d)
}
