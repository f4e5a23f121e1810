package bigmod

import "math/big"

// Fixed-base windowed exponentiation.
//
// The scheme has exactly one truly fixed base: the secret generator g,
// which every item-key derivation and every row-helper mint at the proxy
// exponentiates. For a fixed base the square-and-multiply squarings can be
// precomputed once into a radix-2^w comb table
//
//	rows[i][j-1] = base^(j · 2^(w·i)) mod n   j ∈ [1, 2^w)
//
// after which base^e costs at most ceil(bits(e)/w) modular multiplications
// and zero squarings — measured ~1.9x over big.Int.Exp at 512 bits.
//
// A table belongs to whoever owns the base (secure.Secret holds the one
// for g): it is built once, immutable afterwards and read without locks.
// Row helpers are NOT fixed bases in this sense — each is raised to a
// handful of distinct exponents, which internal/secure memoises as whole
// powers instead (see secure/powmemo.go).

// fbWindow is the comb radix exponent: 7 bits per digit, 127 table
// entries per digit row (~600 KB and ~9,400 multiplications to build at
// 512 bits, the work of roughly a dozen plain exponentiations).
const fbWindow = 7

// FixedBase is the comb table of one (base, n) pair. Entries live in the
// Montgomery domain (raw k-limb residues) so the evaluation loop
// accumulates with REDC — each digit multiply costs 2k² word
// multiply-adds instead of a full multiply plus trial division — and
// converts out of the domain exactly once per exponentiation. Even
// (degenerate) moduli have no Montgomery form and keep no table: Exp
// falls through to big.Int.Exp.
type FixedBase struct {
	base, n *big.Int
	bits    int // max exponent width the table covers
	mctx    *MontCtx
	mrows   [][][]big.Word // mrows[i][j-1] = ToMont(base^(j << (fbWindow*i)))
}

// NewFixedBase precomputes the comb table of base modulo n, covering
// exponents up to n.BitLen() bits wide. It panics if n is nil or
// non-positive, like Exp.
func NewFixedBase(base, n *big.Int) *FixedBase {
	if n == nil || n.Sign() <= 0 {
		panic("bigmod: modulus must be positive")
	}
	t := &FixedBase{base: base, n: n, bits: n.BitLen(), mctx: MontCtxFor(n)}
	if t.mctx == nil {
		return t
	}
	// The build itself runs on REDC (one ToMont for the base, then one
	// REDC per entry), so table construction gets the same per-multiply
	// win as evaluation.
	m := t.mctx
	s := m.NewScratch()
	k := m.Words()
	numRows := (t.bits + fbWindow - 1) / fbWindow
	bM := m.ToMont(s, base) // bM = ToMont(base^(2^(fbWindow·i))) for row i
	t.mrows = make([][][]big.Word, numRows)
	for i := 0; i < numRows; i++ {
		row := make([][]big.Word, (1<<fbWindow)-1)
		back := make([]big.Word, len(row)*k) // one backing array per row
		row[0] = back[:k]
		copy(row[0], bM)
		for j := 1; j < len(row); j++ {
			row[j] = back[j*k : (j+1)*k]
			m.MulTo(s, row[j], row[j-1], bM)
		}
		t.mrows[i] = row
		if i+1 < numRows {
			m.MulTo(s, bM, row[len(row)-1], bM)
		}
	}
	return t
}

// Exp returns base^e mod n. Semantics match Exp / big.Int.Exp, including
// negative exponents (the inverse of base^|e|, or nil when base is not
// invertible). Exponents wider than the table (unreduced key exponents
// can exceed n) take the plain path, which handles any width.
func (t *FixedBase) Exp(e *big.Int) *big.Int {
	mag := e
	if e.Sign() < 0 {
		mag = new(big.Int).Neg(e)
	}
	if t.mctx == nil || mag.BitLen() > t.bits {
		return new(big.Int).Exp(t.base, e, t.n)
	}
	s := t.mctx.NewScratch()
	acc := t.mctx.One()
	for i := 0; i*fbWindow < mag.BitLen(); i++ {
		d := 0
		for k := 0; k < fbWindow; k++ {
			d |= int(mag.Bit(i*fbWindow+k)) << k
		}
		if d != 0 {
			t.mctx.MulTo(s, acc, acc, t.mrows[i][d-1])
		}
	}
	out := t.mctx.FromMont(s, acc)
	if e.Sign() < 0 {
		out = out.ModInverse(out, t.n)
	}
	return out
}
