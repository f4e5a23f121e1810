package bigmod

import (
	"math/big"
	"math/bits"
)

// Fixed-base windowed exponentiation.
//
// A base that is raised to many exponents can have the square-and-multiply
// squarings precomputed once into a radix-2^w comb table
//
//	rows[i][j-1] = base^(j · 2^(w·i)) mod n   j ∈ [1, 2^w)
//
// after which base^e costs at most ceil(bits(e)/w) modular multiplications
// and zero squarings. The table only has to be as wide as the exponents it
// will see, which is what makes it affordable per base: the scheme has two
// kinds of fixed base, both owned by secure.Secret and both raised to a
// row id, which is 62 bits wide — so every table has 9 digit rows:
//
//   - the secret generator g, for row helpers g^r: one table modulo n
//     (~73 KB at 512 bits, ~293 KB at 2048);
//   - h = g^x for every column key ⟨m, x⟩ in use, for item keys m·h^r at
//     ≤ 9 multiplies each. It is built modulo n for the shares the DO
//     mints (the same size as g's) and modulo the secret prime p₁ for the
//     ones it decrypts (half that).
//
// A table is built once, immutable afterwards and read without locks. Row
// helpers are NOT fixed bases in this sense — each is raised to a handful
// of distinct exponents, which internal/secure memoises as whole powers
// instead (see secure/powmemo.go).

// fbWindow is the comb radix exponent: 7 bits per digit, 127 table
// entries per digit row (at 512 bits ~8 KB and 127 multiplications per
// row).
const fbWindow = 7

// FixedBase is the comb table of one (base, n) pair. Entries live in the
// Montgomery domain (raw k-limb residues) so the evaluation loop
// accumulates with REDC — each digit multiply costs 2k² word
// multiply-adds instead of a full multiply plus trial division — and
// converts out of the domain at most once per exponentiation. Even
// (degenerate) moduli have no Montgomery form and keep no table: Exp
// falls through to big.Int.Exp.
type FixedBase struct {
	base, n *big.Int
	bits    int // max exponent width the table covers
	mctx    *MontCtx
	mrows   [][][]big.Word // mrows[i][j-1] = ToMont(base^(j << (fbWindow*i)))
}

// NewFixedBase precomputes the comb table of base modulo n, covering
// exponents up to bits bits wide. It panics if n is nil or non-positive,
// like Exp.
func NewFixedBase(base, n *big.Int, bits int) *FixedBase {
	if n == nil || n.Sign() <= 0 {
		panic("bigmod: modulus must be positive")
	}
	t := &FixedBase{base: base, n: n, bits: bits, mctx: MontCtxFor(n)}
	if t.mctx == nil {
		return t
	}
	// The build itself runs on REDC (one ToMont for the base, then one
	// REDC per entry), so table construction gets the same per-multiply
	// win as evaluation.
	m := t.mctx
	s := m.NewScratch()
	k := m.Words()
	numRows := (bits + fbWindow - 1) / fbWindow
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

// Bytes returns the size of the table's entries.
func (t *FixedBase) Bytes() int {
	if t.mctx == nil {
		return 0
	}
	return len(t.mrows) * ((1 << fbWindow) - 1) * t.mctx.Words() * (montWordBits / 8)
}

// Covers reports whether MulExpTo can evaluate base^e: there is a table,
// and e is non-negative and no wider than it.
func (t *FixedBase) Covers(e *big.Int) bool {
	return t.mctx != nil && e.Sign() >= 0 && e.BitLen() <= t.bits
}

// MulExpTo multiplies the Montgomery residue acc (k limbs) by base^e in
// place: one REDC per non-zero digit of e, no allocation, no conversion.
// It is the evaluation entry for callers that stay in the domain and bring
// their own scratch. e is the exponent's little-endian limbs — a big.Int's
// Bits(), or a machine word on the stack — and must be no wider than the
// table (Covers); a wider one panics.
func (t *FixedBase) MulExpTo(s *MontScratch, acc []big.Word, e []big.Word) {
	for len(e) > 0 && e[len(e)-1] == 0 {
		e = e[:len(e)-1]
	}
	n := 0 // e's bit length
	if len(e) > 0 {
		n = (len(e)-1)*montWordBits + bits.Len(uint(e[len(e)-1]))
	}
	if n > len(t.mrows)*fbWindow {
		panic("bigmod: exponent wider than the fixed-base table")
	}
	for i := 0; i*fbWindow < n; i++ {
		wi, off := i*fbWindow/montWordBits, uint(i*fbWindow%montWordBits)
		d := uint(e[wi]) >> off
		if off+fbWindow > montWordBits && wi+1 < len(e) {
			d |= uint(e[wi+1]) << (montWordBits - off)
		}
		if d &= 1<<fbWindow - 1; d != 0 {
			t.mctx.MulTo(s, acc, acc, t.mrows[i][d-1])
		}
	}
}

// Exp returns base^e mod n. Semantics match Exp / big.Int.Exp, including
// negative exponents (the inverse of base^|e|, or nil when base is not
// invertible). Exponents wider than the table take the plain path, which
// handles any width.
func (t *FixedBase) Exp(e *big.Int) *big.Int {
	mag := e
	if e.Sign() < 0 {
		mag = new(big.Int).Neg(e)
	}
	if !t.Covers(mag) {
		return new(big.Int).Exp(t.base, e, t.n)
	}
	s := t.mctx.NewScratch()
	acc := t.mctx.One()
	t.MulExpTo(s, acc, mag.Bits())
	out := t.mctx.FromMont(s, acc)
	if e.Sign() < 0 {
		out = out.ModInverse(out, t.n)
	}
	return out
}
