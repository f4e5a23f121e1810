package bigmod

import (
	"math/big"
	"math/bits"
	"sync"
)

// Montgomery-form modular arithmetic.
//
// Every secure operator bottoms out in modular multiplication, and the
// warm path (fixed-base comb evaluation, token application) pays
// big.Int.Mod's full trial division after each multiply. Montgomery REDC
// replaces that division with two half-width multiplications over raw
// limbs: for an odd modulus n of k words and R = 2^(k·W), a value x is
// represented as x·R mod n, and REDC(t) = t·R⁻¹ mod n costs 2k² word
// multiply-adds with no quotient estimation and no allocation.
//
// The representation trick the hot paths lean on: montMul(a, b) computes
// a·b·R⁻¹, so multiplying one MONTGOMERY-form operand by one NORMAL-form
// operand yields a NORMAL-form product in a single REDC — cheaper than
// big.Int Mul+Mod. The fixed-base comb tables store their entries in the
// Montgomery domain (fixedbase.go) and the token applier pre-converts the
// token's P once per batch (internal/secure), so the per-row work is pure
// REDC.
//
// A MontCtx is immutable once built and cached per modulus; concurrent
// users share the ctx and bring their own MontScratch.

// montWordBits is the word width REDC operates in (the big.Word width).
const montWordBits = bits.UintSize

// MontCtx holds the precomputed per-modulus constants for REDC
// arithmetic: the modulus limbs, -n⁻¹ mod 2^W, and the residues R mod n
// and R² mod n. It is immutable and safe for concurrent use.
type MontCtx struct {
	n     *big.Int
	nw    []big.Word // modulus limbs, little-endian, length k
	k     int
	n0inv big.Word   // -n⁻¹ mod 2^W
	one   []big.Word // R mod n (the Montgomery form of 1), k limbs
	r2    []big.Word // R² mod n, k limbs (ToMont multiplier)
	half  []big.Word // ⌊n/2⌋, k limbs (SignOf)
	rInv  *big.Int   // R⁻¹ mod n
}

// MontScratch is the per-goroutine working memory for REDC operations
// over one MontCtx. Contexts are shared; scratches must not be.
type MontScratch struct {
	t []big.Word // 2k-limb REDC accumulator
	// Hybrid-path big.Int shells: xi/yi alias the operand limbs
	// (read-only), prod owns the product buffer and reuses it across
	// calls, so wide multiplies run on math/big's assembly kernels with
	// no steady-state allocation.
	xi, yi, prod big.Int
}

// montHybridWords is the limb count above which mulTo switches from
// interleaved pure-Go CIOS to the hybrid form: full product via
// big.Int.Mul (assembly vector kernels) followed by a separate pure-Go
// Montgomery reduction. For small moduli the interleaved loop wins on
// overhead; for wide ones the assembly multiply dominates. Tuned on the
// benchmark container (see EXPERIMENTS.md).
const montHybridWords = 16

// montCache memoises contexts per modulus. Moduli are few (one per
// deployment, one per test Setup); the bound only guards pathological
// churn, and a flush loses nothing but rebuild cost.
var (
	montMu       sync.Mutex
	montCtxs     = map[string]*MontCtx{}
	montCacheMax = 64
)

// MontCtxFor returns the cached Montgomery context for n, or nil when n
// does not support one (n must be odd and at least 3; even moduli fall
// back to plain big.Int arithmetic everywhere).
func MontCtxFor(n *big.Int) *MontCtx {
	if n == nil || n.Sign() <= 0 || n.Bit(0) == 0 || n.BitLen() < 2 {
		return nil
	}
	key := string(n.Bytes())
	montMu.Lock()
	defer montMu.Unlock()
	if m, ok := montCtxs[key]; ok {
		return m
	}
	m := newMontCtx(n)
	if len(montCtxs) >= montCacheMax {
		montCtxs = map[string]*MontCtx{}
	}
	montCtxs[key] = m
	return m
}

func newMontCtx(n *big.Int) *MontCtx {
	nw := n.Bits()
	k := len(nw)
	m := &MontCtx{
		n:  new(big.Int).Set(n),
		nw: append([]big.Word(nil), nw...),
		k:  k,
	}
	// n0inv = -n⁻¹ mod 2^W by Newton iteration: for odd v, x = v is the
	// inverse mod 8, and x ← x·(2 − v·x) doubles the correct low bits.
	v := uint(nw[0])
	x := v
	for i := 0; i < 5; i++ {
		x *= 2 - v*x
	}
	m.n0inv = big.Word(-x)
	// R mod n and R² mod n via big.Int (setup cost, not hot).
	r := new(big.Int).Lsh(one, uint(k*montWordBits))
	rMod := new(big.Int).Mod(r, n)
	r2 := new(big.Int).Mul(rMod, rMod)
	r2.Mod(r2, n)
	m.one = m.padded(rMod)
	m.r2 = m.padded(r2)
	m.half = m.padded(new(big.Int).Rsh(n, 1))
	m.rInv = new(big.Int).ModInverse(rMod, n) // n odd: R is a unit
	return m
}

// padded returns v's limbs little-endian, zero-padded to k words. v must
// be in [0, n).
func (m *MontCtx) padded(v *big.Int) []big.Word {
	z := make([]big.Word, m.k)
	copy(z, v.Bits())
	return z
}

// N returns the modulus.
func (m *MontCtx) N() *big.Int { return m.n }

// Words returns k, the limb length of every residue of this context.
func (m *MontCtx) Words() int { return m.k }

// NewScratch allocates working memory for REDC operations on this
// context. One scratch per goroutine.
func (m *MontCtx) NewScratch() *MontScratch {
	return &MontScratch{t: make([]big.Word, 2*m.k)}
}

// One returns a fresh copy of the Montgomery form of 1 (R mod n).
func (m *MontCtx) One() []big.Word {
	return append([]big.Word(nil), m.one...)
}

// addMulVVW computes z += x·y for a single word y, returning the carry.
// z and x have equal length. The per-step sum x[i]·y + z[i] + c is at
// most (2^W−1)² + 2(2^W−1) = 2^2W − 1, so the high word cannot overflow.
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word) {
	for i := range x {
		hi, lo := bits.Mul(uint(x[i]), uint(y))
		lo, cc := bits.Add(lo, uint(z[i]), 0)
		hi += cc
		lo, cc = bits.Add(lo, uint(c), 0)
		hi += cc
		z[i] = big.Word(lo)
		c = big.Word(hi)
	}
	return c
}

// subVV computes z = x − y over equal-length limbs, returning the borrow.
func subVV(z, x, y []big.Word) big.Word {
	var b uint
	for i := range x {
		d, bb := bits.Sub(uint(x[i]), uint(y[i]), b)
		z[i] = big.Word(d)
		b = bb
	}
	return big.Word(b)
}

// cmpVV compares equal-length limb vectors: -1, 0, +1.
func cmpVV(x, y []big.Word) int {
	for i := len(x) - 1; i >= 0; i-- {
		switch {
		case x[i] < y[i]:
			return -1
		case x[i] > y[i]:
			return 1
		}
	}
	return 0
}

// mulTo is the Montgomery multiplication core: z = x·y·R⁻¹ mod n.
// x must be exactly k limbs with value < n; y is little-endian with any
// length ≤ k and value < n; z is k limbs and may alias x or y (the
// accumulator lives in s.t until the final writeback). The result is
// fully reduced (< n): with both inputs < n the pre-reduction value is
// (x·y + q·n)/R < 2n, so one conditional subtraction suffices.
//
// Below montHybridWords limbs the loop is the finely integrated form of
// CIOS: per word d of y, one pass over the limbs adds x·d and u·n (u
// chosen so the low word cancels) through two carry chains and stores the
// sum shifted down a word, so the accumulator is k+1 words, each read and
// written once per pass.
func (m *MontCtx) mulTo(s *MontScratch, z, x []big.Word, y []big.Word) {
	k := m.k
	if k >= montHybridWords {
		m.mulToHybrid(s, z, x, y)
		return
	}
	t := s.t[:k+1]
	for i := range t {
		t[i] = 0
	}
	// The inner loop runs over limbs 1..k-1; equal-length views let the
	// compiler drop its bounds checks.
	x1 := x[1:k]
	n1, tIn, tOut := m.nw[1:][:len(x1)], t[1:][:len(x1)], t[:len(x1)]
	for i := 0; i < k; i++ {
		var d uint
		if i < len(y) {
			d = uint(y[i])
		}
		// Word 0 fixes u; its sum is 0 mod 2^W by construction.
		c1, lo := bits.Mul(uint(x[0]), d)
		lo, c := bits.Add(lo, uint(t[0]), 0)
		c1 += c
		u := lo * uint(m.n0inv)
		c2, lo2 := bits.Mul(u, uint(m.nw[0]))
		_, c = bits.Add(lo2, lo, 0)
		c2 += c
		for j := range x1 {
			hi, lo := bits.Mul(uint(x1[j]), d)
			lo, c = bits.Add(lo, uint(tIn[j]), 0)
			hi += c
			lo, c = bits.Add(lo, c1, 0)
			c1 = hi + c
			hi, lo2 := bits.Mul(u, uint(n1[j]))
			lo2, c = bits.Add(lo2, lo, 0)
			hi += c
			lo2, c = bits.Add(lo2, c2, 0)
			c2 = hi + c
			tOut[j] = big.Word(lo2)
		}
		// The running value stays below 2n < 2^(kW+1): t[k] is 0 or 1.
		top, c := bits.Add(uint(t[k]), c1, 0)
		top, cc := bits.Add(top, c2, 0)
		t[k-1] = big.Word(top)
		t[k] = big.Word(c + cc)
	}
	nw := m.nw
	// Value = t[k]·2^(kW) + t[:k] < 2n. The borrow of the truncated
	// subtraction cancels the carry, so the k-limb result is exact.
	if t[k] != 0 || cmpVV(t[:k], nw) >= 0 {
		subVV(z, t[:k], nw)
	} else {
		copy(z, t[:k])
	}
}

// mulToHybrid is the wide-modulus form of mulTo: the 2k-limb product
// comes from big.Int.Mul (math/big's assembly kernels), and only the
// Montgomery reduction — the part that replaces trial division — runs as
// a pure-Go limb loop. Same contract and bounds as the CIOS form.
func (m *MontCtx) mulToHybrid(s *MontScratch, z, x []big.Word, y []big.Word) {
	k := m.k
	// SetBits aliases the operand limbs read-only; prod reuses its own
	// buffer across calls.
	s.xi.SetBits(x)
	s.yi.SetBits(y)
	s.prod.Mul(&s.xi, &s.yi)
	m.reduce(z, padTo(s.t[:2*k], s.prod.Bits()))
}

// reduce is the Montgomery reduction proper: z = t·R⁻¹ mod n for a 2k-limb
// t of value below n·R, which it clobbers. It clears t word by word; each
// round's carry lands at t[i+k] and propagates only as far as it actually
// carries. The pre-reduction value is < n·R + R·n = 2·R·n, so the word
// above t[2k-1] is at most 1 (tracked in extra) and one conditional
// subtraction finishes.
func (m *MontCtx) reduce(z, t []big.Word) {
	k := m.k
	var extra big.Word
	for i := 0; i < k; i++ {
		u := t[i] * m.n0inv
		c := addMulVVW(t[i:i+k], m.nw, u)
		for j := i + k; c != 0; j++ {
			if j == 2*k {
				extra += c
				break
			}
			sum, cc := bits.Add(uint(t[j]), uint(c), 0)
			t[j] = big.Word(sum)
			c = big.Word(cc)
		}
	}
	if extra != 0 || cmpVV(t[k:2*k], m.nw) >= 0 {
		subVV(z, t[k:2*k], m.nw)
	} else {
		copy(z, t[k:2*k])
	}
}

// Redc computes z = v·R⁻¹ mod n for a non-negative v below n·R — REDC's
// whole input range, twice as wide as a residue — in half the work of a
// multiply and with no division. It is how a value known modulo a multiple
// of n (a share modulo p₁p₂, with n = p₁ and p₂ < R) enters arithmetic
// modulo n: a later ⊙ by a residue carrying one extra factor of R cancels
// the R⁻¹. It reports false, leaving z unspecified, for a v outside the
// range.
func (m *MontCtx) Redc(s *MontScratch, z []big.Word, v *big.Int) bool {
	k, vb := m.k, v.Bits()
	if v.Sign() < 0 || len(vb) > 2*k {
		return false
	}
	t := padTo(s.t[:2*k], vb)
	if cmpVV(t[k:], m.nw) >= 0 { // v = hi·R + lo is below n·R iff hi < n
		return false
	}
	m.reduce(z, t)
	return true
}

// padTo copies v into dst, zero-filling the rest, and returns dst.
func padTo(dst, v []big.Word) []big.Word {
	n := copy(dst, v)
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
	return dst
}

// MulTo computes z = x ⊙ y (one REDC): both operands in the Montgomery
// domain yields a Montgomery-domain product; one Montgomery-domain and
// one normal-domain operand yields a NORMAL-domain product. x must be k
// limbs; y any length ≤ k; z k limbs, aliasing allowed.
func (m *MontCtx) MulTo(s *MontScratch, z, x, y []big.Word) {
	m.mulTo(s, z, x, y)
}

// reducedBits returns v as limbs with value < n, reducing only when
// needed (stored shares and token material are already reduced).
func (m *MontCtx) reducedBits(v *big.Int) []big.Word {
	if v.Sign() < 0 || v.Cmp(m.n) >= 0 {
		return new(big.Int).Mod(v, m.n).Bits()
	}
	return v.Bits()
}

// MulBig computes z = x ⊙ v where v is a normal-domain big.Int (reduced
// mod n as needed). With x in the Montgomery domain the result is the
// normal-domain product x·v — the single-REDC asymmetric multiply.
func (m *MontCtx) MulBig(s *MontScratch, z, x []big.Word, v *big.Int) {
	m.mulTo(s, z, x, m.reducedBits(v))
}

// ToMont converts a normal-domain value into a fresh Montgomery residue:
// v·R mod n = REDC(v · R²).
func (m *MontCtx) ToMont(s *MontScratch, v *big.Int) []big.Word {
	z := make([]big.Word, m.k)
	m.mulTo(s, z, m.r2, m.reducedBits(v))
	return z
}

// R returns R mod n and RInv returns R⁻¹ mod n, as fresh values: the
// factors a caller folds into its constants when it tracks which power of
// R a product of REDCs carries.
func (m *MontCtx) R() *big.Int    { return new(big.Int).SetBits(append([]big.Word(nil), m.one...)) }
func (m *MontCtx) RInv() *big.Int { return new(big.Int).Set(m.rInv) }

// Limbs returns v mod n as a fresh k-limb residue (no R factor).
func (m *MontCtx) Limbs(v *big.Int) []big.Word {
	z := make([]big.Word, m.k)
	m.Reduce(z, v)
	return z
}

// Reduce sets the k limbs of z to v mod n. It allocates only when v lies
// outside [0, n) — stored shares never do.
func (m *MontCtx) Reduce(z []big.Word, v *big.Int) {
	padTo(z, m.reducedBits(v))
}

// SetInt64 sets the k limbs of z to v mod n, for the plaintext multiplier
// of a scaled share. Moduli of one word fall back to big.Int.
func (m *MontCtx) SetInt64(z []big.Word, v int64) {
	if m.n.BitLen() <= 64 {
		m.Reduce(z, big.NewInt(v))
		return
	}
	abs := uint64(v)
	if v < 0 {
		abs = -abs
	}
	padTo(z, nil)
	z[0] = big.Word(abs)
	if montWordBits == 32 {
		z[1] = big.Word(abs >> 32)
	}
	if v < 0 {
		subVV(z, m.nw, z) // |v| < n, so n − |v| is the residue
	}
}

// AddTo sets z = x + y mod n over k-limb residues (both below n): one
// add and one conditional subtract, no division. z may alias x or y.
func (m *MontCtx) AddTo(z, x, y []big.Word) {
	var c uint
	for i := range z[:m.k] {
		s, cc := bits.Add(uint(x[i]), uint(y[i]), c)
		z[i], c = big.Word(s), cc
	}
	if c != 0 || cmpVV(z[:m.k], m.nw) >= 0 {
		subVV(z, z, m.nw)
	}
}

// AddBig sets z = z + v mod n for a k-limb residue z and any v, allocating
// only when v lies outside [0, n).
func (m *MontCtx) AddBig(z []big.Word, v *big.Int) {
	vb := m.reducedBits(v)
	var c uint
	for i := range z[:m.k] {
		var y uint
		if i < len(vb) {
			y = uint(vb[i])
		}
		s, cc := bits.Add(uint(z[i]), y, c)
		z[i], c = big.Word(s), cc
	}
	if c != 0 || cmpVV(z[:m.k], m.nw) >= 0 {
		subVV(z, z, m.nw)
	}
}

// SubTo sets z = x − y mod n over k-limb residues (both below n). z may
// alias x or y.
func (m *MontCtx) SubTo(z, x, y []big.Word) {
	if subVV(z[:m.k], x, y) != 0 {
		var c uint
		for i := range z[:m.k] {
			s, cc := bits.Add(uint(z[i]), uint(m.nw[i]), c)
			z[i], c = big.Word(s), cc
		}
	}
}

// SignOf reads a k-limb residue as a centred value: 0 for zero, −1 above
// ⌊n/2⌋, +1 otherwise — the sign a revealed masked difference carries.
func (m *MontCtx) SignOf(x []big.Word) int {
	switch {
	case cmpVV(x[:m.k], m.half) > 0:
		return -1
	case isZero(x[:m.k]):
		return 0
	default:
		return 1
	}
}

func isZero(x []big.Word) bool {
	for _, w := range x {
		if w != 0 {
			return false
		}
	}
	return true
}

// Int128 reads a k-limb residue in [0, n) as a centred value, in
// (−n/2, n/2], and returns it in 128-bit two's complement as a high and a
// low word, or false when it does not fit. It allocates nothing: the
// magnitude of a residue above ⌊n/2⌋ is n − x, taken limb by limb.
func (m *MontCtx) Int128(x []big.Word) (hi int64, lo uint64, ok bool) {
	neg := cmpVV(x[:m.k], m.half) > 0
	var mag [2]uint64 // little-endian
	var borrow uint
	for i, w := range x[:m.k] {
		d := uint(w)
		if neg {
			d, borrow = bits.Sub(uint(m.nw[i]), d, borrow)
		}
		switch sh := i * montWordBits; {
		case sh < 128:
			mag[sh/64] |= uint64(d) << (sh % 64)
		case d != 0:
			return 0, 0, false
		}
	}
	// |v| < 2^127, or = 2^127 for v = −2^127.
	if mag[1] > 1<<63 || mag[1] == 1<<63 && (!neg || mag[0] != 0) {
		return 0, 0, false
	}
	h, l := mag[1], mag[0]
	if neg {
		var b uint64
		l, b = bits.Sub64(0, l, 0)
		h, _ = bits.Sub64(0, h, b)
	}
	return int64(h), l, true
}

// Int returns a k-limb residue as a fresh big.Int.
func (m *MontCtx) Int(x []big.Word) *big.Int {
	return new(big.Int).SetBits(append([]big.Word(nil), x[:m.k]...))
}

// FromMont converts a Montgomery residue back to a normal-domain
// big.Int: REDC(x · 1) = x·R⁻¹ mod n.
func (m *MontCtx) FromMont(s *MontScratch, x []big.Word) *big.Int {
	z := make([]big.Word, m.k)
	m.mulTo(s, z, x, []big.Word{1})
	return new(big.Int).SetBits(z)
}

// MontMul returns a·b mod n through a Montgomery round trip (two REDCs,
// no division). Semantics match Mul.
func (m *MontCtx) MontMul(a, b *big.Int) *big.Int {
	s := m.NewScratch()
	aM := m.ToMont(s, a)
	m.MulBig(s, aM, aM, b)
	return new(big.Int).SetBits(aM)
}

// MontExp returns base^exp mod n by 4-bit-window square-and-multiply in
// the Montgomery domain. Semantics match big.Int.Exp, including negative
// exponents (the inverse of base^|exp|, or nil when base is not
// invertible modulo n).
func (m *MontCtx) MontExp(base, exp *big.Int) *big.Int {
	if exp.Sign() < 0 {
		r := m.MontExp(base, new(big.Int).Neg(exp))
		return r.ModInverse(r, m.n)
	}
	s := m.NewScratch()
	// table[d] = base^(d+1) in the Montgomery domain.
	var table [15][]big.Word
	table[0] = m.ToMont(s, base)
	for d := 1; d < len(table); d++ {
		table[d] = make([]big.Word, m.k)
		m.mulTo(s, table[d], table[d-1], table[0])
	}
	acc := m.One()
	for i := (exp.BitLen() + 3) / 4; i > 0; i-- {
		if i != (exp.BitLen()+3)/4 {
			for j := 0; j < 4; j++ {
				m.mulTo(s, acc, acc, acc)
			}
		}
		d := 0
		for j := 0; j < 4; j++ {
			b := 4*(i-1) + j
			d |= int(exp.Bit(b)) << j
		}
		if d != 0 {
			m.mulTo(s, acc, acc, table[d-1])
		}
	}
	return m.FromMont(s, acc)
}

// BatchInv inverts every element of xs modulo n with Montgomery's batch
// trick: one ModInverse plus three multiplications per element, instead
// of one ModInverse each. It returns ErrNotInvertible (wrapped) if any
// element shares a factor with n — the same failure the scalar Inv path
// reports — without identifying which element. Inputs are not modified.
func BatchInv(xs []*big.Int, n *big.Int) ([]*big.Int, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	// prefix[i] = xs[0]·…·xs[i-1] mod n (prefix[0] = 1).
	prefix := make([]*big.Int, len(xs)+1)
	prefix[0] = big.NewInt(1)
	for i, x := range xs {
		prefix[i+1] = Mul(prefix[i], x, n)
	}
	acc, err := Inv(prefix[len(xs)], n)
	if err != nil {
		return nil, err
	}
	out := make([]*big.Int, len(xs))
	for i := len(xs) - 1; i >= 0; i-- {
		out[i] = Mul(acc, prefix[i], n)
		acc = Mul(acc, xs[i], n)
	}
	return out, nil
}

// MontCacheReset clears the per-modulus context cache (tests).
func MontCacheReset() {
	montMu.Lock()
	defer montMu.Unlock()
	montCtxs = map[string]*MontCtx{}
}
