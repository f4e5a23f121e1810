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
	// PowersTo's chain, digit buckets and accumulators, and InvertAll's
	// prefix products: grown on first use and kept, so a worker's cold
	// exponentiations allocate them once.
	exp, inv []big.Word
	negs     [][]big.Word
}

// montHybridWords is the limb count from which mulTo switches from
// interleaved pure-Go CIOS to the hybrid form: full product via
// big.Int.Mul (assembly vector kernels) followed by a separate Montgomery
// reduction on math/big's assembly rows (reduce). For small moduli the
// interleaved loop wins on overhead; for wide ones the assembly kernels
// dominate. It is the one width rule of every REDC: the hit path's and
// exponentiation's multiplies take the same side of it. Tuned on the
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
	z = z[:len(x)] // one bounds check instead of one per limb
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
// a limb loop of its own (reduce). Same contract and bounds as the CIOS
// form. When x and y are one operand, the product is a square, which
// math/big computes with each cross product once from its
// basicSqrThreshold of 20 limbs (a schoolbook product below).
func (m *MontCtx) mulToHybrid(s *MontScratch, z, x []big.Word, y []big.Word) {
	k := m.k
	// SetBits aliases the operand limbs read-only; prod reuses its own
	// buffer across calls.
	s.xi.SetBits(x)
	yi := &s.xi
	if len(y) != len(x) || len(x) > 0 && &y[0] != &x[0] {
		yi = &s.yi
		yi.SetBits(y)
	}
	s.prod.Mul(&s.xi, yi)
	m.reduce(z, padTo(s.t[:2*k], s.prod.Bits()))
}

// reduce is the Montgomery reduction proper: z = t·R⁻¹ mod n for a 2k-limb
// t of value below n·R, which it clobbers. Round i clears t[i] by adding
// u·n at t[i:]; its carry lands on t[i+k], and the carry out of that word
// is deferred to the next round's (top). The pre-reduction value is
// < n·R + R·n = 2·R·n, so what is left in top at the end is at most 1 and
// one conditional subtraction finishes. From montHybridWords limbs up
// each round is math/big's assembly kernel; below it the pure-Go loop,
// which the call overhead of assembly would not beat (and which the fuzz
// tests hold the kernel to).
func (m *MontCtx) reduce(z, t []big.Word) {
	k := m.k
	var top uint
	for i := 0; i < k; i++ {
		u := t[i] * m.n0inv
		var c big.Word
		if k >= montHybridWords {
			c = addMulVVWAsm(t[i:i+k], m.nw, u)
		} else {
			c = addMulVVW(t[i:i+k], m.nw, u)
		}
		var sum uint
		sum, top = bits.Add(uint(t[i+k]), uint(c), top)
		t[i+k] = big.Word(sum)
	}
	if top != 0 || cmpVV(t[k:2*k], m.nw) >= 0 {
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

// MontExp returns base^exp mod n: PowersTo's one-exponent case, out of
// the Montgomery domain. Semantics match big.Int.Exp, including negative
// exponents (the inverse of base^|exp|, or nil when base is not
// invertible modulo n).
func (m *MontCtx) MontExp(base, exp *big.Int) *big.Int {
	s := m.NewScratch()
	z := [1][]big.Word{make([]big.Word, m.k)}
	if !m.PowersTo(s, z[:], base, []*big.Int{exp}) {
		return nil
	}
	return m.FromMont(s, z[0])
}

// PowersTo sets out[e] = ToMont(w^exps[e] mod n) for every exponent, each
// out[e] being k limbs of the caller's memory, by Yao's method over one
// chain: c_j = w^(2^(d·j)) is built once, with d squarings a step, for
// the widest |exp|. An exponent with base-2^d digits a_j is then
// Π_a B_a^a, where bucket B_a is the product of the c_j whose digit is
// a: one multiply per nonzero digit, and about 2·2^d to combine the
// buckets (an accumulator of B_(2^d−1)…B_a, multiplied in once per a).
// The squarings, which dominate one exponent's cost, are shared by all of
// them, and d minimises what is left (expWindow). Negative exponents take
// w^|exp| and are inverted together (InvertAll: one ModInverse per call).
// It reports false, leaving out unspecified, when an exponent is negative
// and w is not invertible modulo n — exactly where big.Int.Exp returns
// nil. w may be any integer; exps may be any width and sign.
//
// One exponent below montHybridWords limbs is big.Int.Exp's: there
// math/big's own Montgomery loop, on its assembly rows, beats a chain
// with nothing to share. On the benchmark container, in medians of calls
// alternating with one big.Int.Exp per exponent, the chain took 1.40× its
// time for one exponent at 512 bits and 0.80×, 0.61×, 0.53× for two,
// three, four; 0.92× for one at 1024 bits; at 2048 bits 0.87× for one and
// 0.35× for four. Exponents of more than twice n's bit length — far past
// any token's, a sum or difference of a few column-key exponents below
// n — are big.Int.Exp's one at a time too: the chain's memory grows with
// their width, and big.Int.Exp's does not.
func (m *MontCtx) PowersTo(s *MontScratch, out [][]big.Word, w *big.Int, exps []*big.Int) bool {
	k, b, negs := m.k, 0, 0
	for _, q := range exps {
		b = max(b, q.BitLen())
		if q.Sign() < 0 {
			negs++
		}
	}
	if len(exps) == 1 && k < montHybridWords || b > 2*m.n.BitLen() {
		for e, q := range exps {
			y := new(big.Int).Exp(w, q, m.n)
			if y == nil {
				return false
			}
			m.mulTo(s, out[e], m.r2, y.Bits())
		}
		return true
	}
	d := expWindow(len(exps), b)
	steps, nb := max(1, (b+d-1)/d), 1<<d-1
	s.exp = grow(s.exp, (steps+nb+1)*k)
	chain, buckets := s.exp[:steps*k], s.exp[steps*k:(steps+nb)*k]
	acc := s.exp[(steps+nb)*k:]
	at := func(v []big.Word, i int) []big.Word { return v[i*k : (i+1)*k : (i+1)*k] }
	m.mulTo(s, chain[:k], m.r2, m.reducedBits(w))
	for j := 1; j < steps; j++ {
		c, prev := at(chain, j), at(chain, j-1)
		m.mulTo(s, c, prev, prev)
		for i := 1; i < d; i++ {
			m.mulTo(s, c, c, c)
		}
	}
	for e, q := range exps {
		var filled [4]uint64 // bucket a−1 holds a product (nb ≤ 255)
		qb := q.Bits()
		for j := 0; j < steps; j++ {
			a := digit(qb, j*d, d)
			if a == 0 {
				continue
			}
			bk := at(buckets, int(a-1))
			if filled[(a-1)/64]&(1<<((a-1)%64)) != 0 {
				m.mulTo(s, bk, bk, at(chain, j))
			} else {
				copy(bk, at(chain, j))
				filled[(a-1)/64] |= 1 << ((a - 1) % 64)
			}
		}
		z, started := out[e], false
		copy(z, m.one)
		for a := nb; a >= 1; a-- {
			if filled[(a-1)/64]&(1<<((a-1)%64)) != 0 {
				if started {
					m.mulTo(s, acc, acc, at(buckets, a-1))
				} else {
					copy(acc, at(buckets, a-1))
					started = true
				}
			}
			if started {
				m.mulTo(s, z, z, acc)
			}
		}
	}
	if negs == 0 {
		return true
	}
	s.negs = s.negs[:0]
	for e, q := range exps {
		if q.Sign() < 0 {
			s.negs = append(s.negs, out[e])
		}
	}
	return m.InvertAll(s, s.negs)
}

// expWindow is PowersTo's digit width for e exponents of at most b bits:
// the d in [1, 8] that minimises the chain's squarings (⌈b/d⌉ − 1 steps of
// d) plus, per exponent, a multiply per digit and 2^(d+1) to combine.
func expWindow(e, b int) int {
	best, cost := 1, -1
	for d := 1; d <= 8; d++ {
		steps := max(1, (b+d-1)/d)
		if c := (steps-1)*d + e*(steps+2<<d); cost < 0 || c < cost {
			best, cost = d, c
		}
	}
	return best
}

// digit returns the d bits of the little-endian limbs e from bit i up.
func digit(e []big.Word, i, d int) uint {
	wi, off := i/montWordBits, uint(i%montWordBits)
	if wi >= len(e) {
		return 0
	}
	v := uint(e[wi]) >> off
	if off+uint(d) > montWordBits && wi+1 < len(e) {
		v |= uint(e[wi+1]) << (montWordBits - off)
	}
	return v & (1<<d - 1)
}

// grow returns v with length n, reusing its memory when it is large
// enough.
func grow(v []big.Word, n int) []big.Word {
	if cap(v) < n {
		return make([]big.Word, n)
	}
	return v[:n]
}

// InvertAll replaces every Montgomery residue in xs by its inverse, in
// place, with Montgomery's batch trick: prefix products, one ModInverse of
// the last, and two multiplies per residue on the way back. It reports
// false, leaving xs unchanged, when some residue shares a factor with n —
// the scalar inversion's failure — without saying which.
func (m *MontCtx) InvertAll(s *MontScratch, xs [][]big.Word) bool {
	if len(xs) == 0 {
		return true
	}
	k := m.k
	s.inv = grow(s.inv, (len(xs)+1)*k)
	pre, inv := s.inv[:len(xs)*k], s.inv[len(xs)*k:]
	at := func(i int) []big.Word { return pre[i*k : (i+1)*k : (i+1)*k] }
	copy(at(0), xs[0])
	for i := 1; i < len(xs); i++ {
		m.mulTo(s, at(i), at(i-1), xs[i])
	}
	// The product is P·R; its normal form P inverts to P⁻¹, whose
	// Montgomery form is P⁻¹·R.
	m.mulTo(s, inv, at(len(xs)-1), oneWord[:])
	v := new(big.Int).SetBits(inv)
	if v.ModInverse(v, m.n) == nil {
		return false
	}
	m.mulTo(s, inv, m.r2, v.Bits())
	for i := len(xs) - 1; i > 0; i-- {
		x := xs[i]
		m.mulTo(s, at(i), inv, at(i-1)) // x⁻¹, kept until x is used
		m.mulTo(s, inv, inv, x)
		copy(x, at(i))
	}
	copy(xs[0], inv)
	return true
}

// oneWord is the normal-domain 1 a Montgomery residue is multiplied by to
// leave the domain.
var oneWord = [1]big.Word{1}
