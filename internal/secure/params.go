// Package secure implements the SDB secret-sharing scheme and its
// data-interoperable secure operators (He et al., PVLDB 2015, §2).
//
// Every sensitive value v is split into two multiplicative shares:
//
//	item key   vk = gen(r, ⟨m,x⟩) = m · g^(r·x mod φ(n)) mod n   (Def. 1)
//	encrypted  ve = E(v, vk)      = v · vk⁻¹ mod n                (Def. 2)
//	decrypt    v  = D(ve, vk)     = ve · vk mod n                 (Eq. 4)
//
// The data owner (DO) keeps g, φ(n) and the per-column keys ⟨m,x⟩; the
// service provider (SP) stores ve together with a per-row helper
// w = g^r mod n that lets the SP execute key-transformation tokens without
// ever learning g, φ(n) or any column key. All operators consume and
// produce shares in this one encrypted space, which is the paper's
// "data interoperability" property.
//
// # The decrypt contract
//
// Only the DO knows n = p₁p₂, and p₁ divides n, so a product known modulo n
// is known modulo p₁ too. What the DO decrypts are result columns —
// application values and the sums and products the secure operators make
// of them — and every one is checked into an int64 afterwards (an AVG's
// sum into 128 bits, and its mean into an int64). The decrypt domain is
// stated with the Domain's own budget, magnitudes up to
//
//	2^(valueBits + maskBits)
//
// which leaves the int64 range far inside it. (Masked differences (A−B)·R
// can reach twice that, and stay modulo n: the SP reveals them to itself
// with a RevealToken and takes their sign; the DO never decrypts one.)
// When that magnitude also fits under p₁/2, the DO loses nothing by
// decrypting modulo p₁ alone, and a multiply modulo a prime half as wide is
// about three times cheaper. newSecret selects the half-width kernel once,
// from the parameters and nothing else:
//
//	p₁ is odd  and  bits(p₁) ≥ valueBits + maskBits + 2
//
// (then ⌊p₁/2⌋ ≥ 2^(valueBits+maskBits), so every in-domain plaintext
// decodes exactly). Every Setup of at least 288 bits with the 62/80
// defaults qualifies, the 2048-bit default included. A secret that cannot
// host the domain in p₁ — the paper's n = 35 example, an even modulus, a
// persisted 256-bit 62/80 secret — decrypts modulo n as before; that
// full-width kernel is also the oracle the tests compare against. There is
// no option: the same secret always takes the same kernel, across
// MarshalJSON/UnmarshalSecret too.
//
// The kernel is Decryptor's alone, the one place the proxy turns SP cells
// into plaintext. Everything that leaves the DO — shares (Encrypt,
// EncryptBatch, EncryptMask via ItemKey), row helpers, tokens — and the
// scalar Secret.Decrypt stay modulo n, byte for byte.
//
// Outside the contract nothing is promised, as before: SDB has no
// integrity, so a share the SP made up decrypts to garbage — under the
// half-width kernel garbage in (−p₁/2, p₁/2), which the int64 check of a
// cell rejects except with probability ≈ 2⁶⁴/p₁, and that of an AVG's
// mean except with probability ≈ count·2⁶⁴/p₁ — and an honest result
// that overflows past p₁/2 aliases with that probability instead of always
// failing those checks. Because such garbage is a residue of
// (share · item key), errors never print a decrypted value: two of them for
// chosen shares of one cell would give gcd(d₁·ve₂ − d₂·ve₁, n) = p₁.
package secure

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

	"sdb/internal/bigmod"
)

// Defaults for Setup. The paper (§2.1 fn. 3) uses 1024-bit primes, i.e. a
// 2048-bit modulus; tests and benchmarks use narrower moduli for speed and
// sweep the width in the experiment harness.
const (
	DefaultModulusBits = 2048
	DefaultValueBits   = 62 // application values fit int64
	DefaultMaskBits    = 80 // multiplicative headroom for comparison masks
)

var one = big.NewInt(1)

// Params is the public part of the scheme: the RSA modulus n. The SP sees
// only this.
type Params struct {
	N *big.Int
}

// Secret holds the DO-only key material: the prime factorisation of n, the
// secret generator g, φ(n), and the signed-value domain used to embed
// application integers into Z_n.
type Secret struct {
	params    *Params
	p1, p2    *big.Int
	phi       *big.Int
	g         *big.Int
	domain    *bigmod.Domain
	maskWidth int

	gOnce  sync.Once
	gTable *bigmod.FixedBase // comb table of g over RowIDBits, built by the first RowHelper

	// Item-key kernels (keytable.go). Everything that leaves the DO is
	// computed under full; dec is the kernel Decryptors run under, chosen
	// once by the decrypt contract above.
	full   *kernel    // modulo n
	dec    *kernel    // full, or the kernel of p₁
	oneM   []big.Word // full's ToMont(1)
	tables keyTables  // comb tables of g^x per (kernel, column key) in use
}

// Setup generates fresh key material: an RSA modulus of modulusBits bits, a
// random generator g co-prime with n, and a signed domain hosting
// valueBits-wide values with maskBits of comparison-mask headroom.
func Setup(modulusBits, valueBits, maskBits int) (*Secret, error) {
	if modulusBits < 16 {
		return nil, fmt.Errorf("secure: modulus width %d too small", modulusBits)
	}
	p1, err := bigmod.RandPrime(modulusBits / 2)
	if err != nil {
		return nil, err
	}
	p2, err := bigmod.RandPrime(modulusBits - modulusBits/2)
	if err != nil {
		return nil, err
	}
	for p1.Cmp(p2) == 0 {
		if p2, err = bigmod.RandPrime(modulusBits - modulusBits/2); err != nil {
			return nil, err
		}
	}
	n := new(big.Int).Mul(p1, p2)
	g, err := bigmod.RandInvertible(n)
	if err != nil {
		return nil, err
	}
	return newSecret(p1, p2, g, valueBits, maskBits)
}

// SetupFromPrimes builds key material from explicit primes and generator.
// It exists for deterministic tests such as the paper's Figure 1 worked
// example (ρ1=5, ρ2=7, n=35, g=2).
func SetupFromPrimes(p1, p2, g *big.Int, valueBits, maskBits int) (*Secret, error) {
	if !p1.ProbablyPrime(32) || !p2.ProbablyPrime(32) {
		return nil, errors.New("secure: factors must be prime")
	}
	return newSecret(p1, p2, g, valueBits, maskBits)
}

func newSecret(p1, p2, g *big.Int, valueBits, maskBits int) (*Secret, error) {
	n := new(big.Int).Mul(p1, p2)
	if !bigmod.Coprime(g, n) {
		return nil, errors.New("secure: g must be co-prime with n")
	}
	phi := new(big.Int).Mul(
		new(big.Int).Sub(p1, one),
		new(big.Int).Sub(p2, one),
	)
	domain, err := bigmod.NewDomain(n, valueBits, maskBits)
	if err != nil {
		return nil, err
	}
	s := &Secret{
		params:    &Params{N: n},
		p1:        new(big.Int).Set(p1),
		p2:        new(big.Int).Set(p2),
		phi:       phi,
		g:         new(big.Int).Set(g),
		domain:    domain,
		maskWidth: maskBits,
		full:      newKernel(n, phi),
	}
	if s.full.ctx != nil {
		s.oneM = s.full.ctx.One()
	}
	s.dec = s.full
	if p1.Bit(0) == 1 && p1.BitLen() >= valueBits+maskBits+2 {
		s.dec = newKernel(s.p1, new(big.Int).Sub(s.p1, one))
	}
	return s, nil
}

// Params returns the public parameters (safe to ship to the SP).
func (s *Secret) Params() *Params { return s.params }

// N returns the public modulus.
func (s *Secret) N() *big.Int { return s.params.N }

// Domain returns the signed-value embedding for this modulus.
func (s *Secret) Domain() *bigmod.Domain { return s.domain }

// maskBound returns the exclusive upper bound for comparison masks,
// 2^maskWidth; the domain reserved exactly this much multiplicative
// headroom at Setup, so (A−B)·R never wraps past n/2.
func (s *Secret) maskBound() *big.Int {
	return new(big.Int).Lsh(one, uint(s.maskWidth))
}
