package secure

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"sync"

	"sdb/internal/bigmod"
	"sdb/internal/types"
)

// Item keys through per-column-key comb tables.
//
// gen(r, ⟨m,x⟩) = m·g^(r·x) = m·(g^x)^r, and h = g^x is a fixed base for
// as long as the column key lives. Row ids are RowIDBits wide, so a comb
// table of h has ⌈62/7⌉ = 9 digit rows and an item key costs at most 9
// multiplies, on the encrypt and the decrypt side alike. g's own table
// (RowHelper) has the same 9 rows: no exponent of the DO is wider.
//
// A column key has up to two such tables, one per kernel (params.go, "The
// decrypt contract"), each built on the first touch that needs it:
//
//   - modulo n, for the shares the DO mints (ItemKey): ~73 KB at 512 bits,
//     one square-and-multiply for h plus ~1,150 full-width REDCs to build;
//   - modulo p₁, for the shares it decrypts (Decryptor) when the secret
//     takes the half-width kernel: half the bytes (~37 KB) and ~1,150
//     half-width REDCs, each about a third of the cost.
//
// A column that is only read never builds the first, one that is only
// written never builds the second.
//
// The tables belong to the Secret: a memo keyed by (kernel, x), so a
// rotation — which mints a new x — never invalidates anything; it only
// makes an old table cold. Past maxKeyTables the least recently used table
// is dropped, and the memo is garbage with its Secret. Moduli without a
// Montgomery form have no tables and take r·x mod φ(n) by
// square-and-multiply (gPow), and so does a word of 2^RowIDBits or more
// handed to ItemKey, so ItemKey is exact for every input; a Decryptor
// refuses such a word instead.

// maxKeyTables bounds the memo, whatever the kernels of its tables: 64
// modulo-n tables are 4.7 MB at 512 bits and 18.7 MB at 2048 (half that
// modulo p₁), several times the column keys one statement touches.
const maxKeyTables = 64

// KeyTableStats are the memo's counters. They count tables, never
// describe them: no key material is derivable from a stats value.
type KeyTableStats struct {
	Tables    int    // tables resident
	Bytes     int    // their entries' size
	Builds    uint64 // tables ever built
	Evictions uint64 // tables dropped by the bound
}

type keyTable struct {
	fb   *bigmod.FixedBase
	used uint64 // keyTables.tick at the last lookup
}

type keyTables struct {
	mu    sync.Mutex
	byX   map[string]*keyTable // by tableKey
	tick  uint64
	stats KeyTableStats // Tables is len(byX), filled in on read
}

// kernel is item-key arithmetic under one modulus: n, or the secret prime
// p₁ that divides it.
type kernel struct {
	mod   *big.Int
	order *big.Int        // φ(mod): φ(n), or p₁ − 1; g^x depends on x modulo it
	half  *big.Int        // ⌊mod/2⌋: residues above it decode negative
	ctx   *bigmod.MontCtx // nil for a modulus without a Montgomery form
	pool  sync.Pool       // *keyScratch
}

func newKernel(mod, order *big.Int) *kernel {
	return &kernel{mod: mod, order: order, half: new(big.Int).Rsh(mod, 1), ctx: bigmod.MontCtxFor(mod)}
}

// keyScratch is the pooled working memory of one item-key evaluation.
type keyScratch struct {
	ms       *bigmod.MontScratch
	acc, red []big.Word // k limbs each: the item key so far, the reduced share
}

func (k *kernel) scratch() *keyScratch {
	if ks, ok := k.pool.Get().(*keyScratch); ok {
		return ks
	}
	w := k.ctx.Words()
	return &keyScratch{ms: k.ctx.NewScratch(), acc: make([]big.Word, w), red: make([]big.Word, w)}
}

// signed decodes a residue the caller owns, in [0, mod), in place.
func (k *kernel) signed(r *big.Int) *big.Int {
	if r.Cmp(k.half) > 0 {
		r.Sub(r, k.mod)
	}
	return r
}

// KeyTableStats reports the per-column-key table memo's counters.
func (s *Secret) KeyTableStats() KeyTableStats {
	s.tables.mu.Lock()
	defer s.tables.mu.Unlock()
	st := s.tables.stats
	st.Tables = len(s.tables.byX)
	return st
}

// tableKey is the memo key of x's table under k.
func (s *Secret) tableKey(k *kernel, x *big.Int) string {
	kind := "n"
	if k != s.full {
		kind = "p"
	}
	return kind + string(x.Bytes())
}

// keyBase returns h = g^x modulo k's modulus, the base of x's table: one
// square-and-multiply, with x reduced by the group order.
func (s *Secret) keyBase(k *kernel, x *big.Int) *big.Int {
	return k.ctx.MontExp(s.g, new(big.Int).Mod(x, k.order))
}

// keyTable returns the comb table of g^x under k over RowIDBits-wide
// exponents, building it on first touch, or nil when x has no table: flat
// and malformed keys (x ≤ 0) and moduli without a Montgomery form. A first
// touch builds under the memo's lock: one build is ~16 item keys, and a
// second toucher of the same x would have to wait for it anyway.
func (s *Secret) keyTable(k *kernel, x *big.Int) *bigmod.FixedBase {
	if k.ctx == nil || x.Sign() <= 0 {
		return nil
	}
	m := &s.tables
	key := s.tableKey(k, x)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick++
	if t, ok := m.byX[key]; ok {
		t.used = m.tick
		return t.fb
	}
	t := &keyTable{fb: bigmod.NewFixedBase(s.keyBase(k, x), k.mod, RowIDBits), used: m.tick}
	if m.byX == nil {
		m.byX = make(map[string]*keyTable)
	}
	m.byX[key] = t
	m.stats.Builds++
	m.stats.Bytes += t.fb.Bytes()
	for len(m.byX) > maxKeyTables {
		var oldest string
		for k, c := range m.byX {
			if oldest == "" || c.used < m.byX[oldest].used {
				oldest = k
			}
		}
		m.stats.Bytes -= m.byX[oldest].fb.Bytes()
		delete(m.byX, oldest)
		m.stats.Evictions++
	}
	return t.fb
}

// gPow returns g^(r·x mod φ(n)) mod n by square-and-multiply, for the item
// keys no per-key table covers.
func (s *Secret) gPow(r RowID, x *big.Int) *big.Int {
	e := new(big.Int).SetUint64(r)
	e.Mul(e, x)
	return bigmod.Exp(s.g, e.Mod(e, s.phi), s.params.N)
}

// Decryptor decrypts the shares of one result column. The column's key is
// a product of column keys (paper §2.2: multiplying shares multiplies
// their keys), each either flat or keyed by the row id of one join side,
// so its item key is Πm · Π(g^x_i)^r_i. A Decryptor keeps Πm in Montgomery
// form and the comb table of every g^x_i under the secret's decrypt kernel
// (params.go, "The decrypt contract"); per share it starts the accumulator
// at Πm, walks at most 9 table digits per row-keyed factor and finishes
// with one REDC by the share, which lands the product in the normal domain
// — no conversion, no trial division, no allocation — and reads the
// centred residue straight into 128 bits: an int64 plaintext, or the sum
// of such under a SUM share, which AVG divides before it must fit. A column under flat keys only
// (aggregates, tags) is the one-multiply case.
//
// Under the half-width kernel all of that runs modulo p₁. The share itself
// arrives modulo n = p₁p₂ < p₁·R₁, which is REDC's input range, so one bare
// reduction (half a multiply) brings it into Z_p₁ as ve·R₁⁻¹, and the
// accumulator starts with one more factor of R₁ to take that back.
//
// A Decryptor is immutable and safe for concurrent use. It pins the
// tables it resolved, so hold one for a statement execution, not longer.
type Decryptor struct {
	s    *Secret
	k    *kernel
	keys []ColumnKey
	m    *big.Int            // Πm mod n
	mM   []big.Word          // Πm·R under the full-width kernel, Πm·R₁² under the half-width one; nil without a Montgomery form
	tabs []*bigmod.FixedBase // tabs[i] is keys[i]'s table under k, nil if it has none
}

// NewDecryptor resolves the decryptor of a column under the product of
// keys, building the comb tables not yet in the secret's memo.
func (s *Secret) NewDecryptor(keys ...ColumnKey) *Decryptor {
	return s.newDecryptor(s.dec, keys)
}

// newDecryptor is NewDecryptor under an explicit kernel: s.dec, or s.full
// as the oracle of the tests.
func (s *Secret) newDecryptor(k *kernel, keys []ColumnKey) *Decryptor {
	d := &Decryptor{s: s, k: k, keys: keys, m: big.NewInt(1), tabs: make([]*bigmod.FixedBase, len(keys))}
	for i, ck := range keys {
		d.m = bigmod.Mul(d.m, ck.M, s.params.N)
		d.tabs[i] = s.keyTable(k, ck.X)
	}
	if k.ctx != nil {
		ks := k.scratch()
		d.mM = k.ctx.ToMont(ks.ms, d.m)
		if k != s.full {
			// One more factor of R₁, which Redc of the share takes back.
			d.mM = k.ctx.ToMont(ks.ms, new(big.Int).SetBits(d.mM))
		}
		k.pool.Put(ks)
	}
	return d
}

// errOverflow reports a decrypted value outside 128 bits by that fact
// alone: it is the sum of SENSITIVE plaintexts or, for a share the SP made
// up, a residue of share · item key — and two of those for chosen shares
// of one cell factor n (params.go).
var errOverflow = errors.New("secure: decrypted value overflows 128 bits")

// Decrypt decodes one share: Decode(ve · Π gen(r_i, key_i)) as a 128-bit
// integer — a cell's plaintext is its Int64, an AVG's mean the MeanX100 of
// its sum, which may pass int64 where the mean does not. rids holds one
// row id per key with x ≠ 0, in key order; flat keys take none. A row id
// is a machine word below 2^RowIDBits, the width the tables cover and the
// only one the proxy draws. Shares come from the SP, so a missing or
// out-of-range ve or row id is an error, never a panic or a silently
// reduced value. The result is exact for every plaintext of the decrypt
// contract; for anything else — a share the SP made up — it is some
// residue, which fails the 128-bit check, or the caller's int64 one,
// except with the probability the contract states. Under a Montgomery
// form it allocates nothing.
func (d *Decryptor) Decrypt(ve *big.Int, rids ...uint64) (types.Int128, error) {
	s, k, n := d.s, d.k, d.s.params.N
	if ve == nil || ve.Sign() < 0 || ve.Cmp(n) >= 0 {
		return types.Int128{}, errors.New("secure: share outside [0, n)")
	}
	var (
		vk *big.Int    // the item key so far, without a Montgomery form
		ks *keyScratch // and with one: ks.acc
	)
	if d.mM == nil {
		vk = d.m
	} else {
		ks = k.scratch()
		defer k.pool.Put(ks)
		copy(ks.acc, d.mM)
	}
	for i, ck := range d.keys {
		if ck.X.Sign() == 0 {
			continue
		}
		if len(rids) == 0 {
			return types.Int128{}, fmt.Errorf("secure: no row id for row-keyed factor %d", i)
		}
		r := rids[0]
		rids = rids[1:]
		if r>>RowIDBits != 0 {
			return types.Int128{}, fmt.Errorf("secure: row id of factor %d wider than %d bits", i, RowIDBits)
		}
		switch t := d.tabs[i]; {
		case vk != nil:
			vk = bigmod.Mul(vk, s.gPow(r, ck.X), n)
		case t == nil: // x < 0: no column key the DO mints
			return types.Int128{}, fmt.Errorf("secure: row-keyed factor %d has a malformed key", i)
		default:
			e := wordsOf(r)
			t.MulExpTo(ks.ms, ks.acc, e[:])
		}
	}
	if len(rids) != 0 {
		return types.Int128{}, fmt.Errorf("secure: %d row ids more than row-keyed factors", len(rids))
	}
	if vk != nil {
		v, ok := types.Int128OfBig(k.signed(bigmod.Mul(ve, vk, n)))
		if !ok {
			return types.Int128{}, errOverflow
		}
		return v, nil
	}
	switch {
	case k == s.full:
		k.ctx.MulBig(ks.ms, ks.acc, ks.acc, ve)
	case k.ctx.Redc(ks.ms, ks.red, ve):
		k.ctx.MulTo(ks.ms, ks.acc, ks.acc, ks.red)
	default:
		// ve ≥ p₁·R₁: only a p₂ wider than p₁'s limbs (hand-picked primes)
		// gets here. Reduce by division, then shed the surplus R₁.
		k.ctx.MulBig(ks.ms, ks.acc, ks.acc, ve)
		k.ctx.MulTo(ks.ms, ks.acc, ks.acc, oneWord[:])
	}
	hi, lo, ok := k.ctx.Int128(ks.acc)
	if !ok {
		return types.Int128{}, errOverflow
	}
	return types.Int128{Hi: hi, Lo: lo}, nil
}

// wordsOf returns a row id as the little-endian limbs MulExpTo walks: one
// on a 64-bit platform, two on a 32-bit one.
func wordsOf(r uint64) (w [64 / bits.UintSize]big.Word) {
	for i := range w {
		w[i] = big.Word(r >> (i * bits.UintSize))
	}
	return w
}

// oneWord is the normal-domain 1 a Montgomery residue is multiplied by to
// leave the domain.
var oneWord = [1]big.Word{1}
