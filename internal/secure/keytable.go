package secure

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

	"sdb/internal/bigmod"
)

// Item keys through per-column-key comb tables.
//
// gen(r, ⟨m,x⟩) = m·g^(r·x) = m·(g^x)^r, and h = g^x is a fixed base for
// as long as the column key lives. The rows a proxy uploads carry row ids
// of RowIDBits bits, not modulus-wide ones, so a comb table of h that
// covers only that width has ⌈62/7⌉ = 9 digit rows (~73 KB at 512 bits,
// ~1,150 REDCs to build — about 16 item keys through g's table) and turns
// an item key from ~74 multiplies (the modulus-wide exponent r·x mod φ(n)
// through g's table) into at most 9, on the encrypt and the decrypt side
// alike.
//
// The tables belong to the Secret: a memo keyed by x, so a rotation — which
// mints a new x — never invalidates anything; it only makes an old table
// cold. Past maxKeyTables the least recently used table is dropped, and
// the memo is garbage with its Secret. Row ids the tables do not cover
// (NewRowID draws modulus-wide ones) and moduli without a Montgomery form
// keep the g path, so ItemKey means what it always did.

// RowIDBits is the width of the row ids the proxy draws: the proxy
// encrypts them for storage at the SP with SIES under the modulus
// 2^RowIDBits. It is also the exponent width the per-column-key comb
// tables cover, so DO-side cost per share is proportional to it.
const RowIDBits = 62

// maxKeyTables bounds the memo: 64 tables are 4.6 MB at 512 bits and
// 18 MB at 2048, several times the column keys one statement touches.
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
	byX   map[string]*keyTable
	tick  uint64
	stats KeyTableStats // Tables is len(byX), filled in on read
}

// KeyTableStats reports the per-column-key table memo's counters.
func (s *Secret) KeyTableStats() KeyTableStats {
	s.tables.mu.Lock()
	defer s.tables.mu.Unlock()
	st := s.tables.stats
	st.Tables = len(s.tables.byX)
	return st
}

// keyTable returns the comb table of g^x over RowIDBits-wide exponents,
// building it on first touch, or nil when x has no table: flat and
// malformed keys (x ≤ 0) and moduli without a Montgomery form. A first
// touch builds under the memo's lock: one build is ~16 item keys, and a
// second toucher of the same x would have to wait for it anyway.
func (s *Secret) keyTable(x *big.Int) *bigmod.FixedBase {
	if s.mctx == nil || x.Sign() <= 0 {
		return nil
	}
	m := &s.tables
	key := string(x.Bytes())
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick++
	if t, ok := m.byX[key]; ok {
		t.used = m.tick
		return t.fb
	}
	h := s.gExp(new(big.Int).Mod(x, s.phi))
	t := &keyTable{fb: bigmod.NewFixedBase(h, s.params.N, RowIDBits), used: m.tick}
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

// gPow returns g^(r·x mod φ(n)): the modulus-wide exponent through g's
// table, for the item keys no per-key table covers.
func (s *Secret) gPow(r, x *big.Int) *big.Int {
	e := new(big.Int).Mul(r, x)
	return s.gExp(e.Mod(e, s.phi))
}

// keyScratch is the pooled working memory of one item-key evaluation.
type keyScratch struct {
	ms  *bigmod.MontScratch
	acc []big.Word // k limbs
}

func (s *Secret) scratch() *keyScratch {
	if ks, ok := s.pool.Get().(*keyScratch); ok {
		return ks
	}
	return &keyScratch{ms: s.mctx.NewScratch(), acc: make([]big.Word, s.mctx.Words())}
}

// Decryptor decrypts the shares of one result column. The column's key is
// a product of column keys (paper §2.2: multiplying shares multiplies
// their keys), each either flat or keyed by the row id of one join side,
// so its item key is Πm · Π(g^x_i)^r_i. A Decryptor keeps ToMont(Πm) and
// the comb table of every g^x_i; per share it starts the accumulator at
// ToMont(Πm), walks at most 9 table digits per row-keyed factor and
// finishes with one asymmetric REDC by the share, which lands the product
// in the normal domain — no conversion, no trial division, one allocation.
// A column under flat keys only (aggregates, tags) is the one-REDC case.
//
// A Decryptor is immutable and safe for concurrent use. It pins the
// tables it resolved, so hold one for a statement execution, not longer.
type Decryptor struct {
	s    *Secret
	keys []ColumnKey
	m    *big.Int            // Πm mod n
	mM   []big.Word          // ToMont(Πm); nil without a Montgomery form
	tabs []*bigmod.FixedBase // tabs[i] is keys[i]'s table, nil if it has none
}

// NewDecryptor resolves the decryptor of a column under the product of
// keys, building the comb tables not yet in the secret's memo.
func (s *Secret) NewDecryptor(keys ...ColumnKey) *Decryptor {
	d := &Decryptor{s: s, keys: keys, m: big.NewInt(1), tabs: make([]*bigmod.FixedBase, len(keys))}
	for i, ck := range keys {
		d.m = bigmod.Mul(d.m, ck.M, s.params.N)
		d.tabs[i] = s.keyTable(ck.X)
	}
	if s.mctx != nil {
		ks := s.scratch()
		d.mM = s.mctx.ToMont(ks.ms, d.m)
		s.pool.Put(ks)
	}
	return d
}

// Decrypt decodes one share: Decode(ve · Π gen(r_i, key_i)). rids holds
// one row id per key with x ≠ 0, in key order; flat keys take none. Shares
// come from the SP, so a missing or out-of-range ve is an error, never a
// panic or a silently reduced value.
func (d *Decryptor) Decrypt(ve *big.Int, rids ...RowID) (*big.Int, error) {
	s, n := d.s, d.s.params.N
	if ve == nil || ve.Sign() < 0 || ve.Cmp(n) >= 0 {
		return nil, errors.New("secure: share outside [0, n)")
	}
	var (
		vk *big.Int    // the item key so far, without a Montgomery form
		ks *keyScratch // and with one: ks.acc
	)
	if d.mM == nil {
		vk = d.m
	} else {
		ks = s.scratch()
		defer s.pool.Put(ks)
		copy(ks.acc, d.mM)
	}
	for i, ck := range d.keys {
		if ck.X.Sign() == 0 {
			continue
		}
		if len(rids) == 0 || rids[0].R == nil {
			return nil, fmt.Errorf("secure: no row id for row-keyed factor %d", i)
		}
		r := rids[0].R
		rids = rids[1:]
		switch t := d.tabs[i]; {
		case vk != nil:
			vk = bigmod.Mul(vk, s.gPow(r, ck.X), n)
		case t != nil && t.Covers(r):
			t.MulExpTo(ks.ms, ks.acc, r)
		default: // a row id wider than the table
			s.mctx.MulTo(ks.ms, ks.acc, ks.acc, s.mctx.ToMont(ks.ms, s.gPow(r, ck.X)))
		}
	}
	if len(rids) != 0 {
		return nil, fmt.Errorf("secure: %d row ids more than row-keyed factors", len(rids))
	}
	if vk != nil {
		return s.domain.Decode(bigmod.Mul(ve, vk, n)), nil
	}
	z := make([]big.Word, s.mctx.Words())
	s.mctx.MulBig(ks.ms, z, ks.acc, ve)
	return s.domain.Signed(new(big.Int).SetBits(z)), nil
}
