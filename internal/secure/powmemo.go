package secure

import (
	"math/big"
	"sync"
	"sync/atomic"

	"sdb/internal/bigmod"
)

// Helper-power memo.
//
// Every token application raises a stored row helper w to the token's
// exponent Q, and Q is a difference of column-key exponents — for the
// flatten tokens behind SUM, comparisons, GROUP BY and join tags it is the
// source column's x itself. A query therefore applies many tokens per row
// over a handful of distinct exponents, and the same (w, Q) pairs recur in
// every later query over the table. The memo keeps each w^Q (Montgomery
// residue, inverse already folded in for negative Q) so a pair is
// exponentiated once per process.
//
// Entries are keyed by the full values of n, Q and w, so a hit is correct
// by construction and nothing ever invalidates one: a key rotation changes
// x and hence Q (the old exponent's entries just stop being asked for),
// while MVCC versions and recovery keep helper values. The first level
// maps (n, Q) to a per-exponent table, which a TokenApplier resolves once
// at construction; the per-row lookup is then one hash of w in one of the
// table's shards (chunk workers of one statement share the table).
//
// Memory is bounded by powMemoBytes. When an insert would cross it, whole
// tables are evicted, least recently resolved first — rotated-away
// exponents go before live ones — but never the table being filled: a
// scan whose powers alone exceed the bound keeps what fits and computes
// the rest, as every row did before the memo existed.

const (
	// powMemoBytes bounds the memo's approximate footprint: ~230 B per
	// power at 512 bits, so about 290k (helper, exponent) pairs.
	powMemoBytes = 64 << 20
	powShards    = 16
	// powEntryOverhead approximates an entry's bookkeeping beyond its key
	// and residue bytes (map slot, string and slice headers).
	powEntryOverhead = 96
	// powTableOverhead is charged per exponent table, so that tables
	// which never receive an entry still count toward eviction.
	powTableOverhead = 1024
)

// powKey identifies an exponent table: modulus bytes, |Q| bytes, Q's sign.
type powKey struct {
	n, q string
	neg  bool
}

type powShard struct {
	mu   sync.RWMutex
	dead bool // table evicted: refuse new entries
	m    map[string][]big.Word
}

// powTable holds w^Q for one (n, Q) and many helpers w, keyed by w's
// fixed-width big-endian bytes. Stored residues are immutable.
type powTable struct {
	key        powKey
	entryBytes int64
	lastUse    int64 // memo clock at the last resolution; guarded by powMemo.mu
	shards     [powShards]powShard
}

type powMemo struct {
	hits, misses   atomic.Int64
	entries, bytes atomic.Int64

	mu     sync.Mutex
	bound  int64 // powMemoBytes; tests shrink it while no applier runs
	clock  int64
	tables map[powKey]*powTable
}

// powers is the process-wide memo. It must be global: the scalar
// ApplyToken UDF and independently compiled statements have no other
// state in common, and sharing across statements is the point.
var powers = &powMemo{bound: powMemoBytes, tables: map[powKey]*powTable{}}

// table resolves the exponent table for (n, q), creating it if needed.
// words is the limb length of residues modulo n.
func (m *powMemo) table(n, q *big.Int, words int) *powTable {
	key := powKey{n: string(n.Bytes()), q: string(q.Bytes()), neg: q.Sign() < 0}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tables[key]
	if t == nil {
		t = &powTable{key: key, entryBytes: int64(16*words + powEntryOverhead)}
		m.tables[key] = t
		m.bytes.Add(powTableOverhead)
		m.fit(t)
	}
	m.clock++
	t.lastUse = m.clock
	return t
}

// fit evicts least-recently-resolved tables other than keep until the
// memo is within its bound; false means only keep is left. Callers hold
// m.mu.
func (m *powMemo) fit(keep *powTable) bool {
	for m.bytes.Load() > m.bound {
		var victim *powTable
		for _, t := range m.tables {
			if t != keep && (victim == nil || t.lastUse < victim.lastUse) {
				victim = t
			}
		}
		if victim == nil {
			return false
		}
		m.drop(victim)
	}
	return true
}

// drop removes t from the memo and empties it. Appliers still holding t
// keep reading an empty table and can no longer add to it. Callers hold
// m.mu.
func (m *powMemo) drop(t *powTable) {
	delete(m.tables, t.key)
	var n int64
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += int64(len(sh.m))
		sh.m, sh.dead = nil, true
		sh.mu.Unlock()
	}
	m.entries.Add(-n)
	m.bytes.Add(-(n*t.entryBytes + powTableOverhead))
}

func (t *powTable) shard(key []byte) *powShard {
	// Helpers are uniform in Z_n, so their low byte spreads the shards.
	return &t.shards[key[len(key)-1]%powShards]
}

// get returns the memoised residue for the helper with these bytes, or
// nil.
func (t *powTable) get(key []byte) []big.Word {
	sh := t.shard(key)
	sh.mu.RLock()
	yM := sh.m[string(key)]
	sh.mu.RUnlock()
	return yM
}

// put memoises yM for the helper with these bytes in t, unless the bound
// leaves no room. yM must not be modified afterwards.
func (m *powMemo) put(t *powTable, key []byte, yM []big.Word) {
	if m.bytes.Add(t.entryBytes) > m.bound {
		m.mu.Lock()
		ok := m.fit(t)
		m.mu.Unlock()
		if !ok {
			m.bytes.Add(-t.entryBytes)
			return
		}
	}
	sh := t.shard(key)
	sh.mu.Lock()
	_, dup := sh.m[string(key)]
	if sh.dead || dup {
		sh.mu.Unlock()
		m.bytes.Add(-t.entryBytes)
		return
	}
	if sh.m == nil {
		sh.m = make(map[string][]big.Word)
	}
	sh.m[string(key)] = yM
	sh.mu.Unlock()
	m.entries.Add(1)
}

// PowerTable is one exponent's view of the memo: ToMont(w^Q mod n) for any
// helper w, resolved once per (w, Q) per process. A token applier holds one
// per token, and the engine's row programs hold one per distinct exponent
// of a statement, so a key update costs one Lookup however many tokens of
// that exponent an operator applies to the row. It is immutable and safe
// for concurrent use; callers bring their own scratch.
type PowerTable struct {
	n, q   *big.Int
	ctx    *bigmod.MontCtx
	pows   *powTable
	keyLen int // bytes of n: the memo key width
}

// NewPowerTable resolves the memo table of exponent q modulo n. It returns
// nil when q is zero (w^0 = 1 needs no table) or n has no Montgomery
// context (n must be odd and at least 3). q must not be mutated afterwards.
func NewPowerTable(q, n *big.Int) *PowerTable {
	return newPowerTable(q, bigmod.MontCtxFor(n))
}

func newPowerTable(q *big.Int, ctx *bigmod.MontCtx) *PowerTable {
	if ctx == nil || q.Sign() == 0 {
		return nil
	}
	n := ctx.N()
	return &PowerTable{n: n, q: q, ctx: ctx, pows: powers.table(n, q, ctx.Words()), keyLen: (n.BitLen() + 7) / 8}
}

// KeyLen is the length of the key buffer Lookup needs.
func (t *PowerTable) KeyLen() int { return t.keyLen }

// Lookup returns ToMont(w^Q mod n) as k limbs that the caller must not
// modify: the memoised residue on a hit, a fresh one (memoised for the
// next caller) on a miss. key is scratch of at least KeyLen bytes. A helper
// outside [0, n) bypasses the memo. The error is the non-invertible-helper
// failure of a negative exponent.
func (t *PowerTable) Lookup(ms *bigmod.MontScratch, key []byte, w *big.Int) ([]big.Word, error) {
	var k []byte
	if w.Sign() >= 0 && w.Cmp(t.n) < 0 {
		k = w.FillBytes(key[:t.keyLen])
		if yM := t.pows.get(k); yM != nil {
			powers.hits.Add(1)
			return yM, nil
		}
	}
	powers.misses.Add(1)
	y := new(big.Int).Exp(w, t.q, t.n)
	if y == nil {
		return nil, errNotInvertible()
	}
	yM := t.ctx.ToMont(ms, y)
	if k != nil {
		powers.put(t.pows, k, yM)
	}
	return yM, nil
}

// HelperPowerStats is a snapshot of the helper-power memo: how many token
// applications found their w^Q memoised, how many had to exponentiate,
// and what the memo currently holds. It carries counts only — no helper,
// exponent or modulus material.
type HelperPowerStats struct {
	Hits, Misses   int64
	Entries, Bytes int64
}

// HelperPowers returns the memo's current counters.
func HelperPowers() HelperPowerStats {
	return HelperPowerStats{
		Hits:    powers.hits.Load(),
		Misses:  powers.misses.Load(),
		Entries: powers.entries.Load(),
		Bytes:   powers.bytes.Load(),
	}
}

// ResetHelperPowers empties the memo and zeroes its counters (tests and
// benchmarks that need a cold start). It affects cost only, never
// results.
func ResetHelperPowers() {
	m := powers
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.tables {
		m.drop(t)
	}
	m.hits.Store(0)
	m.misses.Store(0)
}
