package secure

import (
	"math/big"
	"math/bits"
	"math/rand/v2"
	"slices"
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
// maps (n, Q) to a per-exponent table, which a PowerTable resolves once;
// PowerTable.Lookup is the memo's one entry point. A table keeps each
// entry — w's limbs beside ToMont(w^Q) — in chunked limb arrays and finds
// it through one open-addressed array of atomic slots; a helper's home
// slot is a seeded mix of its limbs, so helpers a client crafts without
// the process's seed cannot pile onto one probe sequence. A hit is then an
// atomic load per probe and a limb compare: no lock, no byte key, and no
// write to memory any other worker reads. A miss inserts under the table's
// one mutex, growing the slot array by copy-and-publish. Neither the slots
// nor the limb chunks hold pointers, so the memo adds nothing for the
// garbage collector to scan however many powers it holds. Hits are counted
// by the caller (a row program's frame, one ApplyToken call) and published
// with FlushHelperPowerHits once per chunk or call.
//
// Memory is bounded by powMemoBytes. When an insert would cross it, whole
// tables are evicted, least recently resolved first — rotated-away
// exponents go before live ones — but never the table being filled: a
// scan whose powers alone exceed the bound keeps what fits and computes
// the rest, as every row did before the memo existed.

const (
	// powMemoBytes bounds the memo's approximate footprint: ~160 B per
	// power at 512 bits, so about 400k (helper, exponent) pairs.
	powMemoBytes = 64 << 20
	// powEntryOverhead approximates an entry's bytes beyond its 2k limbs:
	// its share of the slot array, at most four 8-byte slots (an array is
	// at least a quarter full once it has grown).
	powEntryOverhead = 32
	// powTableOverhead is charged per exponent table, so that tables
	// which never receive an entry still count toward eviction. It also
	// covers the table's first slot array and the unused tail of its last
	// chunk.
	powTableOverhead = 1024
	// powMinSlots is a table's slot count at its first insert.
	powMinSlots = 16
	// powChunk is the number of entries per limb chunk.
	powChunk = 16
	// powMul is the odd multiplier of the slot mix (2^64 / φ).
	powMul = 0x9e3779b97f4a7c15
	// powIndex masks a slot's entry number; the bits above it are the top
	// half of the entry's hash.
	powIndex = 1<<32 - 1
)

// powSeed keys the slot mix. It is drawn once per process and never
// leaves it; tests replace it only while the memo is empty.
var powSeed = rand.Uint64()

// powHash mixes a helper's limbs into its slot hash. Each step is a
// bijection of the running state, so helpers of equal length that differ
// in one limb never share a hash.
func powHash(seed uint64, ws []big.Word) uint64 {
	h := seed
	for _, x := range ws {
		h = (h ^ uint64(x)) * powMul
		h ^= h >> 32
	}
	return h
}

// powKey identifies an exponent table: modulus bytes, |Q| bytes, Q's sign.
type powKey struct {
	n, q string
	neg  bool
}

// powSlots is an open-addressed array over a table's entries, at most
// half full. A slot is 0 (empty) or an entry's number plus one under the
// top 32 bits of its hash. A home slot is taken from those bits alone, so
// growth re-files entries without rehashing them, and a probe passes most
// foreign entries without reading their limbs. Once published an array
// only gains entries in empty slots; growth publishes a new one.
type powSlots struct {
	shift uint   // 64 - log2(len(s)), at least 32: a hash's home slot is h >> shift
	mask  uint64 // len(s) - 1
	s     []atomic.Uint64
}

func newPowSlots(n int) *powSlots {
	return &powSlots{shift: uint(64 - bits.TrailingZeros(uint(n))), mask: uint64(n - 1),
		s: make([]atomic.Uint64, n)}
}

// add files slot value v in the first empty slot of its probe sequence.
func (s *powSlots) add(v uint64) {
	i := v >> s.shift
	for s.s[i].Load() != 0 {
		i = (i + 1) & s.mask
	}
	s.s[i].Store(v)
}

// grown returns a copy of s with twice the slots (nil: the first array).
// Readers still probing s keep a valid array; they only miss what is
// added to the copy.
func (s *powSlots) grown() *powSlots {
	if s == nil {
		return newPowSlots(powMinSlots)
	}
	ns := newPowSlots(2 * len(s.s))
	for i := range s.s {
		if v := s.s[i].Load(); v != 0 {
			ns.add(v)
		}
	}
	return ns
}

// powTable holds w^Q for one (n, Q) and many helpers w. Entry i is 2k
// limbs at chunks[i/powChunk][(i%powChunk)·2k:]: w's limbs zero-padded to
// k, then ToMont(w^Q). Entries are written before their slot is
// published and never change afterwards.
type powTable struct {
	key        powKey
	k          int // limbs of a residue modulo n
	entryBytes int64
	lastUse    int64                        // memo clock at the last resolution; guarded by powMemo.mu
	slots      atomic.Pointer[powSlots]     // nil before the first entry and once dropped
	chunks     atomic.Pointer[[][]big.Word] // grows by append under mu; nil once dropped

	mu   sync.Mutex // serialises inserts, growth and drop
	n    int        // entries; guarded by mu
	dead bool       // table evicted: refuse new entries; guarded by mu
}

type powMemo struct {
	hits, misses   atomic.Int64
	entries, bytes atomic.Int64

	mu     sync.Mutex
	bound  int64 // powMemoBytes; tests shrink it while no lookup runs
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
		t = &powTable{key: key, k: words, entryBytes: int64(16*words + powEntryOverhead)}
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

// drop removes t from the memo and empties it. PowerTables still holding t
// read an empty table and can no longer add to it. Callers hold m.mu.
func (m *powMemo) drop(t *powTable) {
	delete(m.tables, t.key)
	t.mu.Lock()
	n := int64(t.n)
	t.n, t.dead = 0, true
	t.slots.Store(nil)
	t.chunks.Store(nil)
	t.mu.Unlock()
	m.entries.Add(-n)
	m.bytes.Add(-(n*t.entryBytes + powTableOverhead))
}

// find returns the 2k limbs of the entry holding helper limbs w (with
// hash h) in s, or nil. A probe sequence always reaches an empty slot.
func (t *powTable) find(s *powSlots, h uint64, w []big.Word) []big.Word {
	top := h &^ powIndex
	for i := h >> s.shift; ; i = (i + 1) & s.mask {
		v := s.s[i].Load()
		if v == 0 {
			return nil
		}
		if v&^powIndex != top {
			continue
		}
		// Loaded after the slot, so the chunk list covers its entry —
		// unless the table was dropped since.
		cp := t.chunks.Load()
		if cp == nil {
			return nil
		}
		idx, stride := int(v&powIndex)-1, 2*t.k
		off := idx % powChunk * stride
		e := (*cp)[idx/powChunk][off : off+stride : off+stride]
		if slices.Equal(e[:len(w)], w) && allZero(e[len(w):t.k]) {
			return e
		}
	}
}

func allZero(ws []big.Word) bool {
	for _, x := range ws {
		if x != 0 {
			return false
		}
	}
	return true
}

// get returns the memoised residue for helper limbs w with hash h, or nil.
func (t *powTable) get(h uint64, w []big.Word) []big.Word {
	s := t.slots.Load()
	if s == nil {
		return nil
	}
	if e := t.find(s, h, w); e != nil {
		return e[t.k:]
	}
	return nil
}

// insert adds w (hash h) and its residue yM unless t is dead or already
// holds w, growing the slot array when it would pass half full. Callers
// hold t.mu.
func (t *powTable) insert(h uint64, w, yM []big.Word) bool {
	s := t.slots.Load()
	if t.dead || s != nil && t.find(s, h, w) != nil {
		return false
	}
	if s == nil || 2*(t.n+1) > len(s.s) {
		s = s.grown()
		t.slots.Store(s)
	}
	var chunks [][]big.Word
	if cp := t.chunks.Load(); cp != nil {
		chunks = *cp
	}
	idx, stride := t.n, 2*t.k
	if idx%powChunk == 0 {
		// Appending writes past every published length, so readers of
		// the old list are undisturbed.
		chunks = append(chunks, make([]big.Word, powChunk*stride))
		t.chunks.Store(&chunks)
	}
	e := chunks[idx/powChunk][idx%powChunk*stride:]
	copy(e, w)
	copy(e[t.k:], yM)
	s.add(h&^powIndex | uint64(idx+1))
	t.n++
	return true
}

// put memoises yM for helper limbs w with hash h in t, unless the bound
// leaves no room. Both are copied.
func (m *powMemo) put(t *powTable, h uint64, w, yM []big.Word) {
	if m.bytes.Add(t.entryBytes) > m.bound {
		m.mu.Lock()
		ok := m.fit(t)
		m.mu.Unlock()
		if !ok {
			m.bytes.Add(-t.entryBytes)
			return
		}
	}
	t.mu.Lock()
	ok := t.insert(h, w, yM)
	t.mu.Unlock()
	if !ok {
		m.bytes.Add(-t.entryBytes)
		return
	}
	m.entries.Add(1)
}

// PowerTable is one exponent's view of the memo: ToMont(w^Q mod n) for any
// helper w, resolved once per (w, Q) per process. The engine's row programs
// hold one per distinct exponent of a statement, so a key update costs one
// Lookup however many tokens of that exponent an operator applies to the
// row; ApplyToken resolves one per call. It is immutable and safe
// for concurrent use; callers bring their own scratch and hit counter.
type PowerTable struct {
	n, q *big.Int
	ctx  *bigmod.MontCtx
	pows *powTable
}

// NewPowerTable resolves the memo table of exponent q modulo n. It returns
// nil when q is zero (w^0 = 1 needs no table) or n has no Montgomery
// context (n must be odd and at least 3). q must not be mutated afterwards.
func NewPowerTable(q, n *big.Int) *PowerTable {
	ctx := bigmod.MontCtxFor(n)
	if ctx == nil || q.Sign() == 0 {
		return nil
	}
	n = ctx.N()
	return &PowerTable{n: n, q: q, ctx: ctx, pows: powers.table(n, q, ctx.Words())}
}

// Lookup returns ToMont(w^Q mod n) as k limbs that the caller must not
// modify: the memoised residue on a hit, a fresh one (memoised for the
// next caller) on a miss. It is the memo's one entry point. A hit adds one
// to *hits, the caller's own counter, which it publishes with
// FlushHelperPowerHits once per chunk or call. The error is the
// non-invertible-helper failure of a negative exponent.
func (t *PowerTable) Lookup(ms *bigmod.MontScratch, hits *int64, w *big.Int) ([]big.Word, error) {
	// Only helpers in [0, n) are memoised, so a nonnegative helper no
	// wider than n is looked up without a comparison with n: one that is
	// out of range has no stored twin.
	wb := w.Bits()
	memo := w.Sign() >= 0 && len(wb) <= t.pows.k
	var h uint64
	if memo {
		h = powHash(powSeed, wb)
		if yM := t.pows.get(h, wb); yM != nil {
			*hits++
			return yM, nil
		}
	}
	powers.misses.Add(1)
	y := new(big.Int).Exp(w, t.q, t.n)
	if y == nil {
		return nil, errNotInvertible()
	}
	yM := t.ctx.ToMont(ms, y)
	if memo && w.Cmp(t.n) < 0 {
		powers.put(t.pows, h, wb, yM)
	}
	return yM, nil
}

// FlushHelperPowerHits publishes hits counted by one caller of Lookup to
// the memo's counter and zeroes them. It is the counter's one writer, so
// no hit writes memory that other workers read.
func FlushHelperPowerHits(hits *int64) {
	if *hits != 0 {
		powers.hits.Add(*hits)
		*hits = 0
	}
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
	hits := -m.hits.Load() // zeroed through the counter's one writer
	FlushHelperPowerHits(&hits)
	m.misses.Store(0)
}
