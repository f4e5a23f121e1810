package secure

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"sdb/internal/bigmod"
)

// setPowMemoBound is the test-only hook that shrinks the memo's byte
// bound; the bound and an empty memo come back when the test ends. Call it
// only while no lookup runs.
func setPowMemoBound(t *testing.T, bound int64) {
	t.Helper()
	old := powers.bound
	ResetHelperPowers()
	powers.bound = bound
	t.Cleanup(func() {
		powers.bound = old
		ResetHelperPowers()
	})
}

// setPowSeed is the test-only hook that replaces the slot mix's seed; the
// seed and an empty memo come back when the test ends. Call it only while
// no lookup runs.
func setPowSeed(t *testing.T, seed uint64) {
	t.Helper()
	old := powSeed
	ResetHelperPowers()
	powSeed = seed
	t.Cleanup(func() {
		ResetHelperPowers()
		powSeed = old
	})
}

// auditPowMemo recounts what the memo holds and checks it against the
// running counters: every entry is filed under its own helper's hash and
// is the first match on its probe sequence (so no helper is held twice),
// every entry number is filed exactly once, and no slot array is over half
// full. Call it only while no lookup runs.
func auditPowMemo(t *testing.T) {
	t.Helper()
	m := powers
	m.mu.Lock()
	defer m.mu.Unlock()
	var entries, bytes int64
	for key, tab := range m.tables {
		if tab.key != key {
			t.Fatalf("table filed under a foreign key")
		}
		tab.mu.Lock()
		dead, n, s, cp := tab.dead, tab.n, tab.slots.Load(), tab.chunks.Load()
		tab.mu.Unlock()
		if dead {
			t.Fatalf("dead table still resolvable")
		}
		filed := make([]bool, n)
		if s != nil {
			held := 0
			for i := range s.s {
				v := s.s[i].Load()
				if v == 0 {
					continue
				}
				held++
				idx := int(v&powIndex) - 1
				if idx < 0 || idx >= n || filed[idx] {
					t.Fatalf("slot %d files entry %d of %d twice or out of range", i, idx, n)
				}
				filed[idx] = true
				off := idx % powChunk * 2 * tab.k
				e := (*cp)[idx/powChunk][off : off+2*tab.k]
				w := new(big.Int).SetBits(slices.Clone(e[:tab.k])).Bits()
				h := powHash(powSeed, w)
				if h&^powIndex != v&^powIndex {
					t.Fatalf("entry %d filed under a foreign hash", idx)
				}
				if got := tab.find(s, h, w); &got[0] != &e[0] {
					t.Fatalf("entry %d is not the first match on its probe sequence", idx)
				}
			}
			if 2*held > len(s.s) {
				t.Fatalf("table holds %d entries in %d slots", held, len(s.s))
			}
		}
		for idx, ok := range filed {
			if !ok {
				t.Fatalf("entry %d of %d is filed in no slot", idx, n)
			}
		}
		entries += int64(n)
		bytes += int64(n)*tab.entryBytes + powTableOverhead
	}
	if got := m.entries.Load(); got != entries {
		t.Fatalf("entries counter %d, memo holds %d", got, entries)
	}
	if got := m.bytes.Load(); got != bytes {
		t.Fatalf("bytes counter %d, memo holds %d", got, bytes)
	}
	// A table's own overhead is admitted unconditionally, so the bound
	// can be exceeded by the one table being filled, never by entries.
	if bytes > m.bound+powTableOverhead {
		t.Fatalf("memo holds %d bytes over a bound of %d", bytes, m.bound)
	}
}

// refApply is the from-scratch reference: P·ve·w^Q mod n by big.Int
// arithmetic alone (nil when w^Q does not exist).
func refApply(tok Token, ve, w, n *big.Int) *big.Int {
	y := new(big.Int).Exp(w, tok.Q, n)
	if y == nil {
		return nil
	}
	y.Mul(y, tok.P)
	if !tok.Base {
		y.Mul(y, ve)
	}
	return y.Mod(y, n)
}

type memoCase struct {
	name    string
	n       *big.Int
	tok     Token
	ves, ws []*big.Int
}

func memoCases(t *testing.T) []memoCase {
	t.Helper()
	r := rand.New(rand.NewSource(21))
	s := batchSecret(t)
	n := s.N()
	const rows = 23
	ves := make([]*big.Int, rows)
	ws := make([]*big.Int, rows)
	for i := range ws {
		rid, err := s.NewRowID()
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = s.RowHelper(rid)
		ves[i] = new(big.Int).Rand(r, n)
	}
	ws[5] = ws[4]                      // one helper stored twice
	ws[7] = new(big.Int).Add(ws[6], n) // unreduced helper bypasses the memo
	wide := new(big.Int).Lsh(n, 40)    // exponent wider than n
	q := func() *big.Int { return new(big.Int).Rand(r, n) }
	p := func() *big.Int { return new(big.Int).Rand(r, n) }
	even := big.NewInt(2 * 3 * 5 * 7 * 11 * 13) // no Montgomery context
	small := func(m *big.Int, k int) []*big.Int {
		out := make([]*big.Int, k)
		for i := range out {
			// Units of Z_m only, so negative exponents exist.
			for out[i] == nil || !bigmod.Coprime(out[i], m) {
				out[i] = new(big.Int).Rand(r, m)
			}
		}
		return out
	}
	return []memoCase{
		{"positive", n, Token{P: p(), Q: q()}, ves, ws},
		{"negative", n, Token{P: p(), Q: new(big.Int).Neg(q())}, ves, ws},
		{"zero", n, Token{P: p(), Q: new(big.Int)}, ves, ws},
		{"wide", n, Token{P: p(), Q: wide}, ves, ws},
		{"base-positive", n, Token{P: p(), Q: q(), Base: true}, nil, ws},
		{"base-negative", n, Token{P: p(), Q: new(big.Int).Neg(q()), Base: true}, nil, ws},
		{"base-zero", n, Token{P: p(), Q: new(big.Int), Base: true}, nil, ws},
		{"even-positive", even, Token{P: big.NewInt(17), Q: big.NewInt(12345)}, small(even, 6), small(even, 6)},
		{"even-negative", even, Token{P: big.NewInt(17), Q: big.NewInt(-77)}, small(even, 6), small(even, 6)},
		{"even-zero", even, Token{P: big.NewInt(17), Q: new(big.Int)}, small(even, 6), small(even, 6)},
		{"unit-modulus", big.NewInt(1), Token{P: big.NewInt(3), Q: big.NewInt(5)}, small(even, 2), small(even, 2)},
	}
}

// checkMemoCase runs one case through the scalar UDF, the batch entry
// point and a PowerTable's Lookup (finished by big.Int multiplies),
// demanding bit-identical agreement with the reference each time. The
// Lookup path is skipped where there is no table: Q = 0 or a modulus
// without a Montgomery context.
func checkMemoCase(t *testing.T, state string, c memoCase) {
	t.Helper()
	batch, err := ApplyTokenBatch(c.tok, c.ves, c.ws, c.n)
	if err != nil {
		t.Fatalf("%s/%s: batch: %v", state, c.name, err)
	}
	pt := NewPowerTable(c.tok.Q, c.n)
	var ms *bigmod.MontScratch
	if pt != nil {
		ms = pt.ctx.NewScratch()
	}
	var hits int64
	defer FlushHelperPowerHits(&hits)
	for i, w := range c.ws {
		var ve *big.Int
		if !c.tok.Base {
			ve = c.ves[i]
		}
		want := refApply(c.tok, ve, w, c.n)
		paths := map[string]*big.Int{"ApplyToken": ApplyToken(c.tok, ve, w, c.n), "ApplyTokenBatch": batch[i]}
		if pt != nil {
			yM, err := pt.Lookup(ms, &hits, w)
			if err != nil {
				t.Fatalf("%s/%s row %d: Lookup: %v", state, c.name, i, err)
			}
			got := pt.ctx.FromMont(ms, yM)
			got.Mul(got, c.tok.P)
			if !c.tok.Base {
				got.Mul(got, ve)
			}
			paths["Lookup"] = got.Mod(got, c.n)
		}
		for path, got := range paths {
			if got == nil || got.Cmp(want) != 0 {
				t.Fatalf("%s/%s row %d: %s = %v, reference %v", state, c.name, i, path, got, want)
			}
		}
	}
}

// TestPowMemoDifferential: memo cold, memo warm, a bound that keeps only
// a few powers (so tables are evicted and refilled mid-run) and a bound
// that keeps none must all reproduce the big.Int reference exactly.
func TestPowMemoDifferential(t *testing.T) {
	cases := memoCases(t)
	ResetHelperPowers()
	for _, c := range cases {
		checkMemoCase(t, "cold", c)
	}
	before := HelperPowers()
	if before.Misses == 0 || before.Entries == 0 {
		t.Fatalf("cold pass recorded nothing: %+v", before)
	}
	auditPowMemo(t)
	for _, c := range cases {
		checkMemoCase(t, "warm", c)
	}
	after := HelperPowers()
	// The warm pass may only exponentiate for the unreduced helper, which
	// bypasses the memo: three paths × five memoised tokens.
	if d := after.Misses - before.Misses; d != 3*5 {
		t.Fatalf("warm pass missed %d times, want 15 (stats %+v → %+v)", d, before, after)
	}
	if after.Entries != before.Entries {
		t.Fatalf("warm pass changed the entry count: %d → %d", before.Entries, after.Entries)
	}
	auditPowMemo(t)

	entry := int64(16*bigmod.MontCtxFor(cases[0].n).Words() + powEntryOverhead)
	for _, bound := range []int64{2*powTableOverhead + 5*entry, 1} {
		setPowMemoBound(t, bound)
		for pass := 0; pass < 2; pass++ {
			for _, c := range cases {
				checkMemoCase(t, fmt.Sprintf("bound=%d", bound), c)
			}
			auditPowMemo(t)
		}
		if got := HelperPowers(); bound == 1 && got.Entries != 0 {
			t.Fatalf("a 1-byte bound admitted %d entries", got.Entries)
		}
	}
}

// TestPowMemoZeroExponent: a Q = 0 token never touches the memo.
func TestPowMemoZeroExponent(t *testing.T) {
	ResetHelperPowers()
	for _, c := range memoCases(t) {
		if c.tok.Q.Sign() == 0 {
			checkMemoCase(t, "zero", c)
		}
	}
	if got := HelperPowers(); got != (HelperPowerStats{}) {
		t.Fatalf("Q = 0 tokens moved the memo: %+v", got)
	}
}

// TestPowMemoNonInvertible: a negative exponent over a helper sharing a
// factor with n fails the same way cold, warm and unbounded-or-not, and
// leaves nothing memoised for that helper.
func TestPowMemoNonInvertible(t *testing.T) {
	n := big.NewInt(15) // 3·5, odd, so the Montgomery path is exercised
	tok := Token{P: big.NewInt(2), Q: big.NewInt(-1)}
	ves := []*big.Int{big.NewInt(2), big.NewInt(4)}
	ws := []*big.Int{big.NewInt(2), big.NewInt(5)} // gcd(5, 15) = 5
	ResetHelperPowers()
	for pass := 0; pass < 2; pass++ {
		if out := ApplyToken(tok, ves[1], ws[1], n); out != nil {
			t.Fatalf("pass %d scalar: got %v, want nil", pass, out)
		}
		var hits int64
		ms := bigmod.MontCtxFor(n).NewScratch()
		if _, err := NewPowerTable(tok.Q, n).Lookup(ms, &hits, ws[1]); !errors.Is(err, bigmod.ErrNotInvertible) {
			t.Fatalf("pass %d Lookup: error %v does not wrap ErrNotInvertible", pass, err)
		}
		if _, err := ApplyTokenBatch(tok, ves, ws, n); !errors.Is(err, bigmod.ErrNotInvertible) {
			t.Fatalf("pass %d batch: error %v does not wrap ErrNotInvertible", pass, err)
		}
		if got := ApplyToken(tok, ves[0], ws[0], n); got.Cmp(refApply(tok, ves[0], ws[0], n)) != 0 {
			t.Fatalf("pass %d: invertible helper diverges after the failure", pass)
		}
	}
	if got := HelperPowers().Entries; got != 1 {
		t.Fatalf("memo holds %d entries, want only the invertible helper's", got)
	}
}

// TestPowMemoConcurrent shares the memo between concurrent token
// applications whose helper sets overlap, under a bound small enough that tables are evicted
// while others fill them; ci.sh runs it with the race detector.
func TestPowMemoConcurrent(t *testing.T) {
	s := batchSecret(t)
	n := s.N()
	r := rand.New(rand.NewSource(22))
	const rows = 48
	ves := make([]*big.Int, rows)
	ws := make([]*big.Int, rows)
	for i := range ws {
		rid, err := s.NewRowID()
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = s.RowHelper(rid)
		ves[i] = new(big.Int).Rand(r, n)
	}
	toks := make([]Token, 4)
	want := make([][]*big.Int, len(toks))
	for k := range toks {
		q := new(big.Int).Rand(r, n)
		if k%2 == 1 {
			q.Neg(q)
		}
		toks[k] = Token{P: new(big.Int).Rand(r, n), Q: q}
		want[k] = make([]*big.Int, rows)
		for i := range ws {
			want[k][i] = refApply(toks[k], ves[i], ws[i], n)
		}
	}
	entry := int64(16*bigmod.MontCtxFor(n).Words() + powEntryOverhead)
	for _, bound := range []int64{powMemoBytes, 4*powTableOverhead + 60*entry} {
		setPowMemoBound(t, bound)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 0; round < 6; round++ {
					k := (g + round) % len(toks)
					lo := (g * 5) % (rows - 24)
					got, err := ApplyTokenBatch(toks[k], ves[lo:lo+24], ws[lo:lo+24], n)
					if err != nil {
						t.Error(err)
						return
					}
					for i := range got {
						one := ApplyToken(toks[k], ves[lo+i], ws[lo+i], n)
						if one == nil || one.Cmp(want[k][lo+i]) != 0 || got[i].Cmp(want[k][lo+i]) != 0 {
							t.Errorf("goroutine %d token %d row %d diverges", g, k, lo+i)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		auditPowMemo(t)
		if st := HelperPowers(); st.Hits == 0 || st.Misses == 0 {
			t.Fatalf("bound %d: expected both hits and misses, got %+v", bound, st)
		}
	}

	// Readers race a table's growth from empty and its eviction. Every
	// goroutine walks the same helpers through a PowerTable of its own,
	// of one of two exponents, from an empty memo: first lookups insert
	// (replacing the slot array at 8, 16, 32, … entries) while others
	// probe the arrays being replaced, and under the tiny bound each
	// exponent's table evicts the other's while it is being read. Each
	// goroutine counts its hits itself; the published counters must add
	// up to exactly the lookups made.
	rg := make([]*big.Int, 160)
	for i := range rg {
		rg[i] = new(big.Int).Rand(r, n)
	}
	qs := []*big.Int{new(big.Int).Rand(r, n), new(big.Int).Rand(r, n)}
	ref := make([][]*big.Int, len(qs))
	for k, q := range qs {
		ref[k] = make([]*big.Int, len(rg))
		for i, w := range rg {
			ref[k][i] = new(big.Int).Exp(w, q, n)
		}
	}
	ctx := bigmod.MontCtxFor(n)
	for _, bound := range []int64{powMemoBytes, 2*powTableOverhead + 40*entry} {
		setPowMemoBound(t, bound)
		const goroutines, rounds = 4, 3
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ms := ctx.NewScratch()
				var hits int64
				defer FlushHelperPowerHits(&hits)
				for round := 0; round < rounds; round++ {
					k := (g + round) % len(qs)
					pt := NewPowerTable(qs[k], n)
					for j := range rg {
						i := (j + 37*g) % len(rg)
						yM, err := pt.Lookup(ms, &hits, rg[i])
						if err != nil || ctx.FromMont(ms, yM).Cmp(ref[k][i]) != 0 {
							t.Errorf("bound %d goroutine %d exponent %d helper %d diverges (err %v)", bound, g, k, i, err)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		auditPowMemo(t)
		st := HelperPowers()
		if st.Hits+st.Misses != goroutines*rounds*int64(len(rg)) {
			t.Fatalf("bound %d: %d hits + %d misses, want %d lookups",
				bound, st.Hits, st.Misses, goroutines*rounds*len(rg))
		}
		if bound == powMemoBytes && st.Hits == 0 {
			t.Fatalf("unbounded memo: no lookup hit (%+v)", st)
		}
	}
}

// TestPowMemoSameLowLimb feeds the memo hostile helper sets: 64 helpers
// w + i·2^64 that share their low limb (one slot under an index taken from
// the raw low limb), and 64 crafted so that the slot mix without its seed
// gives every one of them the same hash. Each lookup must return its own
// power, checked against big.Int.Exp — cold, warm, under a tiny bound and
// with the seed forced to zero, where the crafted set really does share
// one probe sequence.
func TestPowMemoSameLowLimb(t *testing.T) {
	s := batchSecret(t)
	n := s.N()
	ctx := bigmod.MontCtxFor(n)
	r := rand.New(rand.NewSource(23))
	base := new(big.Int).Rand(r, n)
	for len(base.Bits()) < 2 {
		base.Rand(r, n)
	}
	var sameLow, crafted []*big.Int
	for i := int64(1); len(sameLow) < 64; i++ {
		w := new(big.Int).Lsh(big.NewInt(i), 64)
		if w.Add(w, base).Cmp(n) >= 0 {
			t.Fatalf("helper %d of the same-low-limb set is not below n", i)
		}
		sameLow = append(sameLow, w)
	}
	// Limb 1 cancels limb 0's difference in the unseeded running state,
	// so the remaining steps see identical states and identical limbs.
	bl := base.Bits()
	step := func(x big.Word) uint64 { return powHash(0, []big.Word{x}) }
	for i := big.Word(1); len(crafted) < 64; i++ {
		l := slices.Clone(bl)
		l[0] += i
		l[1] ^= big.Word(step(bl[0]) ^ step(l[0]))
		w := new(big.Int).SetBits(l)
		if w.Cmp(n) >= 0 {
			continue
		}
		if bits.UintSize == 64 && powHash(0, w.Bits()) != powHash(0, bl) {
			t.Fatalf("crafted helper %d does not collide without a seed", i)
		}
		crafted = append(crafted, w)
	}
	if powHash(powSeed, crafted[0].Bits()) == powHash(powSeed, crafted[1].Bits()) {
		t.Fatalf("crafted helpers collide under the process's seed")
	}
	ws := append(sameLow, crafted...)

	pos := new(big.Int).Rand(r, n)
	exps := []*big.Int{pos, new(big.Int).Neg(pos)}
	want := make([][]*big.Int, len(exps))
	for k, q := range exps {
		want[k] = make([]*big.Int, len(ws))
		for i, w := range ws {
			if want[k][i] = new(big.Int).Exp(w, q, n); want[k][i] == nil {
				t.Fatalf("helper %d has no inverse modulo n", i)
			}
		}
	}
	lookups := int64(len(exps) * len(ws))
	for _, c := range []struct {
		name string
		seed uint64
	}{{"process-seed", powSeed}, {"zero-seed", 0}} {
		t.Run(c.name, func(t *testing.T) {
			setPowSeed(t, c.seed)
			ms := ctx.NewScratch()
			// pass looks every helper up under both exponents and
			// returns the memo's hits so far.
			pass := func(state string) int64 {
				t.Helper()
				var hits int64
				for k, q := range exps {
					pt := NewPowerTable(q, n)
					for i, w := range ws {
						yM, err := pt.Lookup(ms, &hits, w)
						if err != nil || ctx.FromMont(ms, yM).Cmp(want[k][i]) != 0 {
							t.Fatalf("%s: exponent %d helper %d: not its own power (err %v)", state, k, i, err)
						}
					}
				}
				FlushHelperPowerHits(&hits)
				auditPowMemo(t)
				return HelperPowers().Hits
			}
			if got := pass("cold"); got != 0 {
				t.Fatalf("cold pass hit %d times", got)
			}
			if got := pass("warm"); got != lookups {
				t.Fatalf("warm pass hit %d of %d lookups", got, lookups)
			}
			// A memoised helper's negation and its twin w + n share its
			// limbs or its low limbs; neither may find its power.
			for _, w := range []*big.Int{new(big.Int).Neg(ws[0]), new(big.Int).Add(ws[0], n)} {
				var hits int64
				yM, err := NewPowerTable(pos, n).Lookup(ms, &hits, w)
				if err != nil || hits != 0 || ctx.FromMont(ms, yM).Cmp(new(big.Int).Exp(w, pos, n)) != 0 {
					t.Fatalf("helper %v of a memoised one: %d hits, err %v, or not its own power", w.Sign(), hits, err)
				}
			}
			entry := int64(16*ctx.Words() + powEntryOverhead)
			setPowMemoBound(t, 2*powTableOverhead+20*entry)
			pass("tiny bound")
			pass("tiny bound again")
		})
	}
}

// BenchmarkPowerTableHit measures memo hits alone: 4 exponents × 2 400
// resident helpers at 512 bits, one op being one helper looked up under
// all four exponents. The parallel form runs one hit counter and scratch
// per goroutine, as chunk workers do.
func BenchmarkPowerTableHit(b *testing.B) {
	r := rand.New(rand.NewSource(24))
	n := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), 512))
	n.SetBit(n, 511, 1).SetBit(n, 0, 1)
	ctx := bigmod.MontCtxFor(n)
	ws := make([]*big.Int, 2400)
	for i := range ws {
		ws[i] = new(big.Int).Rand(r, n)
	}
	tabs := make([]*PowerTable, 4)
	ms := ctx.NewScratch()
	var hits int64
	for k := range tabs {
		tabs[k] = NewPowerTable(new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), 64)), n)
		for _, w := range ws {
			if _, err := tabs[k].Lookup(ms, &hits, w); err != nil {
				b.Fatal(err)
			}
		}
	}
	FlushHelperPowerHits(&hits)
	b.Run("serial", func(b *testing.B) {
		var hits int64
		for i := 0; i < b.N; i++ {
			w := ws[i%len(ws)]
			for _, pt := range tabs {
				if _, err := pt.Lookup(ms, &hits, w); err != nil {
					b.Fatal(err)
				}
			}
		}
		FlushHelperPowerHits(&hits)
	})
	b.Run("parallel", func(b *testing.B) {
		var start atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			ms := ctx.NewScratch()
			var hits int64
			defer FlushHelperPowerHits(&hits)
			for i := int(start.Add(997)); pb.Next(); i++ {
				w := ws[i%len(ws)]
				for _, pt := range tabs {
					if _, err := pt.Lookup(ms, &hits, w); err != nil {
						b.Error(err)
						return
					}
				}
			}
		})
	})
}
