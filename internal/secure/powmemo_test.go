package secure

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"sdb/internal/bigmod"
)

// setPowMemoBound is the test-only hook that shrinks the memo's byte
// bound; the bound and an empty memo come back when the test ends. Call it
// only while no applier runs.
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

// auditPowMemo recounts what the memo holds and checks it against the
// running counters. Call it only while no applier runs.
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
		var n int64
		for i := range tab.shards {
			if tab.shards[i].dead {
				t.Fatalf("dead shard in a resolvable table")
			}
			n += int64(len(tab.shards[i].m))
		}
		entries += n
		bytes += n*tab.entryBytes + powTableOverhead
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

// checkMemoCase runs one case through the scalar UDF, a long-lived
// applier row by row, and the batch entry point, demanding bit-identical
// agreement with the reference each time.
func checkMemoCase(t *testing.T, state string, c memoCase) {
	t.Helper()
	a := NewTokenApplier(c.tok, c.n)
	batch, err := ApplyTokenBatch(c.tok, c.ves, c.ws, c.n)
	if err != nil {
		t.Fatalf("%s/%s: batch: %v", state, c.name, err)
	}
	for i, w := range c.ws {
		var ve *big.Int
		if !c.tok.Base {
			ve = c.ves[i]
		}
		want := refApply(c.tok, ve, w, c.n)
		row, err := a.Apply(ve, w)
		if err != nil {
			t.Fatalf("%s/%s row %d: Apply: %v", state, c.name, i, err)
		}
		for path, got := range map[string]*big.Int{
			"ApplyToken": ApplyToken(c.tok, ve, w, c.n), "Apply": row, "ApplyBatch": batch[i],
		} {
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
		if _, err := NewTokenApplier(tok, n).Apply(ves[1], ws[1]); !errors.Is(err, bigmod.ErrNotInvertible) {
			t.Fatalf("pass %d Apply: error %v does not wrap ErrNotInvertible", pass, err)
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

// TestPowMemoConcurrent shares the memo between concurrent appliers whose
// helper sets overlap, under a bound small enough that tables are evicted
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
					a := NewTokenApplier(toks[k], n)
					got, err := a.ApplyBatch(ves[lo:lo+24], ws[lo:lo+24])
					if err != nil {
						t.Error(err)
						return
					}
					for i := range got {
						one, err := a.Apply(ves[lo+i], ws[lo+i])
						if err != nil || one.Cmp(want[k][lo+i]) != 0 || got[i].Cmp(want[k][lo+i]) != 0 {
							t.Errorf("goroutine %d token %d row %d diverges (err %v)", g, k, lo+i, err)
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
}
