package secure

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"testing"

	"sdb/internal/bigmod"
	"sdb/internal/race"
	"sdb/internal/types"
)

// The decrypt contract (params.go): which kernel a secret takes, that the
// half-width one agrees with the full-width oracle over the whole decrypt
// domain, and that nothing which leaves the DO moved.

func hexInt(t testing.TB, s string) *big.Int {
	t.Helper()
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		t.Fatalf("bad hex %q", s)
	}
	return v
}

func mersenne(bits uint) *big.Int {
	return new(big.Int).Sub(new(big.Int).Lsh(one, bits), one)
}

// fixedSecret is a 512-bit 62/80 secret over two fixed 256-bit primes: it
// takes the half-width kernel, and a corpus or a golden value means the
// same thing on every run.
func fixedSecret(t testing.TB) *Secret {
	t.Helper()
	s, err := SetupFromPrimes(
		hexInt(t, "d305189885c987d7f1a33ddb2cc6f327979d0a431e1f8e20ef91aad596f53751"),
		hexInt(t, "faf84a78d97bd3a2d7e942546153b8fde2d855d07b388874fda30f7df8a8e515"),
		big.NewInt(65537), DefaultValueBits, DefaultMaskBits)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mersenneSecret is the 127·89-bit secret of two Mersenne primes: p₁ is
// narrower than the 62/80 domain, so it keeps the full-width kernel.
func mersenneSecret(t testing.TB) *Secret {
	t.Helper()
	s, err := SetupFromPrimes(mersenne(127), mersenne(89), big.NewInt(65537), 62, 80)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// lopsidedSecret has a p₂ wider than p₁'s limbs (521 vs 607 bits), so most
// shares exceed p₁·R₁ and take the division fallback of the half-width
// kernel instead of the bare REDC.
func lopsidedSecret(t testing.TB) *Secret {
	t.Helper()
	s, err := SetupFromPrimes(mersenne(521), mersenne(607), big.NewInt(65537), 62, 80)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func setup(t testing.TB, bits, valueBits, maskBits int) *Secret {
	t.Helper()
	s, err := Setup(bits, valueBits, maskBits)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDecryptKernelSelection pins which kernel each kind of secret takes,
// so a silent fallback to the full-width one cannot hide behind tests that
// pass either way, and that a persisted secret takes the same kernel back.
func TestDecryptKernelSelection(t *testing.T) {
	paper, err := SetupFromPrimes(big.NewInt(5), big.NewInt(7), big.NewInt(2), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	type selection struct {
		name string
		s    *Secret
		half bool
	}
	cases := []selection{
		{"512/62/80", setup(t, 512, 62, 80), true},
		{"288/62/80, the narrowest that qualifies", setup(t, 288, 62, 80), true},
		{"286/62/80, one bit short in p1", setup(t, 286, 62, 80), false},
		{"fixed 512", fixedSecret(t), true},
		{"lopsided 521x607", lopsidedSecret(t), true},
		{"256/32/16", batchSecret(t), true},
		{"paper n=35", paper, false},
		{"even 2p", evenSecret(t), false},
		{"mersenne 127x89", mersenneSecret(t), false},
		{"256/62/80", setup(t, 256, 62, 80), false},
	}
	if !testing.Short() {
		cases = append(cases, selection{"the defaults", setup(t, DefaultModulusBits, DefaultValueBits, DefaultMaskBits), true})
	}
	for _, tc := range cases {
		s := tc.s
		if got := s.dec != s.full; got != tc.half {
			t.Errorf("%s: half-width kernel selected = %v, want %v", tc.name, got, tc.half)
		}
		if tc.half && (s.dec.mod.Cmp(s.p1) != 0 || s.dec.ctx == nil) {
			t.Errorf("%s: half-width kernel is not modulo p1", tc.name)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalSecret(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := back.dec != back.full; got != tc.half {
			t.Errorf("%s: kernel changed through MarshalJSON/UnmarshalSecret", tc.name)
		}
	}
}

// mint makes the share of v under the product of keys by Def. 1 and 2
// alone (big.Int.Exp; no table is touched): v need not be in the encrypt
// domain. rids holds one row id per row-keyed key, as Decrypt takes them.
func mint(t testing.TB, s *Secret, v *big.Int, keys []ColumnKey, rids []RowID) *big.Int {
	t.Helper()
	n := s.N()
	vk := big.NewInt(1)
	for _, ck := range keys {
		r := RowID{R: new(big.Int)}
		if ck.X.Sign() != 0 {
			r, rids = rids[0], rids[1:]
		}
		vk = bigmod.Mul(vk, refItemKey(s, r, ck), n)
	}
	inv, err := bigmod.Inv(vk, n)
	if err != nil {
		t.Fatal(err)
	}
	return bigmod.Mul(new(big.Int).Mod(v, n), inv, n)
}

// modP1 is what the half-width kernel owes for a full-width answer f: the
// representative of f modulo p₁ in (−p₁/2, p₁/2].
func modP1(s *Secret, f *big.Int) *big.Int {
	return s.dec.signed(new(big.Int).Mod(f, s.p1))
}

// oracle decrypts ve under the product of keys by Eq. 4 alone, modulo n
// with big.Int arithmetic: the centred residue of ve · Π refItemKey.
func oracle(s *Secret, ve *big.Int, keys []ColumnKey, rids []RowID) *big.Int {
	n := s.N()
	v := new(big.Int).Set(ve)
	for _, ck := range keys {
		r := RowID{R: new(big.Int)}
		if ck.X.Sign() != 0 {
			r, rids = rids[0], rids[1:]
		}
		v = bigmod.Mul(v, refItemKey(s, r, ck), n)
	}
	return s.full.signed(v)
}

// owes reports whether Decrypt's answer (got, err) is what it owes for the
// centred residue want: want itself when it fits 128 bits, an error when
// it does not.
func owes(got types.Int128, err error, want *big.Int) bool {
	if w, ok := types.Int128OfBig(want); ok {
		return err == nil && got == w
	}
	return err != nil
}

// i128 is v as Decrypt returns it.
func i128(v int64) types.Int128 { return types.Int128Of(v) }

// words returns row ids as the machine words a Decryptor takes.
func words(rids []RowID) []uint64 {
	out := make([]uint64, len(rids))
	for i, r := range rids {
		out[i] = r.R.Uint64()
	}
	return out
}

// wordRowIDs are the row ids a Decryptor takes at its edges: 0, 1, the
// widest the tables cover, and a random one.
func wordRowIDs(t testing.TB) []uint64 {
	t.Helper()
	r, err := NewShortRowID()
	if err != nil {
		t.Fatal(err)
	}
	return []uint64{0, 1, 1<<RowIDBits - 1, r.R.Uint64()}
}

// TestDecryptorHalfVsFullWidth is the differential of the half-width
// kernel against the full-width one and both against the big.Int oracle:
// every key shape, every plaintext at the edges of the int64 range and of
// the decrypt domain, and row ids at the edges of the tables give the
// identical answer — the plaintext when it fits an int64, an error when it
// does not. A share that is not a share of anything gives the oracle's
// residue modulo p₁ (so an error, except with negligible probability).
func TestDecryptorHalfVsFullWidth(t *testing.T) {
	secrets := map[string]*Secret{"fixed": fixedSecret(t), "lopsided": lopsidedSecret(t)}
	for _, bits := range []int{288, 384, 512, 1024, 2048} {
		if bits == 2048 && testing.Short() {
			continue
		}
		secrets[fmt.Sprint(bits)] = setup(t, bits, 62, 80)
	}
	domainMax := new(big.Int).Sub(new(big.Int).Lsh(one, DefaultValueBits+DefaultMaskBits), one)
	plains := []*big.Int{new(big.Int), big.NewInt(1), big.NewInt(1<<63 - 1), new(big.Int).Lsh(one, 63), domainMax}
	for _, v := range plains[1:] {
		plains = append(plains, new(big.Int).Neg(v))
	}
	for name, s := range secrets {
		if s.dec == s.full {
			t.Fatalf("%s: no half-width kernel to compare", name)
		}
		a, _ := s.NewColumnKey()
		b, _ := s.NewColumnKey()
		flat, _ := s.FlatKey()
		sum := s.MulKeys(a, b) // x wider than n
		shapes := map[string][]ColumnKey{
			"flat":            {flat},
			"row-keyed":       {a},
			"merged product":  {sum},
			"two-side":        {a, b},
			"two-side + flat": {a, flat, b},
		}
		for shape, keys := range shapes {
			half, full := s.NewDecryptor(keys...), s.newDecryptor(s.full, keys)
			for _, r := range wordRowIDs(t) {
				var rids []RowID
				for _, ck := range keys {
					if ck.X.Sign() != 0 {
						rw := (r + uint64(len(rids))) & (1<<RowIDBits - 1)
						rids = append(rids, RowID{R: new(big.Int).SetUint64(rw)})
					}
				}
				w := words(rids)
				for _, v := range plains {
					ve := mint(t, s, v, keys, rids)
					h, errH := half.Decrypt(ve, w...)
					f, errF := full.Decrypt(ve, w...)
					if !owes(h, errH, v) || !owes(f, errF, v) {
						t.Fatalf("%s/%s, row id %#x, %d-bit plaintext: half = %v, %v; full = %v, %v",
							name, shape, r, v.BitLen(), h, errH, f, errF)
					}
				}
				for i := 0; i < 8; i++ {
					ve, err := rand.Int(rand.Reader, s.N())
					if err != nil {
						t.Fatal(err)
					}
					ref := oracle(s, ve, keys, rids)
					h, errH := half.Decrypt(ve, w...)
					f, errF := full.Decrypt(ve, w...)
					if !owes(h, errH, modP1(s, ref)) || !owes(f, errF, ref) {
						t.Fatalf("%s/%s: random share: half = %v, %v; full = %v, %v", name, shape, h, errH, f, errF)
					}
				}
				if len(w) > 0 {
					w[0] |= 1 << RowIDBits
					ve := mint(t, s, big.NewInt(7), keys, rids)
					if _, err := half.Decrypt(ve, w...); err == nil {
						t.Fatalf("%s/%s: half-width kernel took a row id wider than its tables", name, shape)
					}
					if _, err := full.Decrypt(ve, w...); err == nil {
						t.Fatalf("%s/%s: full-width kernel took a row id wider than its tables", name, shape)
					}
				}
			}
		}
	}
}

// TestDecryptorMatchesScalar is the differential of the word Decryptor
// against the scalar Secret.Decrypt: a product column's share is the
// product of its factors' shares, each minted by Secret.Encrypt under its
// own key and row id, so Decryptor.Decrypt of the product owes the product
// of what Secret.Decrypt reads from each factor — when that fits 128 bits,
// and an error when it does not. Products of one to four row-keyed factors
// (with and without a flat one), negative values, the int64 edges and the
// int128 ones, on
// the half-width kernel, the full-width one and a modulus without a
// Montgomery form.
func TestDecryptorMatchesScalar(t *testing.T) {
	products := [][]int64{
		{0}, {1}, {-1}, {1 << 62}, {-(1 << 62)},
		{7, 1317624576693539401}, {-7, 1317624576693539401}, // ±(2^63 − 1)
		{1 << 62, 2}, {-(1 << 62), 2}, {1 << 62, -2}, // ±2^63: only −2^63 fits
		{1 << 31, 1 << 31, 2}, {-(1 << 31), 1 << 31, 2}, {3, -5, 7},
		{1 << 16, 1 << 16, 1 << 16, 1 << 15}, {-(1 << 16), 1 << 16, 1 << 16, 1 << 15},
		{-1, -1, -1, -1}, {0, 1 << 62, -(1 << 62), 5}, {1 << 20, -(1 << 20), 1 << 20, 9},
		{1 << 62, 1 << 62, 4}, {-(1 << 62), 1 << 62, 8}, {1 << 62, 1 << 62, 8}, // 2^126; ±2^127: only −2^127 fits
	}
	fixed := fixedSecret(t)
	even := evenSecret(t)
	type kernelCase struct {
		s   *Secret
		dec func(keys []ColumnKey) *Decryptor
	}
	kernels := map[string]kernelCase{
		"half-width": {fixed, func(keys []ColumnKey) *Decryptor { return fixed.NewDecryptor(keys...) }},
		"full-width": {fixed, func(keys []ColumnKey) *Decryptor { return fixed.newDecryptor(fixed.full, keys) }},
		"mersenne":   {mersenneSecret(t), nil},
		"even":       {even, nil},
	}
	for name, kc := range kernels {
		s := kc.s
		if kc.dec == nil {
			kc.dec = func(keys []ColumnKey) *Decryptor { return s.NewDecryptor(keys...) }
		}
		n := s.N()
		flat, _ := s.FlatKey()
		for _, withFlat := range []bool{false, true} {
			for _, vals := range products {
				var keys []ColumnKey
				var rids []uint64
				ve, want := big.NewInt(1), big.NewInt(1)
				for i, v := range append(vals, -3) {
					ck, r := flat, RowID{R: new(big.Int)}
					if i < len(vals) {
						ck, _ = s.NewColumnKey()
						ridWord := wordRowIDs(t)[i%4]
						r = RowID{R: new(big.Int).SetUint64(ridWord)}
						rids = append(rids, ridWord)
					} else if !withFlat {
						break
					}
					share, err := s.EncryptInt64(v, r, ck)
					if err != nil {
						t.Fatal(err)
					}
					want.Mul(want, s.Decrypt(share, r, ck))
					ve = bigmod.Mul(ve, share, n)
					keys = append(keys, ck)
				}
				got, err := kc.dec(keys).Decrypt(ve, rids...)
				if !owes(got, err, want) {
					t.Fatalf("%s: product %v (flat factor %v) = %d, %v; scalar says %v", name, vals, withFlat, got, err, want)
				}
			}
		}
	}
}

// TestLeavesTheDOGolden: every byte that leaves the DO — shares (scalar,
// batch, mask), row helpers, tokens — is what the commit before the
// half-width kernel produced for the same secret, keys and row ids. The
// digest was printed by that commit running this test.
func TestLeavesTheDOGolden(t *testing.T) {
	s := fixedSecret(t)
	n := s.N()
	key := func(m, x string) ColumnKey {
		return ColumnKey{M: new(big.Int).Mod(hexInt(t, m), n), X: hexInt(t, x)}
	}
	a := key("1f3a9c5e7b2d48f6a1c3e5079b2d4f6181a3c5e7092b4d6f8a1c3e5f7092b4d6e8fa1c3e5f70", "5eed0123456789abcdef5eed0123456789abcdef5eed0123456789abcdef5eed0123456789ab")
	b := key("7092b4d6f8a1c3e5f7092b4d6e8fa1c3e5f701f3a9c5e7b2d48f6a1c3e5079b2d4f6181a3c5e", "0badc0de0badc0de0badc0de0badc0de0badc0de0badc0de0badc0de0badc0de0badc0de0bad")
	flat := ColumnKey{M: new(big.Int).Set(a.M), X: new(big.Int)}
	rids := []RowID{
		{R: big.NewInt(1)},
		{R: hexInt(t, "2a5c7e9f1b3d5f70")},                                                 // 62 bits
		{R: new(big.Int).Sub(new(big.Int).Lsh(one, RowIDBits), one)},                       // the widest a table covers
		{R: hexInt(t, "9e3779b97f4a7c15f39cc0605cedc8341082276bf3a27251f86c6a11d0c18e95")}, // modulus-wide
	}
	h := sha256.New()
	emit := func(what string, v *big.Int, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		fmt.Fprintf(h, "%s=%x\n", what, v)
	}
	var reqs []EncRequest
	for i, r := range rids {
		emit("helper", s.RowHelper(r), nil)
		for _, ck := range []ColumnKey{a, b, flat} {
			v := big.NewInt(int64(1000003*i) - 424242)
			ve, err := s.Encrypt(v, r, ck)
			emit("encrypt", ve, err)
			rq, err := s.NewEncRequest(v, r, ck)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, rq)
		}
		me, err := s.EncryptMask(hexInt(t, "c0ffee1234567890abcd"), r, b)
		emit("mask", me, err)
	}
	batch, err := s.EncryptBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, ve := range batch {
		emit("batch", ve, nil)
	}
	for _, pair := range [][2]ColumnKey{{a, b}, {b, a}, {a, flat}} {
		tok, err := s.KeyUpdateToken(pair[0], pair[1])
		emit("update.P", tok.P, err)
		emit("update.Q", tok.Q, err)
	}
	rev, err := s.RevealToken(s.MulKeys(a, b))
	emit("reveal.P", rev.P, err)
	emit("reveal.Q", rev.Q, err)

	const want = "c14ee8ef17a02cb07e2d2637d4b57ae6975f03aad41c927f7917135a7e70ad7b"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("bytes that leave the DO changed: digest %s, want %s", got, want)
	}
}

// TestKeyTablePerKernel: a column that is only read builds one table,
// modulo p₁ and half the size of the modulo-n table a write builds; one
// that is only written never builds the modulo-p₁ one.
func TestKeyTablePerKernel(t *testing.T) {
	s := fixedSecret(t)
	fullBytes := bigmod.NewFixedBase(big.NewInt(2), s.N(), RowIDBits).Bytes()
	read, _ := s.NewColumnKey()
	written, _ := s.NewColumnKey()
	r := RowID{R: big.NewInt(77)}

	ve := mint(t, s, big.NewInt(-5), []ColumnKey{read}, []RowID{r})
	if got, err := s.NewDecryptor(read).Decrypt(ve, 77); err != nil || got != i128(-5) {
		t.Fatalf("Decrypt = %v, %v", got, err)
	}
	if st := s.KeyTableStats(); st.Tables != 1 || st.Builds != 1 || st.Bytes*2 != fullBytes {
		t.Fatalf("after a read: %+v, want one table of %d bytes", st, fullBytes/2)
	}
	if _, err := s.EncryptInt64(9, r, written); err != nil {
		t.Fatal(err)
	}
	if st := s.KeyTableStats(); st.Tables != 2 || st.Builds != 2 || st.Bytes != fullBytes/2+fullBytes {
		t.Fatalf("after a write to another column: %+v", st)
	}
	// The read column is written too: its second table.
	if _, err := s.EncryptInt64(9, r, read); err != nil {
		t.Fatal(err)
	}
	if st := s.KeyTableStats(); st.Tables != 3 || st.Builds != 3 || st.Bytes != fullBytes/2+2*fullBytes {
		t.Fatalf("after a write to the read column: %+v", st)
	}
}

// TestBothKernelsConcurrentFirstTouch races the first encrypt and
// the first decrypt under one column key: its two tables are each built
// once, whoever gets there first. Run under -race by ci.sh.
func TestBothKernelsConcurrentFirstTouch(t *testing.T) {
	s := fixedSecret(t)
	ck, _ := s.NewColumnKey()
	r := RowID{R: big.NewInt(123456789)}
	ve := mint(t, s, big.NewInt(4242), []ColumnKey{ck}, []RowID{r})
	want := refItemKey(s, r, ck)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w%2 == 0 {
					if s.ItemKey(r, ck).Cmp(want) != 0 {
						t.Errorf("worker %d: ItemKey diverges", w)
						return
					}
					continue
				}
				if got, err := s.NewDecryptor(ck).Decrypt(ve, 123456789); err != nil || got != i128(4242) {
					t.Errorf("worker %d: Decrypt = %v, %v", w, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.KeyTableStats(); st.Tables != 2 || st.Builds != 2 {
		t.Fatalf("one column key, both kernels: %+v", st)
	}
}

// TestDecryptErrorsRedacted: what fails the int64 check is a SENSITIVE
// plaintext or a residue of share · item key, and what fails the domain
// check is a plaintext; none of them may appear in the error.
func TestDecryptErrorsRedacted(t *testing.T) {
	s := fixedSecret(t)
	ck, _ := s.NewColumnKey()
	r := RowID{R: big.NewInt(5)}
	big1 := new(big.Int).Lsh(big.NewInt(0x5a5a5a5a5a5a), 70)
	_, errInt64 := s.DecryptInt64(mint(t, s, big1, []ColumnKey{ck}, []RowID{r}), r, ck)
	_, errDecode := s.Domain().DecodeInt64(big1)
	_, errEncode := s.Domain().Encode(big1)
	for what, err := range map[string]error{"DecryptInt64": errInt64, "DecodeInt64": errDecode, "Encode": errEncode} {
		if err == nil {
			t.Fatalf("%s accepted a %d-bit value", what, big1.BitLen())
		}
		for _, form := range []string{big1.String(), big1.Text(16), s.Domain().Bound().String()} {
			if strings.Contains(err.Error(), form) {
				t.Errorf("%s prints the value: %v", what, err)
			}
		}
	}
}

// FuzzDecryptHalfVsFull: share bytes × row id × key bytes through both
// kernels of one fixed secret. Whatever the share, each kernel owes the
// big.Int oracle's residue — the half-width one modulo p₁ — when it fits
// an int64 and an error otherwise; a row id wider than the tables is an
// error from both; nothing panics. (The corpus knows p₁, an SP does not: a
// share that is a multiple of p₁ decrypts to 0.)
func FuzzDecryptHalfVsFull(f *testing.F) {
	s := fixedSecret(f)
	f.Add([]byte{1}, uint64(1), []byte{2}, []byte{3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint64(1<<RowIDBits-1), []byte{0xff, 0xff}, []byte{9})
	f.Add([]byte{}, uint64(1<<RowIDBits), []byte{}, []byte{1})
	f.Add(s.p1.Bytes(), uint64(7), []byte{5}, s.p2.Bytes())
	f.Fuzz(func(t *testing.T, vb []byte, r uint64, xb, mb []byte) {
		if len(vb) > 80 || len(xb) > 80 || len(mb) > 80 {
			t.Skip()
		}
		ve := new(big.Int).SetBytes(vb)
		ve.Mod(ve, s.N())
		ck := ColumnKey{M: new(big.Int).SetBytes(mb), X: new(big.Int).SetBytes(xb)}
		ck.M.Mod(ck.M, s.N())
		var rids []uint64
		if ck.X.Sign() != 0 {
			rids = []uint64{r}
		}
		h, errH := s.NewDecryptor(ck).Decrypt(ve, rids...)
		full, errF := s.newDecryptor(s.full, []ColumnKey{ck}).Decrypt(ve, rids...)
		if len(rids) > 0 && r>>RowIDBits != 0 {
			if errH == nil || errF == nil {
				t.Fatalf("Decrypt(r=%#x): a row id wider than the tables decrypted: %v, %v", r, errH, errF)
			}
			return
		}
		ref := oracle(s, ve, []ColumnKey{ck}, []RowID{{R: new(big.Int).SetUint64(r)}})
		if !owes(h, errH, modP1(s, ref)) || !owes(full, errF, ref) {
			t.Fatalf("Decrypt(ve=%x, r=%#x, x=%x, m=%x): half = %v, %v; full = %v, %v; oracle %v",
				vb, r, xb, mb, h, errH, full, errF, ref)
		}
	})
}

// TestDecryptorAllocs: a warm Decryptor under either kernel decrypts a
// share of three row-keyed factors and a flat one without allocating.
// (Not under -race, where sync.Pool drops entries at random.)
func TestDecryptorAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race")
	}
	s := fixedSecret(t)
	a, _ := s.NewColumnKey()
	b, _ := s.NewColumnKey()
	c, _ := s.NewColumnKey()
	flat, _ := s.FlatKey()
	keys := []ColumnKey{a, flat, b, c}
	rids := []RowID{{R: big.NewInt(11)}, {R: big.NewInt(1<<RowIDBits - 1)}, {R: big.NewInt(987654321)}}
	ve := mint(t, s, big.NewInt(-31337), keys, rids)
	w := words(rids)
	for name, d := range map[string]*Decryptor{"half-width": s.NewDecryptor(keys...), "full-width": s.newDecryptor(s.full, keys)} {
		if got, err := d.Decrypt(ve, w...); err != nil || got != i128(-31337) {
			t.Fatalf("%s: Decrypt = %d, %v", name, got, err)
		}
		if n := testing.AllocsPerRun(50, func() { d.Decrypt(ve, w...) }); n != 0 {
			t.Fatalf("%s: Decrypt allocates %v times", name, n)
		}
	}
}
