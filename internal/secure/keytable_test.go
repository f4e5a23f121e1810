package secure

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strings"
	"sync"
	"testing"

	"sdb/internal/bigmod"
)

// refItemKey is Def. 1 computed the slow way: m · g^(r·x mod φ(n)) mod n
// with big.Int.Exp and nothing else.
func refItemKey(s *Secret, r RowID, ck ColumnKey) *big.Int {
	e := new(big.Int).SetUint64(r)
	e.Mul(e, ck.X).Mod(e, s.phi)
	vk := new(big.Int).Exp(s.g, e, s.params.N)
	return vk.Mul(vk, ck.M).Mod(vk, s.params.N)
}

// evenSecret has the modulus 2·p: no Montgomery form, so no tables.
func evenSecret(t testing.TB) *Secret {
	t.Helper()
	p, err := bigmod.RandPrime(200)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SetupFromPrimes(big.NewInt(2), p, big.NewInt(3), 62, 80)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// edgeRowIDs are the words around the tables' width: the smallest id, the
// widest the tables cover, one bit past it, a drawn one, and the widest
// word.
func edgeRowIDs(t testing.TB, s *Secret) []RowID {
	t.Helper()
	drawn, err := s.NewRowID()
	if err != nil {
		t.Fatal(err)
	}
	return []RowID{0, 1, 1<<RowIDBits - 1, 1 << RowIDBits, drawn, math.MaxUint64}
}

func itemKeySecrets(t *testing.T) map[string]*Secret {
	secrets := map[string]*Secret{"even": evenSecret(t)}
	for _, bits := range []int{256, 512, 2048} {
		if bits == 2048 && testing.Short() {
			continue
		}
		s, err := Setup(bits, 62, 80)
		if err != nil {
			t.Fatal(err)
		}
		secrets[fmt.Sprint(bits)] = s
	}
	return secrets
}

// TestItemKeyTableMatchesReference is the differential of the table path
// against big.Int.Exp: random keys (and a sum of keys, whose x exceeds n)
// at every edge row-id width, first touch and warm.
func TestItemKeyTableMatchesReference(t *testing.T) {
	for name, s := range itemKeySecrets(t) {
		for i := 0; i < 4; i++ {
			ck, err := s.NewColumnKey()
			if err != nil {
				t.Fatal(err)
			}
			if i == 3 {
				other, _ := s.NewColumnKey()
				ck = s.MulKeys(s.MulKeys(ck, other), other)
			}
			for pass := 0; pass < 2; pass++ {
				for _, r := range edgeRowIDs(t, s) {
					if got, want := s.ItemKey(r, ck), refItemKey(s, r, ck); got.Cmp(want) != 0 {
						t.Fatalf("%s: key %d pass %d, %d-bit row id: table path diverges from big.Int.Exp", name, i, pass, bits.Len64(r))
					}
				}
			}
		}
		flat, _ := s.FlatKey()
		if got := s.ItemKey(77, flat); got.Cmp(flat.M) != 0 {
			t.Fatalf("%s: flat item key is not m", name)
		}
		if st := s.KeyTableStats(); name == "even" && st != (KeyTableStats{}) {
			t.Fatalf("even modulus built tables: %+v", st)
		} else if name != "even" && (st.Tables != 4 || st.Builds != 4) {
			t.Fatalf("%s: want one table per column key touched with a short row id, got %+v", name, st)
		}
	}
}

// TestEncryptBatchDecryptorRoundTrip: what EncryptBatch mints at every
// row-id width, Secret.Decrypt reads back, and so does a Decryptor
// wherever the row ids are words its tables cover — including a product
// column over two row ids and a flat factor. A wider word is an error.
func TestEncryptBatchDecryptorRoundTrip(t *testing.T) {
	for name, s := range itemKeySecrets(t) {
		a, _ := s.NewColumnKey()
		b, _ := s.NewColumnKey()
		flat, _ := s.FlatKey()
		n := s.N()
		for _, ra := range edgeRowIDs(t, s) {
			rb := ra + 12345
			qa, _ := s.NewEncRequest(big.NewInt(-4321), ra, a)
			qb, _ := s.NewEncRequest(big.NewInt(17), rb, b)
			qf, _ := s.NewEncRequest(big.NewInt(3), 0, flat)
			ves, err := s.EncryptBatch([]EncRequest{qa, qb, qf})
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Decrypt(ves[0], ra, a); got.Int64() != -4321 {
				t.Fatalf("%s: Decrypt = %s", name, got)
			}
			if got, err := s.NewDecryptor(flat).Decrypt(ves[2]); err != nil || got != i128(3) {
				t.Fatalf("%s: flat decryptor = %v, %v", name, got, err)
			}
			prod := bigmod.Mul(bigmod.Mul(ves[0], ves[2], n), ves[1], n)
			d := s.NewDecryptor(a, flat, b)
			if (ra|rb)>>RowIDBits != 0 {
				// The Decryptor must refuse a word its tables do not cover,
				// whatever it would decrypt to.
				if _, err := d.Decrypt(prod, ra, rb); err == nil || !strings.Contains(err.Error(), "wider than") {
					t.Fatalf("%s: row ids %#x, %#x: %v", name, ra, rb, err)
				}
				continue
			}
			if got, err := s.NewDecryptor(a).Decrypt(ves[0], ra); err != nil || got != i128(-4321) {
				t.Fatalf("%s: single-key decryptor = %v, %v", name, got, err)
			}
			if got, err := d.Decrypt(prod, ra, rb); err != nil || got != i128(-4321*3*17) {
				t.Fatalf("%s: product decryptor (%d-bit ids) = %v, %v", name, bits.Len64(ra), got, err)
			}
		}
	}
}

// TestDecryptorRejectsMalformed: shares arrive from the SP, so anything
// outside [0, n) or an argument mismatch is an error, never a panic.
func TestDecryptorRejectsMalformed(t *testing.T) {
	for name, s := range map[string]*Secret{"odd": batchSecret(t), "even": evenSecret(t)} {
		ck, _ := s.NewColumnKey()
		d := s.NewDecryptor(ck)
		for what, ve := range map[string]*big.Int{"nil": nil, "negative": big.NewInt(-1), "n": s.N(), "n+1": new(big.Int).Add(s.N(), one)} {
			if _, err := d.Decrypt(ve, 9); err == nil {
				t.Errorf("%s: %s share accepted", name, what)
			}
		}
		if _, err := d.Decrypt(big.NewInt(5)); err == nil {
			t.Errorf("%s: missing row id accepted", name)
		}
		if _, err := d.Decrypt(big.NewInt(5), 1<<RowIDBits); err == nil {
			t.Errorf("%s: row id wider than the tables accepted", name)
		}
		if _, err := d.Decrypt(big.NewInt(5), 9, 9); err == nil {
			t.Errorf("%s: surplus row id accepted", name)
		}
	}
}

// TestKeyTableMemoBounded mints more column keys than the memo holds (what
// a column rotated again and again does) and checks the bound, the LRU
// order and that an evicted key still derives correct item keys.
func TestKeyTableMemoBounded(t *testing.T) {
	s := batchSecret(t)
	r := RowID(123456789)
	const extra = 9
	keys := make([]ColumnKey, maxKeyTables+extra)
	for i := range keys {
		keys[i], _ = s.NewColumnKey()
		s.ItemKey(r, keys[i])
		s.ItemKey(r, keys[0]) // the one key still in use stays resident
	}
	perTable := bigmod.NewFixedBase(big.NewInt(2), s.N(), RowIDBits).Bytes()
	st := s.KeyTableStats()
	if st.Tables != maxKeyTables || st.Bytes != maxKeyTables*perTable ||
		st.Builds != uint64(len(keys)) || st.Evictions != extra {
		t.Fatalf("memo not bounded: %+v (per table %d B)", st, perTable)
	}
	resident := func(ck ColumnKey) bool { return s.tables.byX[s.tableKey(s.full, ck.X)] != nil }
	if !resident(keys[0]) {
		t.Fatal("the most recently used key was evicted")
	}
	for i := 1; i <= extra; i++ {
		if resident(keys[i]) {
			t.Fatalf("old key %d survived %d newer ones", i, len(keys)-i)
		}
	}
	if got := s.ItemKey(r, keys[1]); got.Cmp(refItemKey(s, r, keys[1])) != 0 {
		t.Fatal("evicted key derives a wrong item key")
	}
	if st := s.KeyTableStats(); st.Tables != maxKeyTables || st.Builds != uint64(len(keys))+1 {
		t.Fatalf("rebuild of an evicted key: %+v", st)
	}
}

// TestGeneratorTableWidth: g's comb table covers RowIDBits like every key
// table — 9 digit rows, 73 152 B at 512 bits and 292 608 B at 2048 — after
// the DO's first row helper and item key; and RowHelper is exact at every
// word width, a word past the table's included.
func TestGeneratorTableWidth(t *testing.T) {
	wide, err := SetupFromPrimes(
		hexInt(t, "e8ae27bd46231d2333aed87862dba038fb939821d1d4b7d80c8270a11f08468b70fc5c4717810d9e4fd5bc74f7d3327339c9143e969ea90cf2d2d58f0b4bccaaf9936fe70af7d688ea07915c6b617094949f94813591ed8b287fb0892ead69ad5dc6743ed0f6bc14908be2960d2690da5205e00c031f69885664ff02c740a059"),
		hexInt(t, "ea067b3236decbb0ab122225ff3a87c26f677a3ab8381f002bc9ffdb024760dcdf4d6a9689088c8764065e863a70ebe4adff02785feb713f0a536260c44ccb7eec27f51d3ddef710cca23cad8c2fa316c2d04674a1cdcc3fd623274d95e6bf67d1b77b1db5685bb04f9da6894cf78362d7aa88553af8d2eb690b67790e3b9891"),
		big.NewInt(65537), DefaultValueBits, DefaultMaskBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		s     *Secret
		bits  int
		bytes int
	}{{fixedSecret(t), 512, 73152}, {wide, 2048, 292608}} {
		s := tc.s
		if s.N().BitLen() != tc.bits {
			t.Fatalf("a %d-bit modulus, want %d", s.N().BitLen(), tc.bits)
		}
		ck, _ := s.NewColumnKey()
		for _, r := range edgeRowIDs(t, s) {
			if got, want := s.RowHelper(r), new(big.Int).Exp(s.g, new(big.Int).SetUint64(r), s.N()); got.Cmp(want) != 0 {
				t.Fatalf("%d bits: RowHelper(%#x) diverges from big.Int.Exp", tc.bits, r)
			}
			s.ItemKey(r, ck)
		}
		if got := s.gTable.Bytes(); got != tc.bytes {
			t.Errorf("%d bits: g's table is %d B, want %d", tc.bits, got, tc.bytes)
		}
	}
}

// TestKeyTableConcurrentFirstTouch races first-touch table builds and warm
// lookups from parallel workers; run under -race by ci.sh. Every worker
// checks its answers against big.Int.Exp.
func TestKeyTableConcurrentFirstTouch(t *testing.T) {
	s := batchSecret(t)
	shared := make([]ColumnKey, 6)
	for i := range shared {
		shared[i], _ = s.NewColumnKey()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				ck := shared[(w+i)%len(shared)]
				if i%10 == 9 { // a private key: a build nobody else waits for
					ck, _ = s.NewColumnKey()
				}
				r := RowID(w*1000 + i + 1)
				want := refItemKey(s, r, ck)
				if s.ItemKey(r, ck).Cmp(want) != 0 {
					t.Errorf("worker %d: ItemKey diverges", w)
					return
				}
				ve, _ := s.EncryptInt64(int64(i), r, ck)
				if got, err := s.NewDecryptor(ck).Decrypt(ve, r); err != nil || got != i128(int64(i)) {
					t.Errorf("worker %d: decryptor = %v, %v", w, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.KeyTableStats(); st.Tables > maxKeyTables || st.Builds < uint64(len(shared)) {
		t.Fatalf("memo after the race: %+v", st)
	}
}

// TestKeyMaterialRedacted extends TestTokenStringRedacted to the DO side:
// no formatting or error surface of the package may carry a column key's
// x, its g^x, an entry of its table, a comparison mask or a query
// constant the DO keys a column by.
func TestKeyMaterialRedacted(t *testing.T) {
	s := batchSecret(t)
	ck, _ := s.NewColumnKey()
	s.ItemKey(5, ck) // the table exists
	h := new(big.Int).Exp(s.g, ck.X, s.N())
	mask := new(big.Int).Lsh(big.NewInt(0x5a5a5a5a5a5a), 40) // past the mask bound
	// A constant sharing the factor 1000003 with n: in the value domain and
	// not invertible.
	small, err := SetupFromPrimes(big.NewInt(1000003),
		hexInt(t, "d305189885c987d7f1a33ddb2cc6f327979d0a431e1f8e20ef91aad596f53751"),
		big.NewInt(65537), DefaultValueBits, DefaultMaskBits)
	if err != nil {
		t.Fatal(err)
	}
	constant := big.NewInt(1000003 * 0x5a5a5a5a)
	secrets := []*big.Int{ck.X, ck.M, h, s.ItemKey(1, ck), mask, constant}

	_, errShare := s.NewDecryptor(ck).Decrypt(s.N(), 5)
	_, errRid := s.NewDecryptor(ck).Decrypt(big.NewInt(1))
	_, errFlat := s.DecryptFlat(big.NewInt(1), ck)
	_, errMask := s.EncryptMask(mask, 5, ck)
	_, errMaskReq := s.NewMaskEncRequest(mask, 5, ck)
	smallKey, _ := small.NewColumnKey()
	_, errConst := small.MulPlainKey(smallKey, constant)
	surfaces := []string{
		ck.String(),
		fmt.Sprintf("%v %+v %s", ck, ck, ck),
		fmt.Sprintf("%+v", s.KeyTableStats()),
	}
	for _, err := range []error{errShare, errRid, errFlat, errMask, errMaskReq, errConst} {
		if err == nil {
			t.Fatal("an error surface accepted its input")
		}
		surfaces = append(surfaces, err.Error())
	}
	for _, out := range surfaces {
		for _, sec := range secrets {
			for _, form := range []string{sec.String(), sec.Text(16)} {
				if strings.Contains(out, form) {
					t.Fatalf("key material in %q", out)
				}
			}
		}
	}
}

// FuzzItemKeyTable: row id × key bytes against big.Int.Exp. ItemKey runs
// on the Mersenne secret (modulo n whatever the secret); the Decryptor leg
// runs on a secret that takes the half-width kernel, over a share minted
// from the reference item key, so it must give the plaintext back exactly
// — or, for a row id wider than the tables, refuse it.
func FuzzItemKeyTable(f *testing.F) {
	s, hs := mersenneSecret(f), fixedSecret(f)
	f.Add(uint64(1), []byte{2}, []byte{3})
	f.Add(uint64(1<<RowIDBits-1), []byte{0xff, 0xff}, []byte{9})
	f.Add(uint64(1<<RowIDBits), []byte{}, []byte{1})
	f.Fuzz(func(t *testing.T, rw uint64, xb, mb []byte) {
		if len(xb) > 40 || len(mb) > 40 {
			t.Skip()
		}
		ck := ColumnKey{M: new(big.Int).SetBytes(mb), X: new(big.Int).SetBytes(xb)}
		ck.M.Mod(ck.M, s.N())
		if got, want := s.ItemKey(rw, ck), refItemKey(s, rw, ck); got.Cmp(want) != 0 {
			t.Fatalf("ItemKey(r=%#x, x=%x) = %x, want %x", rw, xb, got, want)
		}
		if !bigmod.Coprime(ck.M, hs.N()) {
			return // the item key is not invertible: no share to mint
		}
		rids := []RowID{rw}
		if ck.X.Sign() == 0 {
			rids = nil
		}
		plain := big.NewInt(-424242)
		ve := mint(t, hs, plain, []ColumnKey{ck}, rids)
		got, err := hs.NewDecryptor(ck).Decrypt(ve, rids...)
		if len(rids) > 0 && rw>>RowIDBits != 0 {
			if err == nil {
				t.Fatalf("Decrypt(r=%#x, x=%x) took a row id wider than the tables", rw, xb)
			}
			return
		}
		if err != nil || got != i128(plain.Int64()) {
			t.Fatalf("Decrypt(r=%#x, x=%x) = %v, %v, want %v", rw, xb, got, err, plain)
		}
	})
}
