package sies

import (
	"math/big"
	"testing"
	"testing/quick"
)

func testCipher(t *testing.T, m *big.Int) *Cipher {
	t.Helper()
	key, err := GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	c, err := New(key, m)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestRoundTrip(t *testing.T) {
	c := testCipher(t, big.NewInt(1<<40))
	for i, v := range []int64{0, 1, 7, 12345678, 1<<40 - 1} {
		e, err := c.Encrypt(big.NewInt(v), uint64(i))
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", v, err)
		}
		d, err := c.Decrypt(e, uint64(i))
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		if d.Int64() != v {
			t.Errorf("round trip %d -> %s", v, d)
		}
	}
}

func TestWrongNonceFails(t *testing.T) {
	c := testCipher(t, big.NewInt(1<<40))
	e, _ := c.Encrypt(big.NewInt(42), 1)
	d, _ := c.Decrypt(e, 2)
	if d.Int64() == 42 {
		t.Error("decrypting with wrong nonce should not recover plaintext")
	}
}

func TestWrongKeyFails(t *testing.T) {
	m := big.NewInt(1 << 40)
	c1 := testCipher(t, m)
	c2 := testCipher(t, m)
	e, _ := c1.Encrypt(big.NewInt(42), 1)
	d, _ := c2.Decrypt(e, 1)
	if d.Int64() == 42 {
		t.Error("different key should not decrypt")
	}
}

func TestRejectsBadInputs(t *testing.T) {
	c := testCipher(t, big.NewInt(100))
	if _, err := c.Encrypt(big.NewInt(100), 0); err == nil {
		t.Error("expected error for plaintext >= M")
	}
	if _, err := c.Encrypt(big.NewInt(-1), 0); err == nil {
		t.Error("expected error for negative plaintext")
	}
	if _, err := c.Decrypt(big.NewInt(200), 0); err == nil {
		t.Error("expected error for ciphertext >= M")
	}
	if _, err := c.DecryptSum(big.NewInt(200), nil); err == nil {
		t.Error("expected error for sum >= M")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(make([]byte, 5), big.NewInt(100)); err == nil {
		t.Error("expected error for short key")
	}
	key, _ := GenerateKey()
	if _, err := New(key, big.NewInt(1)); err == nil {
		t.Error("expected error for modulus < 2")
	}
	if _, err := New(key, nil); err == nil {
		t.Error("expected error for nil modulus")
	}
}

func TestAdditiveHomomorphism(t *testing.T) {
	m := new(big.Int).Lsh(big.NewInt(1), 60)
	c := testCipher(t, m)
	vals := []int64{10, 20, 30, 45}
	sum := new(big.Int)
	nonces := make([]uint64, len(vals))
	for i, v := range vals {
		e, err := c.Encrypt(big.NewInt(v), uint64(i))
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		sum.Add(sum, e)
		sum.Mod(sum, m)
		nonces[i] = uint64(i)
	}
	got, err := c.DecryptSum(sum, nonces)
	if err != nil {
		t.Fatalf("DecryptSum: %v", err)
	}
	if got.Int64() != 105 {
		t.Errorf("DecryptSum = %s, want 105", got)
	}
}

func TestCiphertextsLookRandom(t *testing.T) {
	// Encrypting the same value under distinct nonces must give distinct
	// ciphertexts: the pads are per-nonce.
	c := testCipher(t, new(big.Int).Lsh(big.NewInt(1), 128))
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		e, err := c.Encrypt(big.NewInt(7), uint64(i))
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		s := e.String()
		if seen[s] {
			t.Fatalf("pad collision at nonce %d", i)
		}
		seen[s] = true
	}
}

func TestPadDeterministic(t *testing.T) {
	key, _ := GenerateKey()
	m := big.NewInt(1 << 40)
	c1, _ := New(key, m)
	c2, _ := New(key, m)
	e1, _ := c1.Encrypt(big.NewInt(99), 7)
	e2, _ := c2.Encrypt(big.NewInt(99), 7)
	if e1.Cmp(e2) != 0 {
		t.Error("same key+nonce must produce identical ciphertexts")
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := testCipher(t, new(big.Int).Lsh(big.NewInt(1), 64))
	f := func(v uint64, nonce uint64) bool {
		pv := new(big.Int).SetUint64(v)
		e, err := c.Encrypt(pv, nonce)
		if err != nil {
			return false
		}
		d, err := c.Decrypt(e, nonce)
		return err == nil && d.Cmp(pv) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSumHomomorphismProperty(t *testing.T) {
	m := new(big.Int).Lsh(big.NewInt(1), 80)
	c := testCipher(t, m)
	f := func(a, b, cc uint32) bool {
		vals := []uint64{uint64(a), uint64(b), uint64(cc)}
		sum := new(big.Int)
		want := new(big.Int)
		nonces := []uint64{100, 200, 300}
		for i, v := range vals {
			e, err := c.Encrypt(new(big.Int).SetUint64(v), nonces[i])
			if err != nil {
				return false
			}
			sum.Add(sum, e)
			sum.Mod(sum, m)
			want.Add(want, new(big.Int).SetUint64(v))
		}
		got, err := c.DecryptSum(sum, nonces)
		return err == nil && got.Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPowerOfTwoModulusMasks: for M = 2^k (SDB uses 2^62) reduction is a
// mask; it must agree with division on pads, ciphertexts, plaintexts and
// sums (whose intermediate goes negative), and other moduli keep dividing.
func TestPowerOfTwoModulusMasks(t *testing.T) {
	m := new(big.Int).Lsh(big.NewInt(1), 62)
	masked := testCipher(t, m)
	if masked.mask == nil {
		t.Fatal("2^62 not recognised as a power of two")
	}
	divided, _ := New(masked.key, m)
	divided.mask = nil
	if odd := testCipher(t, big.NewInt(1000003)); odd.mask != nil {
		t.Fatal("a prime modulus must not mask")
	}
	var sumM, sumD = new(big.Int), new(big.Int)
	var nonces []uint64
	for i, v := range []int64{0, 1, 1<<62 - 1, 123456789012345} {
		nonce := uint64(1000 + i)
		em, err1 := masked.Encrypt(big.NewInt(v), nonce)
		ed, err2 := divided.Encrypt(big.NewInt(v), nonce)
		if err1 != nil || err2 != nil || em.Cmp(ed) != 0 {
			t.Fatalf("Encrypt(%d): mask %v (%v), division %v (%v)", v, em, err1, ed, err2)
		}
		if got, err := masked.Decrypt(em, nonce); err != nil || got.Int64() != v {
			t.Fatalf("Decrypt(Encrypt(%d)) = %v, %v", v, got, err)
		}
		nonces = append(nonces, nonce)
		sumM.Add(sumM, em).Mod(sumM, m)
		sumD.Add(sumD, ed).Mod(sumD, m)
	}
	gm, _ := masked.DecryptSum(sumM, nonces)
	gd, _ := divided.DecryptSum(sumD, nonces)
	if gm.Cmp(gd) != 0 {
		t.Fatalf("DecryptSum: mask %v, division %v", gm, gd)
	}
}
