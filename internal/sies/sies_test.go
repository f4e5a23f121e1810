package sies

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"strings"
	"testing"
	"testing/quick"

	"sdb/internal/race"
)

func testCipher(t *testing.T, bits int) *Cipher {
	t.Helper()
	key, err := GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	c, err := New(key, bits)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestRoundTrip(t *testing.T) {
	c := testCipher(t, 40)
	for i, v := range []uint64{0, 1, 7, 12345678, 1<<40 - 1} {
		e, err := c.Encrypt(v, uint64(i))
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", v, err)
		}
		d, err := c.Decrypt(e, uint64(i))
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		if d != v {
			t.Errorf("round trip %d -> %d", v, d)
		}
	}
}

func TestWrongNonceFails(t *testing.T) {
	c := testCipher(t, 40)
	e, _ := c.Encrypt(42, 1)
	if d, _ := c.Decrypt(e, 2); d == 42 {
		t.Error("decrypting with wrong nonce should not recover plaintext")
	}
}

func TestWrongKeyFails(t *testing.T) {
	c1 := testCipher(t, 40)
	c2 := testCipher(t, 40)
	e, _ := c1.Encrypt(42, 1)
	if d, _ := c2.Decrypt(e, 1); d == 42 {
		t.Error("different key should not decrypt")
	}
}

func TestRejectsBadInputs(t *testing.T) {
	c := testCipher(t, 7)
	if _, err := c.Encrypt(128, 0); err == nil {
		t.Error("expected error for plaintext >= M")
	}
	if _, err := c.Encrypt(^uint64(0), 0); err == nil {
		t.Error("expected error for plaintext 2^64 - 1")
	}
	if _, err := c.Decrypt(200, 0); err == nil {
		t.Error("expected error for ciphertext >= M")
	}
	if _, err := testCipher(t, 62).Decrypt(1<<62, 0); err == nil {
		t.Error("expected error for ciphertext 2^62 under M = 2^62")
	}
	if _, err := testCipher(t, 64).Decrypt(^uint64(0), 0); err != nil {
		t.Errorf("M = 2^64 rejected 2^64 - 1: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(make([]byte, 5), 62); err == nil {
		t.Error("expected error for short key")
	}
	key, _ := GenerateKey()
	for _, bits := range []int{-1, 0, 65, 128} {
		if _, err := New(key, bits); err == nil {
			t.Errorf("expected error for a %d-bit modulus", bits)
		}
	}
	for _, bits := range []int{1, 62, 64} {
		if c, err := New(key, bits); err != nil || c.mask != 1<<bits-1 {
			t.Errorf("New(%d bits) = %v, %v", bits, c, err)
		}
	}
}

// decryptSum recovers the sum of plaintexts from the modular sum of their
// ciphertexts by subtracting one pad per nonce: Decrypt chained.
func decryptSum(c *Cipher, sum uint64, nonces []uint64) (uint64, error) {
	var err error
	for _, nonce := range nonces {
		if sum, err = c.Decrypt(sum, nonce); err != nil {
			return 0, err
		}
	}
	return sum, nil
}

func TestAdditiveHomomorphism(t *testing.T) {
	c := testCipher(t, 60)
	var sum uint64
	var nonces []uint64
	for i, v := range []uint64{10, 20, 30, 45} {
		e, err := c.Encrypt(v, uint64(i))
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		sum = (sum + e) & (1<<60 - 1)
		nonces = append(nonces, uint64(i))
	}
	if got, err := decryptSum(c, sum, nonces); err != nil || got != 105 {
		t.Errorf("sum decrypts to %d, %v; want 105", got, err)
	}
}

func TestCiphertextsLookRandom(t *testing.T) {
	// Encrypting the same value under distinct nonces must give distinct
	// ciphertexts: the pads are per-nonce.
	c := testCipher(t, 64)
	seen := make(map[uint64]bool)
	for i := 0; i < 200; i++ {
		e, err := c.Encrypt(7, uint64(i))
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		if seen[e] {
			t.Fatalf("pad collision at nonce %d", i)
		}
		seen[e] = true
	}
}

func TestPadDeterministic(t *testing.T) {
	key, _ := GenerateKey()
	c1, _ := New(key, 40)
	c2, _ := New(key, 40)
	e1, _ := c1.Encrypt(99, 7)
	e2, _ := c2.Encrypt(99, 7)
	if e1 != e2 {
		t.Error("same key+nonce must produce identical ciphertexts")
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := testCipher(t, 64)
	f := func(v uint64, nonce uint64) bool {
		e, err := c.Encrypt(v, nonce)
		if err != nil {
			return false
		}
		d, err := c.Decrypt(e, nonce)
		return err == nil && d == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSumHomomorphismProperty(t *testing.T) {
	c := testCipher(t, 62)
	f := func(a, b, cc uint32) bool {
		var sum, want uint64
		nonces := []uint64{100, 200, 300}
		for i, v := range []uint64{uint64(a), uint64(b), uint64(cc)} {
			e, err := c.Encrypt(v, nonces[i])
			if err != nil {
				return false
			}
			sum = (sum + e) & (1<<62 - 1)
			want += v
		}
		got, err := decryptSum(c, sum, nonces)
		return err == nil && got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPowerOfTwoModulusMasks: for every M = 2^bits, bits ≤ 64, the masked
// last eight bytes of the HMAC block are the pad the big.Int cipher
// derived — the whole 32-byte block read as an integer, reduced modulo M
// by division — so ciphertexts stored before the cipher went word-width
// still decrypt.
func TestPowerOfTwoModulusMasks(t *testing.T) {
	key, _ := GenerateKey()
	for bits := 1; bits <= 64; bits++ {
		c, err := New(key, bits)
		if err != nil {
			t.Fatal(err)
		}
		m := new(big.Int).Lsh(big.NewInt(1), uint(bits))
		for _, nonce := range []uint64{0, 1, 1000, 1 << 40, ^uint64(0)} {
			mac := hmac.New(sha256.New, key)
			var in [12]byte
			binary.BigEndian.PutUint64(in[:8], nonce)
			mac.Write(in[:])
			want := new(big.Int).SetBytes(mac.Sum(nil))
			want.Mod(want, m)
			if got := c.pad(nonce); got != want.Uint64() {
				t.Fatalf("%d bits, nonce %d: pad %#x, big.Int reduction %#x", bits, nonce, got, want)
			}
		}
	}
}

// goldenKey is the key of the golden vectors: bytes 0xa0, 0xa1, …, 0xbf.
func goldenKey() []byte {
	key := make([]byte, KeySize)
	for i := range key {
		key[i] = byte(0xa0 + i)
	}
	return key
}

// TestGoldenVectors: ciphertexts the big.Int cipher produced for a fixed
// key, ids and nonces (at 62 bits, SDB's row-id width, at 64 and at 7),
// committed as literals. The word cipher reproduces and inverts each.
func TestGoldenVectors(t *testing.T) {
	for _, g := range []struct {
		bits int
		vecs [][3]uint64 // plaintext, nonce, ciphertext
	}{
		{62, [][3]uint64{
			{0x1, 0x1, 0x3f4f04cf8e917b3a},
			{0x2, 0x2, 0x226625b3baf28e41},
			{0x2a5c7e9f1b3d5f70, 0x3, 0x28c470925dddb446},
			{0x3fffffffffffffff, 0x10000000000, 0x03ea40661f492846},
			{0x75bcd15, 0xffffffffffffffff, 0x144c3886db773e4f},
			{0x1badc0dedeadbeef, 0x0, 0x243bfca42ed2ca34},
		}},
		{64, [][3]uint64{
			{0x1, 0x1, 0x7f4f04cf8e917b3a},
			{0x2a5c7e9f1b3d5f70, 0x3, 0xa8c470925dddb446},
			{0x3fffffffffffffff, 0x10000000000, 0xc3ea40661f492846},
			{0x75bcd15, 0xffffffffffffffff, 0xd44c3886db773e4f},
		}},
		{7, [][3]uint64{{0, 0x1, 0x39}, {1, 0x2, 0x40}, {3, 0x10000000000, 0x4a}, {5, 0x0, 0x4a}}},
	} {
		c, err := New(goldenKey(), g.bits)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range g.vecs {
			if e, err := c.Encrypt(v[0], v[1]); err != nil || e != v[2] {
				t.Errorf("%d bits: Encrypt(%#x, %#x) = %#x, %v; want %#x", g.bits, v[0], v[1], e, err, v[2])
			}
			if d, err := c.Decrypt(v[2], v[1]); err != nil || d != v[0] {
				t.Errorf("%d bits: Decrypt(%#x, %#x) = %#x, %v; want %#x", g.bits, v[2], v[1], d, err, v[0])
			}
		}
	}
}

// TestErrorsRedacted: an out-of-range plaintext is a row id the caller
// holds, an out-of-range ciphertext is the SP's; neither may appear in the
// error, in any base.
func TestErrorsRedacted(t *testing.T) {
	c := testCipher(t, 62)
	const sentinel = 0x5a5a5a5a5a5a5a5a // ≥ 2^62
	_, errEnc := c.Encrypt(sentinel, 0x77)
	_, errDec := c.Decrypt(sentinel, 0x77)
	for what, err := range map[string]error{"Encrypt": errEnc, "Decrypt": errDec} {
		if err == nil {
			t.Fatalf("%s accepted %#x under M = 2^62", what, uint64(sentinel))
		}
		for _, form := range []string{fmt.Sprint(uint64(sentinel)), fmt.Sprintf("%x", uint64(sentinel)), "5a5a5a"} {
			if strings.Contains(err.Error(), form) {
				t.Errorf("%s prints the value: %v", what, err)
			}
		}
	}
}

// TestPadAllocs: a warm pad — hence an Encrypt or Decrypt — allocates
// nothing. (Not under -race, where sync.Pool drops entries at random.)
func TestPadAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race")
	}
	c := testCipher(t, 62)
	c.pad(1)
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		e, _ := c.Encrypt(12345, 9)
		d, _ := c.Decrypt(e, 9)
		sink += d
	}); n != 0 {
		t.Fatalf("Encrypt + Decrypt allocate %v times", n)
	}
	_ = sink
}
