package secure

import (
	"errors"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"sdb/internal/bigmod"
)

// DecryptInt64 decrypts and narrows to int64, failing loudly if the
// plaintext does not fit (which indicates share corruption).
func (s *Secret) DecryptInt64(ve *big.Int, r RowID, ck ColumnKey) (int64, error) {
	v := s.Decrypt(ve, r, ck)
	if !v.IsInt64() {
		return 0, fmt.Errorf("secure: decrypted value <%d bits> overflows int64", v.BitLen())
	}
	return v.Int64(), nil
}

// DecryptFlat decrypts a share produced under a flat key (x = 0), such as a
// SUM aggregate or a deterministic tag: the item key is m for every row, so
// no row id is needed.
func (s *Secret) DecryptFlat(ve *big.Int, ck ColumnKey) (*big.Int, error) {
	if ck.X.Sign() != 0 {
		return nil, errors.New("secure: DecryptFlat needs a flat key (x = 0)")
	}
	return s.domain.Decode(bigmod.Mul(ve, ck.M, s.params.N)), nil
}

// NegKey returns the column key under which the unchanged shares of A
// represent −A: m' = (n−1)·m, the plaintext-multiplication rule for c = −1.
func (s *Secret) NegKey(a ColumnKey) ColumnKey {
	minusOne := new(big.Int).Sub(s.params.N, one)
	return ColumnKey{
		M: bigmod.Mul(a.M, minusOne, s.params.N),
		X: new(big.Int).Set(a.X),
	}
}

// paperSecret reproduces the parameters of the paper's Figure 1 worked
// example: ρ1=5, ρ2=7 (n=35), g=2.
func paperSecret(t *testing.T) *Secret {
	t.Helper()
	s, err := SetupFromPrimes(big.NewInt(5), big.NewInt(7), big.NewInt(2), 2, 1)
	if err != nil {
		t.Fatalf("SetupFromPrimes: %v", err)
	}
	return s
}

// testSecret builds a fast but realistic secret for protocol tests.
func testSecret(t testing.TB) *Secret {
	t.Helper()
	s, err := Setup(512, 62, 80)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	return s
}

// TestPaperFigure1Vector checks the exact numbers printed in Figure 1 of
// the paper: with g=2, n=35 and ck_A = ⟨2,2⟩, rows 1, 2, 8 have item keys
// 8, 32, 32 and the values 2, 4, 3 encrypt to 9, 22, 34.
func TestPaperFigure1Vector(t *testing.T) {
	s := paperSecret(t)
	ck := ColumnKey{M: big.NewInt(2), X: big.NewInt(2)}
	rows := []struct {
		r, v, wantVK, wantVE int64
	}{
		{1, 2, 8, 9},
		{2, 4, 32, 22},
		{8, 3, 32, 34},
	}
	for _, row := range rows {
		rid := RowID(row.r)
		vk := s.ItemKey(rid, ck)
		if vk.Int64() != row.wantVK {
			t.Errorf("ItemKey(r=%d) = %s, want %d", row.r, vk, row.wantVK)
		}
		ve, err := s.EncryptInt64(row.v, rid, ck)
		if err != nil {
			t.Fatalf("Encrypt(r=%d): %v", row.r, err)
		}
		if ve.Int64() != row.wantVE {
			t.Errorf("Encrypt(r=%d, v=%d) = %s, want %d", row.r, row.v, ve, row.wantVE)
		}
		got, err := s.DecryptInt64(ve, rid, ck)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		if got != row.v {
			t.Errorf("Decrypt(r=%d) = %d, want %d", row.r, got, row.v)
		}
	}
}

func TestSetupRejectsBadInput(t *testing.T) {
	if _, err := Setup(8, 2, 1); err == nil {
		t.Error("expected error for tiny modulus")
	}
	if _, err := SetupFromPrimes(big.NewInt(4), big.NewInt(7), big.NewInt(2), 2, 1); err == nil {
		t.Error("expected error for composite factor")
	}
	if _, err := SetupFromPrimes(big.NewInt(5), big.NewInt(7), big.NewInt(5), 2, 1); err == nil {
		t.Error("expected error for g not co-prime with n")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	s := testSecret(t)
	ck, err := s.NewColumnKey()
	if err != nil {
		t.Fatalf("NewColumnKey: %v", err)
	}
	for _, v := range []int64{0, 1, -1, 123456789, -987654321, 1<<62 - 1} {
		r, err := s.NewRowID()
		if err != nil {
			t.Fatalf("NewRowID: %v", err)
		}
		ve, err := s.EncryptInt64(v, r, ck)
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", v, err)
		}
		got, err := s.DecryptInt64(ve, r, ck)
		if err != nil {
			t.Fatalf("Decrypt(%d): %v", v, err)
		}
		if got != v {
			t.Errorf("round trip %d -> %d", v, got)
		}
	}
}

func TestEncryptRejectsOutOfDomain(t *testing.T) {
	s := paperSecret(t) // bound = 2^2 = 4
	ck := ColumnKey{M: big.NewInt(2), X: big.NewInt(2)}
	r := RowID(1)
	if _, err := s.EncryptInt64(100, r, ck); err == nil {
		t.Error("expected out-of-domain error")
	}
}

func TestRowHelperConsistentWithItemKey(t *testing.T) {
	// vk must equal m · w^x mod n where w = g^r: this identity is what lets
	// the SP apply tokens using only w.
	s := testSecret(t)
	ck, _ := s.NewColumnKey()
	r, _ := s.NewRowID()
	w := s.RowHelper(r)
	viaHelper := bigmod.Mul(ck.M, bigmod.Exp(w, ck.X, s.N()), s.N())
	if viaHelper.Cmp(s.ItemKey(r, ck)) != 0 {
		t.Error("item key disagrees with m·w^x")
	}
}

func TestCPAUnlinkability(t *testing.T) {
	// Experiment E8: equal plaintexts under distinct rows must produce
	// distinct ciphertexts (per-row item keys randomize), unlike a DET
	// scheme where they collide.
	s := testSecret(t)
	ck, _ := s.NewColumnKey()
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		r, _ := s.NewRowID()
		ve, err := s.EncryptInt64(42, r, ck)
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		key := ve.String()
		if seen[key] {
			t.Fatal("two rows encrypted 42 to the same ciphertext")
		}
		seen[key] = true
	}
}

func TestMultiplyOperator(t *testing.T) {
	// sdb_multiply: C_e = A_e·B_e, ck_C = ⟨m_A·m_B, x_A+x_B⟩ (paper §2.2).
	s := testSecret(t)
	ckA, _ := s.NewColumnKey()
	ckB, _ := s.NewColumnKey()
	r, _ := s.NewRowID()
	ae, _ := s.EncryptInt64(1234, r, ckA)
	be, _ := s.EncryptInt64(-567, r, ckB)
	ce := Multiply(ae, be, s.N())
	ckC := s.MulKeys(ckA, ckB)
	got, err := s.DecryptInt64(ce, r, ckC)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if got != 1234*-567 {
		t.Errorf("multiply = %d, want %d", got, 1234*-567)
	}
}

func TestMultiplyProperty(t *testing.T) {
	s := testSecret(t)
	ckA, _ := s.NewColumnKey()
	ckB, _ := s.NewColumnKey()
	ckC := s.MulKeys(ckA, ckB)
	f := func(a, b int32) bool {
		r, err := s.NewRowID()
		if err != nil {
			return false
		}
		ae, err1 := s.EncryptInt64(int64(a), r, ckA)
		be, err2 := s.EncryptInt64(int64(b), r, ckB)
		if err1 != nil || err2 != nil {
			return false
		}
		got, err := s.DecryptInt64(Multiply(ae, be, s.N()), r, ckC)
		return err == nil && got == int64(a)*int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMulPlainKey(t *testing.T) {
	// EP multiplication costs the SP nothing: the proxy re-keys only.
	s := testSecret(t)
	ckA, _ := s.NewColumnKey()
	r, _ := s.NewRowID()
	ve, _ := s.EncryptInt64(21, r, ckA)
	ckC, err := s.MulPlainKey(ckA, big.NewInt(3))
	if err != nil {
		t.Fatalf("MulPlainKey: %v", err)
	}
	got, err := s.DecryptInt64(ve, r, ckC)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if got != 63 {
		t.Errorf("3·21 = %d, want 63", got)
	}
}

func TestMulPlainKeyNegativeConstant(t *testing.T) {
	s := testSecret(t)
	ckA, _ := s.NewColumnKey()
	r, _ := s.NewRowID()
	ve, _ := s.EncryptInt64(10, r, ckA)
	ckC, err := s.MulPlainKey(ckA, big.NewInt(-4))
	if err != nil {
		t.Fatalf("MulPlainKey: %v", err)
	}
	got, _ := s.DecryptInt64(ve, r, ckC)
	if got != -40 {
		t.Errorf("-4·10 = %d, want -40", got)
	}
}

func TestMulPlainKeyRejectsZero(t *testing.T) {
	s := testSecret(t)
	ckA, _ := s.NewColumnKey()
	if _, err := s.MulPlainKey(ckA, big.NewInt(0)); err == nil {
		t.Error("expected error for zero constant")
	}
}

func TestNegKey(t *testing.T) {
	s := testSecret(t)
	ckA, _ := s.NewColumnKey()
	r, _ := s.NewRowID()
	ve, _ := s.EncryptInt64(77, r, ckA)
	got, _ := s.DecryptInt64(ve, r, s.NegKey(ckA))
	if got != -77 {
		t.Errorf("NegKey decrypt = %d, want -77", got)
	}
}

func TestDecryptFlatRequiresFlatKey(t *testing.T) {
	s := testSecret(t)
	ck, _ := s.NewColumnKey()
	if _, err := s.DecryptFlat(big.NewInt(1), ck); err == nil {
		t.Error("expected error for non-flat key")
	}
}

func TestNewMaskValuePositiveAndBounded(t *testing.T) {
	s := testSecret(t)
	bound := s.maskBound()
	for i := 0; i < 50; i++ {
		m, err := s.NewMaskValue()
		if err != nil {
			t.Fatalf("NewMaskValue: %v", err)
		}
		if m.Sign() <= 0 || m.Cmp(bound) >= 0 {
			t.Fatalf("mask %s outside [1, 2^maskWidth)", m)
		}
	}
}

// TestNewRowIDInRange: the one drawer stays in [1, 2^RowIDBits) and
// reaches its top bit.
func TestNewRowIDInRange(t *testing.T) {
	s := testSecret(t)
	var or RowID
	for i := 0; i < 256; i++ {
		r, err := s.NewRowID()
		if err != nil {
			t.Fatalf("NewRowID: %v", err)
		}
		if r == 0 || r>>RowIDBits != 0 {
			t.Fatalf("row id %#x outside [1, 2^%d)", r, RowIDBits)
		}
		or |= r
	}
	if or>>(RowIDBits-1) != 1 {
		t.Fatalf("256 row ids never set bit %d", RowIDBits-1)
	}
}
