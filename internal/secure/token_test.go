package secure

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestKeyUpdateToken(t *testing.T) {
	s := testSecret(t)
	ckA, _ := s.NewColumnKey()
	ckC, _ := s.NewColumnKey()
	tok, err := s.KeyUpdateToken(ckA, ckC)
	if err != nil {
		t.Fatalf("KeyUpdateToken: %v", err)
	}
	r, _ := s.NewRowID()
	w := s.RowHelper(r)
	ve, _ := s.EncryptInt64(-31337, r, ckA)
	ve2 := ApplyToken(tok, ve, w, s.N())
	got, err := s.DecryptInt64(ve2, r, ckC)
	if err != nil {
		t.Fatalf("Decrypt under target key: %v", err)
	}
	if got != -31337 {
		t.Errorf("key update changed plaintext: %d", got)
	}
}

func TestKeyUpdateProperty(t *testing.T) {
	s := testSecret(t)
	f := func(v int32) bool {
		ckA, err1 := s.NewColumnKey()
		ckC, err2 := s.NewColumnKey()
		if err1 != nil || err2 != nil {
			return false
		}
		tok, err := s.KeyUpdateToken(ckA, ckC)
		if err != nil {
			return false
		}
		r, err := s.NewRowID()
		if err != nil {
			return false
		}
		ve, err := s.EncryptInt64(int64(v), r, ckA)
		if err != nil {
			return false
		}
		got, err := s.DecryptInt64(ApplyToken(tok, ve, s.RowHelper(r), s.N()), r, ckC)
		return err == nil && got == int64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestAddViaCommonKey(t *testing.T) {
	// EE addition: key-update both operands to a common key, then add
	// shares. The common per-row item key factors out of the sum.
	s := testSecret(t)
	ckA, _ := s.NewColumnKey()
	ckB, _ := s.NewColumnKey()
	ckC, _ := s.NewColumnKey()
	tokA, _ := s.KeyUpdateToken(ckA, ckC)
	tokB, _ := s.KeyUpdateToken(ckB, ckC)

	r, _ := s.NewRowID()
	w := s.RowHelper(r)
	ae, _ := s.EncryptInt64(1000, r, ckA)
	be, _ := s.EncryptInt64(-1754, r, ckB)
	sum := AddShares(ApplyToken(tokA, ae, w, s.N()), ApplyToken(tokB, be, w, s.N()), s.N())
	got, err := s.DecryptInt64(sum, r, ckC)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if got != -754 {
		t.Errorf("1000 + (-1754) = %d, want -754", got)
	}
}

func TestSubViaCommonKey(t *testing.T) {
	s := testSecret(t)
	ckA, _ := s.NewColumnKey()
	ckB, _ := s.NewColumnKey()
	ckC, _ := s.NewColumnKey()
	tokA, _ := s.KeyUpdateToken(ckA, ckC)
	tokB, _ := s.KeyUpdateToken(ckB, ckC)
	r, _ := s.NewRowID()
	w := s.RowHelper(r)
	ae, _ := s.EncryptInt64(100, r, ckA)
	be, _ := s.EncryptInt64(58, r, ckB)
	diff := SubShares(ApplyToken(tokA, ae, w, s.N()), ApplyToken(tokB, be, w, s.N()), s.N())
	got, _ := s.DecryptInt64(diff, r, ckC)
	if got != 42 {
		t.Errorf("100-58 = %d, want 42", got)
	}
}

// TestAddPlaintextConstant: A + c adds a share of c under A's column key,
// minted per row by key-updating c's encoding (a share of c under ⟨1, 0⟩).
func TestAddPlaintextConstant(t *testing.T) {
	s := testSecret(t)
	ck, _ := s.NewColumnKey()
	tok, err := s.KeyUpdateToken(ColumnKey{M: big.NewInt(1), X: new(big.Int)}, ck)
	if err != nil {
		t.Fatal(err)
	}
	enc7, _ := s.domain.Encode(big.NewInt(7))
	r, _ := s.NewRowID()
	w := s.RowHelper(r)
	ae, _ := s.EncryptInt64(35, r, ck)
	sum := AddShares(ae, ApplyToken(tok, enc7, w, s.N()), s.N())
	got, _ := s.DecryptInt64(sum, r, ck)
	if got != 42 {
		t.Errorf("35+7 = %d, want 42", got)
	}
}

func TestRevealToken(t *testing.T) {
	s := testSecret(t)
	ck, _ := s.NewColumnKey()
	tok, err := s.RevealToken(ck)
	if err != nil {
		t.Fatalf("RevealToken: %v", err)
	}
	r, _ := s.NewRowID()
	w := s.RowHelper(r)
	ve, _ := s.EncryptInt64(-12345, r, ck)
	revealed := ApplyToken(tok, ve, w, s.N())
	if got := s.Domain().Decode(revealed); got.Int64() != -12345 {
		t.Errorf("reveal = %s, want -12345", got)
	}
}

func TestFlattenProducesDeterministicTags(t *testing.T) {
	// flatten = key update to a flat key: equal plaintexts yield equal
	// tags across rows (DET semantics for GROUP BY / JOIN), while at rest
	// the same plaintexts had unlinkable ciphertexts.
	s := testSecret(t)
	ck, _ := s.NewColumnKey()
	flat, _ := s.FlatKey()
	tok, _ := s.KeyUpdateToken(ck, flat)

	tagOf := func(v int64) string {
		r, _ := s.NewRowID()
		ve, _ := s.EncryptInt64(v, r, ck)
		return ApplyToken(tok, ve, s.RowHelper(r), s.N()).String()
	}
	if tagOf(5) != tagOf(5) {
		t.Error("equal plaintexts must map to equal flat tags")
	}
	if tagOf(5) == tagOf(6) {
		t.Error("distinct plaintexts must map to distinct flat tags")
	}
}

func TestSumViaFlatKey(t *testing.T) {
	// Server-side SUM: flatten the column, modular-sum the tags, decrypt
	// one share with the flat key.
	s := testSecret(t)
	ck, _ := s.NewColumnKey()
	flat, _ := s.FlatKey()
	tok, _ := s.KeyUpdateToken(ck, flat)

	vals := []int64{10, -3, 42, 0, 1000000, -57}
	var want int64
	shares := make([]*big.Int, len(vals))
	for i, v := range vals {
		r, _ := s.NewRowID()
		ve, _ := s.EncryptInt64(v, r, ck)
		shares[i] = ApplyToken(tok, ve, s.RowHelper(r), s.N())
		want += v
	}
	sum := SumShares(shares, s.N())
	got, err := s.DecryptFlat(sum, flat)
	if err != nil {
		t.Fatalf("DecryptFlat: %v", err)
	}
	if got.Int64() != want {
		t.Errorf("SUM = %s, want %d", got, want)
	}
}

func TestComparisonProtocol(t *testing.T) {
	// compare(A,B): key-update to a common key, subtract, multiply by an
	// encrypted random positive mask, reveal. Only sign(A−B) leaks.
	s := testSecret(t)
	ckA, _ := s.NewColumnKey()
	ckB, _ := s.NewColumnKey()
	ckR, _ := s.NewColumnKey()
	half := new(big.Int).Rsh(s.N(), 1)

	compare := func(a, b int64) int {
		tokB, _ := s.KeyUpdateToken(ckB, ckA)
		r, _ := s.NewRowID()
		w := s.RowHelper(r)
		ae, _ := s.EncryptInt64(a, r, ckA)
		be, _ := s.EncryptInt64(b, r, ckB)
		diff := SubShares(ae, ApplyToken(tokB, be, w, s.N()), s.N())

		mask, _ := s.NewMaskValue()
		me, _ := s.EncryptMask(mask, r, ckR)
		masked := Multiply(diff, me, s.N())

		prodKey := s.MulKeys(ckA, ckR)
		rev, _ := s.RevealToken(prodKey)
		return MaskedSign(ApplyToken(rev, masked, w, s.N()), half)
	}

	cases := []struct {
		a, b int64
		want int
	}{
		{5, 3, 1}, {3, 5, -1}, {7, 7, 0},
		{-10, -2, -1}, {-2, -10, 1}, {0, 0, 0},
		{1 << 40, 1<<40 - 1, 1},
	}
	for _, c := range cases {
		if got := compare(c.a, c.b); got != c.want {
			t.Errorf("compare(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestComparisonMasksMagnitude(t *testing.T) {
	// The revealed value must be (A−B)·R for random R, never A−B itself
	// (except with negligible probability R=1): run the protocol twice on
	// the same pair and require different revealed values.
	s := testSecret(t)
	ckA, _ := s.NewColumnKey()
	ckR, _ := s.NewColumnKey()
	r, _ := s.NewRowID()
	w := s.RowHelper(r)
	ae, _ := s.EncryptInt64(1000, r, ckA)
	be, _ := s.EncryptInt64(1, r, ckA) // same key already
	diff := SubShares(ae, be, s.N())

	reveal := func() string {
		mask, _ := s.NewMaskValue()
		me, _ := s.EncryptMask(mask, r, ckR)
		masked := Multiply(diff, me, s.N())
		rev, _ := s.RevealToken(s.MulKeys(ckA, ckR))
		return ApplyToken(rev, masked, w, s.N()).String()
	}
	if reveal() == reveal() {
		t.Error("two masked reveals of the same difference coincided; masking broken")
	}
}

func TestTokenDoesNotContainColumnKey(t *testing.T) {
	// The key-update token carries m_A·m_C⁻¹ and x_A−x_C; neither component
	// may equal a raw key component (overwhelmingly unlikely if derivation
	// is correct).
	s := testSecret(t)
	ckA, _ := s.NewColumnKey()
	ckC, _ := s.NewColumnKey()
	tok, _ := s.KeyUpdateToken(ckA, ckC)
	if tok.P.Cmp(ckA.M) == 0 || tok.P.Cmp(ckC.M) == 0 {
		t.Error("token leaked a raw m component")
	}
	diff := new(big.Int).Sub(ckA.X, ckC.X)
	if tok.Q.Cmp(diff) != 0 {
		t.Error("token Q should be exactly the x difference")
	}
	if tok.Q.Cmp(ckA.X) == 0 || tok.Q.Cmp(ckC.X) == 0 {
		t.Error("token leaked a raw x component")
	}
}

func TestKeyUpdateTokenValidation(t *testing.T) {
	s := testSecret(t)
	ck, _ := s.NewColumnKey()
	if _, err := s.KeyUpdateToken(ColumnKey{}, ck); err == nil {
		t.Error("expected error for invalid source key")
	}
	if _, err := s.RevealToken(ColumnKey{}); err == nil {
		t.Error("expected error for invalid reveal key")
	}
}

func TestMaskedSign(t *testing.T) {
	n := big.NewInt(101)
	half := new(big.Int).Rsh(n, 1) // 50
	if MaskedSign(big.NewInt(0), half) != 0 {
		t.Error("zero must have sign 0")
	}
	if MaskedSign(big.NewInt(3), half) != 1 {
		t.Error("small residue must be positive")
	}
	if MaskedSign(big.NewInt(99), half) != -1 {
		t.Error("large residue must be negative")
	}
}
