package secure

import (
	"errors"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"sdb/internal/bigmod"
)

func batchSecret(t testing.TB) *Secret {
	t.Helper()
	s, err := Setup(256, 32, 16)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	return s
}

// TestApplyTokenBatchMatchesScalar is the scalar-vs-batch differential:
// random tokens (positive Q, negative Q, Base) over random rows must
// produce byte-identical shares either way.
func TestApplyTokenBatchMatchesScalar(t *testing.T) {
	s := batchSecret(t)
	n := s.N()
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		q := new(big.Int).Rand(r, n)
		if trial%2 == 1 {
			q.Neg(q)
		}
		tok := Token{
			P:    new(big.Int).Rand(r, n),
			Q:    q,
			Base: trial%3 == 2,
		}
		rows := 37
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
		got, err := ApplyTokenBatch(tok, ves, ws, n)
		if err != nil {
			t.Fatalf("trial %d: batch: %v", trial, err)
		}
		for i := range ws {
			want := ApplyToken(tok, ves[i], ws[i], n)
			if got[i].Cmp(want) != 0 {
				t.Fatalf("trial %d row %d: batch %v != scalar %v", trial, i, got[i], want)
			}
		}
	}
}

func TestApplyTokenBatchEmpty(t *testing.T) {
	s := batchSecret(t)
	tok := Token{P: big.NewInt(3), Q: big.NewInt(-5)}
	out, err := ApplyTokenBatch(tok, nil, nil, s.N())
	if err != nil || out != nil {
		t.Fatalf("empty batch: got %v, %v; want nil, nil", out, err)
	}
}

func TestApplyTokenBatchBase(t *testing.T) {
	s := batchSecret(t)
	n := s.N()
	r := rand.New(rand.NewSource(12))
	tok := Token{P: new(big.Int).Rand(r, n), Q: new(big.Int).Rand(r, n), Base: true}
	ws := make([]*big.Int, 9)
	for i := range ws {
		rid, err := s.NewRowID()
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = s.RowHelper(rid)
	}
	// Base tokens ignore ves entirely; nil must be accepted.
	got, err := ApplyTokenBatch(tok, nil, ws, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		if want := ApplyToken(tok, nil, ws[i], n); got[i].Cmp(want) != 0 {
			t.Fatalf("row %d: batch %v != scalar %v", i, got[i], want)
		}
	}
}

// TestApplyTokenBatchNonInvertible: a negative-Q token over a helper that
// shares a factor with n must error — the scalar path returns nil there,
// and the batch must not silently hand back nil shares.
func TestApplyTokenBatchNonInvertible(t *testing.T) {
	n := big.NewInt(15) // 3·5, odd, so the Montgomery path is exercised
	tok := Token{P: big.NewInt(2), Q: big.NewInt(-1)}
	ves := []*big.Int{big.NewInt(2), big.NewInt(4)}
	ws := []*big.Int{big.NewInt(2), big.NewInt(5)} // gcd(5, 15) = 5
	if out := ApplyToken(tok, ves[1], ws[1], n); out != nil {
		t.Fatalf("scalar path: got %v, want nil for non-invertible helper", out)
	}
	out, err := ApplyTokenBatch(tok, ves, ws, n)
	if err == nil {
		t.Fatalf("batch path: got %v, want error", out)
	}
	if !errors.Is(err, bigmod.ErrNotInvertible) {
		t.Fatalf("batch error %v does not wrap ErrNotInvertible", err)
	}
}

func TestApplyTokenBatchLengthMismatch(t *testing.T) {
	s := batchSecret(t)
	tok := Token{P: big.NewInt(3), Q: big.NewInt(5)}
	_, err := ApplyTokenBatch(tok, []*big.Int{big.NewInt(1)}, []*big.Int{big.NewInt(1), big.NewInt(2)}, s.N())
	if err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

// TestApplierApplyMatchesApplyToken checks the scalar entry point of a
// long-lived applier, on first touch and memoised.
func TestApplierApplyMatchesApplyToken(t *testing.T) {
	s := batchSecret(t)
	n := s.N()
	r := rand.New(rand.NewSource(13))
	rid, err := s.NewRowID()
	if err != nil {
		t.Fatal(err)
	}
	w := s.RowHelper(rid)
	for trial := 0; trial < 4; trial++ {
		q := new(big.Int).Rand(r, n)
		if trial%2 == 1 {
			q.Neg(q)
		}
		tok := Token{P: new(big.Int).Rand(r, n), Q: q}
		a := NewTokenApplier(tok, n)
		// One helper, many shares: every application after the first
		// is a memo hit.
		for i := 0; i < 40; i++ {
			ve := new(big.Int).Rand(r, n)
			got, err := a.Apply(ve, w)
			if err != nil {
				t.Fatal(err)
			}
			if want := ApplyToken(tok, ve, w, n); got.Cmp(want) != 0 {
				t.Fatalf("trial %d iter %d: %v != %v", trial, i, got, want)
			}
		}
	}
}

func TestEncryptBatchMatchesScalar(t *testing.T) {
	s := batchSecret(t)
	ck, err := s.NewColumnKey()
	if err != nil {
		t.Fatal(err)
	}
	var reqs []EncRequest
	var want []*big.Int
	for i := 0; i < 20; i++ {
		rid, err := s.NewRowID()
		if err != nil {
			t.Fatal(err)
		}
		v := big.NewInt(int64(i*7 - 31))
		rq, err := s.NewEncRequest(v, rid, ck)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, rq)
		sc, err := s.Encrypt(v, rid, ck)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, sc)
	}
	got, err := s.EncryptBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Cmp(want[i]) != 0 {
			t.Fatalf("row %d: batch %v != scalar %v", i, got[i], want[i])
		}
	}
	if out, err := s.EncryptBatch(nil); err != nil || out != nil {
		t.Fatalf("empty encrypt batch: got %v, %v", out, err)
	}
}

// TestTokenStringRedacted: formatting a token must not leak P or Q.
func TestTokenStringRedacted(t *testing.T) {
	p, _ := new(big.Int).SetString("123456789123456789123456789", 10)
	q, _ := new(big.Int).SetString("987654321987654321987654321", 10)
	tok := Token{P: p, Q: q}
	str := tok.String()
	if strings.Contains(str, p.String()) || strings.Contains(str, q.String()) {
		t.Fatalf("Token.String() leaks key material: %s", str)
	}
	if !strings.Contains(str, "update") {
		t.Fatalf("Token.String() lost its kind: %s", str)
	}
	if got := (Token{P: p, Q: q, Base: true}).String(); !strings.Contains(got, "const") {
		t.Fatalf("Base token kind missing: %s", got)
	}
}

// TestMontBatchConcurrent exercises one shared applier from parallel
// goroutines (the engine's chunk workers share the applier of a compiled
// expression); run under -race by ci.sh's `-run Mont` pass.
func TestMontBatchConcurrent(t *testing.T) {
	s := batchSecret(t)
	n := s.N()
	r := rand.New(rand.NewSource(15))
	tok := Token{P: new(big.Int).Rand(r, n), Q: new(big.Int).Neg(new(big.Int).Rand(r, n))}
	a := NewTokenApplier(tok, n)
	rows := 64
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
	want, err := a.ApplyBatch(ves, ws)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(lo int) {
			got, err := a.ApplyBatch(ves[lo:lo+8], ws[lo:lo+8])
			if err != nil {
				done <- err
				return
			}
			for i := range got {
				if got[i].Cmp(want[lo+i]) != 0 {
					done <- errors.New("concurrent batch mismatch")
					return
				}
			}
			done <- nil
		}(g * 8)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
