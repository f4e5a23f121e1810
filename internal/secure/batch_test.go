package secure

import (
	"errors"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"sdb/internal/bigmod"
	"sdb/internal/race"
)

func batchSecret(t testing.TB) *Secret {
	t.Helper()
	s, err := Setup(256, 32, 16)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	return s
}

// TestApplyTokenBatchMatchesScalar: random tokens (positive Q, negative Q)
// over random rows must produce byte-identical shares through the
// batch entry point and row by row.
func TestApplyTokenBatchMatchesScalar(t *testing.T) {
	s := batchSecret(t)
	n := s.N()
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		q := new(big.Int).Rand(r, n)
		if trial%2 == 1 {
			q.Neg(q)
		}
		tok := Token{P: new(big.Int).Rand(r, n), Q: q}
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

	// Real key-update tokens at the widths the Montgomery core splits on
	// (CIOS below 16 limbs, the hybrid product from 16), over shares of
	// stored rows: A→B and B→A carry opposite-sign Q, and the batch runs
	// first on an empty helper-power memo, so it exponentiates (and, for
	// negative Q, inverts) every row itself.
	for _, bits := range []int{512, 1024} {
		s, err := Setup(bits, DefaultValueBits, DefaultMaskBits)
		if err != nil {
			t.Fatal(err)
		}
		n := s.N()
		ckA, _ := s.NewColumnKey()
		ckB, _ := s.NewColumnKey()
		ves := make([]*big.Int, 64)
		ws := make([]*big.Int, len(ves))
		for i := range ves {
			rid, err := s.NewRowID()
			if err != nil {
				t.Fatal(err)
			}
			ws[i] = s.RowHelper(rid)
			if ves[i], err = s.EncryptInt64(int64(i*31-500), rid, ckA); err != nil {
				t.Fatal(err)
			}
		}
		for _, pair := range [][2]ColumnKey{{ckA, ckB}, {ckB, ckA}} {
			tok, err := s.KeyUpdateToken(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			ResetHelperPowers()
			got, err := ApplyTokenBatch(tok, ves, ws, n)
			if err != nil {
				t.Fatalf("%d bits, Q sign %d: batch: %v", bits, tok.Q.Sign(), err)
			}
			for i := range ves {
				if want := ApplyToken(tok, ves[i], ws[i], n); got[i] == nil || want == nil || got[i].Cmp(want) != 0 {
					t.Fatalf("%d bits, Q sign %d, row %d: batch share diverges from the scalar one", bits, tok.Q.Sign(), i)
				}
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

func TestEncryptBatchMatchesScalar(t *testing.T) {
	wide, err := Setup(1024, DefaultValueBits, DefaultMaskBits) // 16 limbs: the hybrid multiply
	if err != nil {
		t.Fatal(err)
	}
	even, err := SetupFromPrimes(big.NewInt(2), mersenne(127), big.NewInt(65537), 32, 16) // no Montgomery form
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Secret{"256-bit": batchSecret(t), "1024-bit": wide, "even": even} {
		var cks [2]ColumnKey
		for i := range cks {
			if cks[i], err = s.NewColumnKey(); err != nil {
				t.Fatal(err)
			}
		}
		var reqs []EncRequest
		var want []*big.Int
		for i := 0; i < 20; i++ {
			rid, err := s.NewRowID()
			if err != nil {
				t.Fatal(err)
			}
			ck := cks[i%3%2] // two keys, interleaved unevenly
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
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want {
			if got[i].Cmp(want[i]) != 0 {
				t.Fatalf("%s row %d: batch %v != scalar %v", name, i, got[i], want[i])
			}
		}
		if out, err := s.EncryptBatch(nil); err != nil || out != nil {
			t.Fatalf("%s: empty encrypt batch: got %v, %v", name, out, err)
		}
	}
}

// TestEncryptBatchAllocs: EncryptBatch resolves a column key's comb table
// once per batch, not once per request, and keeps its item keys, their
// batch inversion and the products in the Montgomery domain, in pooled
// scratch. So a warm batch of 64 requests under one key allocates a few
// times per batch (the one ModInverse, the resolved key, the output) and
// nothing per share: at most half an allocation per share holds it there.
// (Not under -race, where sync.Pool drops entries at random.)
func TestEncryptBatchAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race")
	}
	s := batchSecret(t)
	ck, err := s.NewColumnKey()
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	reqs := make([]EncRequest, n)
	for i := range reqs {
		rid, err := s.NewRowID()
		if err != nil {
			t.Fatal(err)
		}
		if reqs[i], err = s.NewEncRequest(big.NewInt(int64(i-n/2)), rid, ck); err != nil {
			t.Fatal(err)
		}
		s.ItemKey(rid, ck) // builds the table: the batches below are warm
	}
	batch := testing.AllocsPerRun(20, func() {
		if _, err := s.EncryptBatch(reqs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("EncryptBatch of %d same-key requests: %v allocations", n, batch)
	if limit := float64(n) / 2; batch > limit {
		t.Fatalf("EncryptBatch of %d same-key requests: %v allocations, want <= %v (half a one per share)",
			n, batch, limit)
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
}
