package secure

import (
	"errors"
	"math/big"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sdb/internal/bigmod"
)

// powerSetModuli are FuzzPowerSet's moduli, each with the factor 3 so that
// non-units exist: one limb, 512 bits (the interleaved multiply and the
// assembly-reduced square) and 1 100 bits (the hybrid multiply).
var powerSetModuli = sync.OnceValue(func() []*big.Int {
	r := rand.New(rand.NewSource(46))
	var ns []*big.Int
	for _, bits := range []int{60, 510, 1098} {
		n := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		n.SetBit(n, bits-1, 1).SetBit(n, 0, 1)
		ns = append(ns, n.Mul(n, big.NewInt(3)))
	}
	return ns
})

// FuzzPowerSet is the differential of the memo's one entry point: a helper
// (zero, one, n−1, past n, a non-unit, or any value) raised by one
// PowerSet to one to six exponents of either sign, from one bit wide to
// wider than n, first on whatever the memo holds and then again, warm.
// Every residue must equal ToMont(big.Int.Exp), and a non-unit helper must
// fail exactly when some exponent is negative, with the error ApplyToken's
// callers have always seen.
func FuzzPowerSet(f *testing.F) {
	f.Add(uint8(1), uint8(5), []byte{7}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3), uint8(0b1010))
	f.Add(uint8(0), uint8(4), []byte{2}, []byte{0x80, 1, 0xff}, uint8(2), uint8(0b10))
	f.Add(uint8(2), uint8(3), []byte{1, 0}, []byte{0xaa, 0x55, 0x12, 0x34}, uint8(0x83), uint8(0b101))
	f.Add(uint8(1), uint8(2), []byte{}, []byte{1}, uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, mod, kind uint8, wb, qb []byte, e, signs uint8) {
		if len(qb) > 512 || len(wb) > 256 {
			t.Skip() // keep an iteration's chain short
		}
		mods := powerSetModuli()
		n := mods[int(mod)%len(mods)]
		ctx := bigmod.MontCtxFor(n)
		v := new(big.Int).SetBytes(wb)
		var w *big.Int
		switch kind % 6 {
		case 0:
			w = new(big.Int)
		case 1:
			w = big.NewInt(1)
		case 2:
			w = new(big.Int).Sub(n, big.NewInt(1))
		case 3:
			w = v.Add(v, n)
		case 4:
			w = v.Mul(v.Add(v, big.NewInt(1)), big.NewInt(3)) // shares 3 with n
		default:
			w = v
		}
		qs := make([]*big.Int, 1+int(e%6))
		per := (len(qb) + len(qs) - 1) / len(qs)
		for j := range qs {
			lo, hi := min(j*per, len(qb)), min((j+1)*per, len(qb))
			q := new(big.Int).SetBytes(qb[lo:hi])
			if q.Sign() == 0 {
				q.SetInt64(int64(j + 1))
			}
			if j == 0 && e&0x80 != 0 {
				q.Lsh(q, uint(n.BitLen())) // wider than n
			}
			if signs>>j&1 != 0 {
				q.Neg(q)
			}
			qs[j] = q
		}
		refused := false
		for _, q := range qs {
			refused = refused || new(big.Int).Exp(w, q, n) == nil
		}
		ps := NewPowerSet(n, qs...)
		ms := ctx.NewScratch()
		for _, pass := range []string{"first", "again"} {
			own, out := make([][]big.Word, len(qs)), make([][]big.Word, len(qs))
			var hits int64
			err := ps.Powers(ms, &hits, w, own, out)
			FlushHelperPowerHits(&hits)
			if refused {
				if err == nil || !errors.Is(err, bigmod.ErrNotInvertible) || err.Error() != errNotInvertible().Error() {
					t.Fatalf("%s: w = %v, exponents %v mod %v: error %v, want %v", pass, w, qs, n, err, errNotInvertible())
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: w = %v, exponents %v mod %v: %v", pass, w, qs, n, err)
			}
			for j, q := range qs {
				if want := ctx.ToMont(ms, new(big.Int).Exp(w, q, n)); !slices.Equal(out[j], want) {
					t.Fatalf("%s: w = %v, exponent %v mod %v: %x, want %x", pass, w, q, n, out[j], want)
				}
			}
		}
	})
}
