package types

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func bigOf(a Int128) *big.Int {
	v := new(big.Int).Lsh(big.NewInt(a.Hi), 64)
	return v.Add(v, new(big.Int).SetUint64(a.Lo))
}

// owes reports whether (got, err) is the int64 v when v fits, an
// ErrOverflow when it does not.
func owes(got int64, err error, v *big.Int) bool {
	if v.IsInt64() {
		return err == nil && got == v.Int64()
	}
	return err == ErrOverflow
}

// TestInt128MatchesBig: sums built by Add and Merge in any grouping,
// their Int64 and their MeanX100 against math/big — at the int64 edges,
// the sums that wrap an int64 accumulator, and random ones.
func TestInt128MatchesBig(t *testing.T) {
	edges := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 62, -(1 << 62), 99, -101}
	counts := []int64{1, -1, 2, 3, -7, 100, 101, math.MaxInt64, math.MinInt64}
	r := rand.New(rand.NewSource(7))
	check := func(terms []int64) {
		t.Helper()
		var serial, left, right Int128
		want := new(big.Int)
		for i, v := range terms {
			serial.Add(v)
			if i%2 == 0 {
				left.Add(v)
			} else {
				right.Add(v)
			}
			want.Add(want, big.NewInt(v))
		}
		left.Merge(right)
		if bigOf(serial).Cmp(want) != 0 || left != serial {
			t.Fatalf("%v: serial %v, merged %v, want %v", terms, bigOf(serial), bigOf(left), want)
		}
		if got, err := serial.Int64(); !owes(got, err, want) {
			t.Fatalf("%v: Int64 = %d, %v", terms, got, err)
		}
		for _, c := range counts {
			mean := new(big.Int).Mul(want, big.NewInt(100))
			mean.Quo(mean, big.NewInt(c))
			if got, err := serial.MeanX100(c); !owes(got, err, mean) {
				t.Fatalf("%v / %d: MeanX100 = %d, %v; want %v", terms, c, got, err, mean)
			}
		}
	}
	for _, a := range edges {
		check([]int64{a})
		for _, b := range edges {
			check([]int64{a, b})
			check([]int64{a, b, a, b})
		}
	}
	for i := 0; i < 500; i++ {
		terms := make([]int64, 1+r.Intn(9))
		for j := range terms {
			terms[j] = r.Int63() - r.Int63()
			if r.Intn(4) == 0 {
				terms[j] = edges[r.Intn(len(edges))]
			}
		}
		check(terms)
	}
	if _, err := (Int128{}).MeanX100(0); err == nil {
		t.Fatal("a mean of zero rows")
	}
}

// TestInt128OfBig: the conversion from math/big is exact across the int128
// range and refuses one past either end.
func TestInt128OfBig(t *testing.T) {
	two127 := new(big.Int).Lsh(big.NewInt(1), 127)
	fits := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1), big.NewInt(math.MaxInt64), big.NewInt(math.MinInt64),
		new(big.Int).Lsh(big.NewInt(1), 64), new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(1), 64)),
		new(big.Int).Sub(two127, big.NewInt(1)), new(big.Int).Neg(two127),
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		fits = append(fits, new(big.Int).Sub(new(big.Int).Rand(r, two127), new(big.Int).Rand(r, two127)))
	}
	for _, v := range fits {
		if a, ok := Int128OfBig(v); !ok || bigOf(a).Cmp(v) != 0 {
			t.Fatalf("Int128OfBig(%v) = %v, %v", v, bigOf(a), ok)
		}
	}
	for _, v := range []*big.Int{two127, new(big.Int).Neg(new(big.Int).Add(two127, big.NewInt(1))), new(big.Int).Lsh(two127, 1), new(big.Int).Neg(new(big.Int).Lsh(two127, 1))} {
		if _, ok := Int128OfBig(v); ok {
			t.Fatalf("Int128OfBig(%v) fits", v)
		}
	}
}
