package solver

import (
	"math"
	"math/big"
	"testing"
)

func bigInt(s string) *big.Rat {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		panic(s)
	}
	return r
}

// fits reports whether r belongs in the int64 half.
func fits(r *big.Rat) bool {
	return r.Num().IsInt64() && r.Denom().IsInt64() && r.Num().Int64() != math.MinInt64
}

// checkRat fails unless got is want in canonical representation.
func checkRat(t *testing.T, what string, got rat, want *big.Rat) {
	t.Helper()
	if got.big().Cmp(want) != 0 {
		t.Errorf("%s = %s, want %s", what, got.big().RatString(), want.RatString())
	}
	if (got.b == nil) != fits(want) {
		t.Errorf("%s = %s: promoted=%v, but fits int64=%v", what, want.RatString(), got.b != nil, fits(want))
	}
	if got.b == nil && (got.d <= 0 || gcd64(got.n, got.d) != 1) {
		t.Errorf("%s = %d/%d is not reduced", what, got.n, got.d)
	}
}

// TestRatInt64Edges pins the promotion rule where it bites: at the ends
// of int64, one bit past them, and on the way back.
func TestRatInt64Edges(t *testing.T) {
	max, min := ratInt(math.MaxInt64), ratInt(math.MinInt64)
	two62, two31, two32 := ratInt(1<<62), ratInt(1<<31), ratInt(1<<32)

	checkRat(t, "MinInt64", min, bigInt("-9223372036854775808"))
	checkRat(t, "-MinInt64", min.neg(), bigInt("9223372036854775808"))
	checkRat(t, "-(-MinInt64)", min.neg().neg(), bigInt("-9223372036854775808"))
	checkRat(t, "-MaxInt64", max.neg(), bigInt("-9223372036854775807"))
	checkRat(t, "MaxInt64+1", max.add(ratOne), bigInt("9223372036854775808"))
	checkRat(t, "MaxInt64+1-1", max.add(ratOne).sub(ratOne), bigInt("9223372036854775807"))
	checkRat(t, "-MaxInt64-1", max.neg().sub(ratOne), bigInt("-9223372036854775808"))
	checkRat(t, "MinInt64+1", min.add(ratOne), bigInt("-9223372036854775807"))

	// Products that fit exactly, and that overflow by one bit.
	checkRat(t, "2^31·2^31", two31.mul(two31), bigInt("4611686018427387904"))
	checkRat(t, "2^32·2^31", two32.mul(two31), bigInt("9223372036854775808"))
	checkRat(t, "-2^32·2^31", two32.neg().mul(two31), bigInt("-9223372036854775808"))
	checkRat(t, "(2^32-1)·(2^31+1)", ratInt(1<<32-1).mul(ratInt(1<<31+1)), bigInt("9223372039002259455"))
	checkRat(t, "2^62+2^62", two62.add(two62), bigInt("9223372036854775808"))
	checkRat(t, "2^62+(2^62-1)", two62.add(ratInt(1<<62-1)), bigInt("9223372036854775807"))

	// A promoted intermediate reduces and comes back: 2^62/3 · 3/2 = 2^61,
	// and stays promoted when the reduced value still does not fit.
	third := two62.mul(ratInt(3).inv())
	checkRat(t, "2^62/3", third, bigInt("4611686018427387904/3"))
	checkRat(t, "2^62/3·3/2", third.mul(rat{n: 3, d: 2}), bigInt("2305843009213693952"))
	checkRat(t, "2^62/3·6", third.mul(ratInt(6)), bigInt("9223372036854775808"))
	checkRat(t, "1/(2^62/3)", third.inv(), bigInt("3/4611686018427387904"))
	checkRat(t, "1/-(2^62/3)", third.neg().inv(), bigInt("-3/4611686018427387904"))
	// Denominators overflow too.
	tiny := two62.inv()
	checkRat(t, "2^-62·2^-1", tiny.mul(rat{n: 1, d: 2}), bigInt("1/9223372036854775808"))
	checkRat(t, "2^-62·2^-1·4", tiny.mul(rat{n: 1, d: 2}).mul(ratInt(4)), bigInt("1/2305843009213693952"))
	checkRat(t, "2^-62+1/3", tiny.add(rat{n: 1, d: 3}), bigInt("4611686018427387907/13835058055282163712"))

	if !max.add(ratOne).equal(min.neg()) || max.add(ratOne).equal(max) || max.equal(max.add(ratOne)) {
		t.Error("equal disagrees with the values across the promotion edge")
	}
	if h1, h2 := max.add(ratOne).hash(0), min.neg().hash(0); h1 != h2 {
		t.Error("equal promoted values hash differently")
	}
	if v, ok := min.int64(); !ok || v != math.MinInt64 {
		t.Errorf("MinInt64.int64() = %d, %v", v, ok)
	}
	if _, ok := min.neg().int64(); ok {
		t.Error("2^63 claims to fit int64")
	}
	if _, ok := third.int64(); ok {
		t.Error("2^62/3 claims to be an integer")
	}
}

// TestRatMatchesBig runs every operation over the cross product of a
// value set dense around 0, ±2^31, ±2^62 and ±2^63 and compares each
// result, and its representation, with math/big.
func TestRatMatchesBig(t *testing.T) {
	var ints []int64
	for _, c := range []int64{0, 1 << 31, 1 << 32, 1 << 62, math.MaxInt64} {
		for d := int64(-2); d <= 2; d++ {
			if c+d >= c || d < 0 { // skip what wraps past MaxInt64
				ints = append(ints, c+d, -(c + d))
			}
		}
	}
	ints = append(ints, math.MinInt64)
	var vals []rat
	for _, n := range ints {
		vals = append(vals, ratInt(n))
		for _, d := range []int64{2, 3, 1 << 31, 1<<62 + 1} {
			vals = append(vals, ratBig(big.NewRat(n, d)))
		}
	}
	sign := func(x int) int {
		switch {
		case x < 0:
			return -1
		case x > 0:
			return 1
		}
		return 0
	}
	for _, a := range vals {
		A := a.big()
		checkRat(t, "neg", a.neg(), new(big.Rat).Neg(A))
		floor := a.floor()
		if !floor.isInt() || floor.cmp(a) > 0 || floor.add(ratOne).cmp(a) <= 0 {
			t.Errorf("floor(%s) = %s", A.RatString(), floor.big().RatString())
		}
		ceil := a.ceil()
		if !ceil.isInt() || ceil.cmp(a) < 0 || ceil.sub(ratOne).cmp(a) >= 0 {
			t.Errorf("ceil(%s) = %s", A.RatString(), ceil.big().RatString())
		}
		if a.sign() != A.Sign() || a.isInt() != A.IsInt() {
			t.Errorf("sign/isInt(%s) = %d/%v", A.RatString(), a.sign(), a.isInt())
		}
		if a.sign() != 0 {
			checkRat(t, "inv", a.inv(), new(big.Rat).Inv(A))
		}
		for _, b := range vals {
			B := b.big()
			checkRat(t, A.RatString()+"+"+B.RatString(), a.add(b), new(big.Rat).Add(A, B))
			checkRat(t, A.RatString()+"-"+B.RatString(), a.sub(b), new(big.Rat).Sub(A, B))
			checkRat(t, A.RatString()+"·"+B.RatString(), a.mul(b), new(big.Rat).Mul(A, B))
			if got, want := a.cmp(b), sign(A.Cmp(B)); got != want {
				t.Errorf("cmp(%s, %s) = %d, want %d", A.RatString(), B.RatString(), got, want)
			}
			if a.equal(b) != (A.Cmp(B) == 0) {
				t.Errorf("equal(%s, %s) = %v", A.RatString(), B.RatString(), a.equal(b))
			}
		}
	}
}
