package solver

import (
	"math"
	"math/big"
	"math/bits"
	"sync/atomic"
)

// rat is an exact rational held by value. The common half is a reduced
// int64 fraction n/d with d > 0 and |n| ≤ MaxInt64 (so negation cannot
// overflow); every operation on it is overflow-checked, and a result that
// does not fit is promoted to an immutable *big.Rat. A promoted result
// that fits again is demoted, so equal values have equal representations
// and rows can be hashed and compared field by field.
type rat struct {
	n, d int64
	b    *big.Rat // non-nil exactly when the value does not fit n/d
}

var (
	ratZero = rat{d: 1}
	ratOne  = rat{n: 1, d: 1}
)

// promotions counts operations that left the int64 half; tests read it to
// check that they exercise the promoted half.
var promotions atomic.Int64

func ratInt(v int64) rat {
	if v == math.MinInt64 {
		return rat{b: new(big.Rat).SetInt64(v)}
	}
	return rat{n: v, d: 1}
}

// ratBig wraps r, which the caller must not modify afterwards.
func ratBig(r *big.Rat) rat {
	if n, d := r.Num(), r.Denom(); n.IsInt64() && d.IsInt64() && n.Int64() != math.MinInt64 {
		return rat{n: n.Int64(), d: d.Int64()}
	}
	return rat{b: r}
}

// big returns the value as a *big.Rat the caller must not modify.
func (a rat) big() *big.Rat {
	if a.b != nil {
		return a.b
	}
	return new(big.Rat).SetFrac64(a.n, a.d)
}

// add64 and mul64 report ok=false when the exact result is outside
// [-MaxInt64, MaxInt64].
func add64(a, b int64) (int64, bool) {
	c := a + b
	return c, (c > a) == (b > 0) && c != math.MinInt64
}

func mul64(a, b int64) (int64, bool) {
	if int64(int32(a)) == a && int64(int32(b)) == b {
		return a * b, true
	}
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua = -ua
	}
	if b < 0 {
		ub = -ub
	}
	hi, lo := bits.Mul64(ua, ub)
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// frac reduces n/d (d > 0) to a small rat.
func frac(n, d int64) rat {
	if g := gcd64(n, d); g > 1 {
		n, d = n/g, d/g
	}
	return rat{n: n, d: d}
}

func (a rat) add(b rat) rat {
	if a.b == nil && b.b == nil {
		if a.d == 1 && b.d == 1 {
			if s, ok := add64(a.n, b.n); ok {
				return rat{n: s, d: 1}
			}
		} else if x, ok := mul64(a.n, b.d); ok {
			if y, ok := mul64(b.n, a.d); ok {
				if n, ok := add64(x, y); ok {
					if d, ok := mul64(a.d, b.d); ok {
						return frac(n, d)
					}
				}
			}
		}
	}
	promotions.Add(1)
	return ratBig(new(big.Rat).Add(a.big(), b.big()))
}

func (a rat) sub(b rat) rat { return a.add(b.neg()) }

func (a rat) mul(b rat) rat {
	if a.b == nil && b.b == nil {
		if n, ok := mul64(a.n, b.n); ok {
			if a.d == 1 && b.d == 1 {
				return rat{n: n, d: 1}
			}
			if d, ok := mul64(a.d, b.d); ok {
				return frac(n, d)
			}
		}
	}
	promotions.Add(1)
	return ratBig(new(big.Rat).Mul(a.big(), b.big()))
}

func (a rat) neg() rat {
	if a.b != nil {
		return rat{b: new(big.Rat).Neg(a.b)} // fits exactly when a does
	}
	return rat{n: -a.n, d: a.d}
}

// inv returns 1/a; a must be nonzero.
func (a rat) inv() rat {
	switch {
	case a.b != nil:
		return ratBig(new(big.Rat).Inv(a.b))
	case a.n < 0:
		return rat{n: -a.d, d: -a.n}
	}
	return rat{n: a.d, d: a.n}
}

func (a rat) sign() int {
	if a.b != nil {
		return a.b.Sign()
	}
	switch {
	case a.n > 0:
		return 1
	case a.n < 0:
		return -1
	}
	return 0
}

func (a rat) isInt() bool {
	if a.b != nil {
		return a.b.IsInt()
	}
	return a.d == 1
}

// int64 returns the value when it is an integer in int64 range.
func (a rat) int64() (int64, bool) {
	if a.b != nil {
		return a.b.Num().Int64(), a.b.IsInt() && a.b.Num().IsInt64()
	}
	return a.n, a.d == 1
}

func (a rat) cmp(b rat) int {
	if a.b == nil && b.b == nil {
		x, y, ok := a.n, b.n, true
		if a.d != b.d {
			if x, ok = mul64(a.n, b.d); ok {
				y, ok = mul64(b.n, a.d)
			}
		}
		if ok {
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		}
	}
	return a.big().Cmp(b.big())
}

// equal is cmp == 0; representations are canonical, so it compares fields.
func (a rat) equal(b rat) bool {
	if a.b != nil && b.b != nil {
		return a.b.Cmp(b.b) == 0
	}
	return a.b == nil && b.b == nil && a.n == b.n && a.d == b.d
}

// floor and ceil round to the neighbouring integer.
func (a rat) floor() rat {
	if a.b != nil {
		q := new(big.Int).Quo(a.b.Num(), a.b.Denom()) // truncates toward zero
		if a.b.Sign() < 0 && !a.b.IsInt() {
			q.Sub(q, big.NewInt(1))
		}
		return ratBig(new(big.Rat).SetInt(q))
	}
	q := a.n / a.d
	if a.n < 0 && a.n%a.d != 0 {
		q--
	}
	return rat{n: q, d: 1}
}

func (a rat) ceil() rat { return a.neg().floor().neg() }

// hash folds the value into h (FNV-1a over 64-bit words).
func (a rat) hash(h uint64) uint64 {
	if a.b != nil {
		for _, c := range a.b.RatString() {
			h = hashWord(h, uint64(c))
		}
		return h
	}
	return hashWord(hashWord(h, uint64(a.n)), uint64(a.d))
}

func hashWord(h, w uint64) uint64 { return (h ^ w) * 1099511628211 }
