package minidb

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

func TestDatumCmpInts(t *testing.T) {
	f := func(a, b int32) bool {
		c := I64(int64(a)).Cmp(I64(int64(b)))
		switch {
		case a < b:
			return c < 0
		case a > b:
			return c > 0
		}
		return c == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDatumCmpStrings(t *testing.T) {
	f := func(a, b string) bool {
		c := Str(a).Cmp(Str(b))
		switch {
		case a < b:
			return c < 0
		case a > b:
			return c > 0
		}
		return c == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDatumCmpMixedNumeric(t *testing.T) {
	// Int and Real compare numerically across kinds.
	if I64(2).Cmp(Real(big.NewRat(5, 2))) >= 0 {
		t.Error("2 < 5/2")
	}
	if RealInt(3).Cmp(I64(3)) != 0 {
		t.Error("3 (Real) == 3 (Int)")
	}
	if !I64(4).Equal(Real(big.NewRat(8, 2))) {
		t.Error("4 == 8/2")
	}
}

func TestDatumNullOrdering(t *testing.T) {
	n := NullDatum(KInt)
	if n.Cmp(I64(-1<<62)) >= 0 {
		t.Error("NULL sorts before every value")
	}
	if n.Cmp(NullDatum(KStr)) != 0 {
		t.Error("NULL == NULL regardless of kind")
	}
	if !n.Equal(NullDatum(KInt)) {
		t.Error("NULL equals NULL")
	}
}

// TestKeyCmpLexicographic: composite keys order lexicographically, with
// a proper prefix sorting first.
func TestKeyCmpLexicographic(t *testing.T) {
	f := func(a1, a2, b1, b2 int16) bool {
		ka := Key{I64(int64(a1)), I64(int64(a2))}
		kb := Key{I64(int64(b1)), I64(int64(b2))}
		c := ka.Cmp(kb)
		want := 0
		switch {
		case a1 != b1:
			want = sign(int64(a1) - int64(b1))
		case a2 != b2:
			want = sign(int64(a2) - int64(b2))
		}
		return sign(int64(c)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Prefix ordering.
	if (Key{I64(1)}).Cmp(Key{I64(1), I64(0)}) >= 0 {
		t.Error("(1) < (1,0)")
	}
	if (Key{I64(1), I64(0)}).Cmp(Key{I64(1)}) <= 0 {
		t.Error("(1,0) > (1)")
	}
}

func sign(v int64) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

// TestKeyCmpTotalOrder: antisymmetry and transitivity over random keys.
func TestKeyCmpTotalOrder(t *testing.T) {
	mk := func(a, b int8) Key { return Key{I64(int64(a)), Str(string(rune('a' + int(b)%26)))} }
	f := func(a1, b1, a2, b2, a3, b3 int8) bool {
		x, y, z := mk(a1, b1), mk(a2, b2), mk(a3, b3)
		if sign(int64(x.Cmp(y))) != -sign(int64(y.Cmp(x))) {
			return false
		}
		if x.Cmp(y) <= 0 && y.Cmp(z) <= 0 && x.Cmp(z) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDatumString(t *testing.T) {
	cases := map[string]Datum{
		"NULL":  NullDatum(KInt),
		"7":     I64(7),
		"3/2":   Real(big.NewRat(3, 2)),
		"'abc'": Str("abc"),
	}
	for want, d := range cases {
		if got := d.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", d, got, want)
		}
	}
}

// Key is a composite index key, ordered lexicographically: the test-side
// oracle of the encoded keys the trees hold (cmpKey, FuzzKeyOrder).
type Key []Datum

// Cmp lexicographically orders keys. A shorter key that is a prefix of a
// longer one sorts first, which makes prefix scans natural.
func (k Key) Cmp(o Key) int {
	for i := 0; i < len(k) && i < len(o); i++ {
		if c := k[i].Cmp(o[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(k), len(o))
}

// String renders the key for messages. It is not a name: ("a','b", "c")
// and ("a", "b','c") print alike.
func (k Key) String() string {
	parts := make([]string, len(k))
	for i, d := range k {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// encKey is the key's tree key and lock-table name.
func encKey(k Key) string {
	var b []byte
	for _, d := range k {
		b = appendKeyField(b, d)
	}
	return string(b)
}

// keyHasPrefix is the field-wise prefix test scans made before keys were
// encoded.
func keyHasPrefix(k, pfx Key) bool {
	return len(k) >= len(pfx) && k[:len(pfx)].Cmp(pfx) == 0
}

// fuzzKey decodes a key from fuzz bytes, one datum per selector byte and
// the bytes it takes: column i holds numerics where cols[i] is even and
// strings elsewhere, and NULLs of every kind anywhere. Numerics are small
// (so keys collide and Ints meet equal Reals), at the int64 edges, or
// outside int64; strings are up to 31 bytes, any bytes.
func fuzzKey(cols, b []byte) Key {
	take := func(n int) []byte {
		n = min(n, len(b))
		v := b[:n]
		b = b[n:]
		return v
	}
	word := func() int64 {
		var w [8]byte
		copy(w[:], take(8))
		return int64(binary.BigEndian.Uint64(w[:]))
	}
	small := func() int64 {
		var w [1]byte
		copy(w[:], take(1))
		return int64(int8(w[0]))
	}
	var k Key
	for i := 0; i < len(cols) && len(b) > 0; i++ {
		sel := take(1)[0]
		var d Datum
		switch {
		case sel%8 == 0:
			d = NullDatum(Kind(sel / 8 % 3))
		case cols[i]%2 == 1:
			d = Str(string(take(int(sel / 8))))
		case sel%8 == 1:
			d = I64(small())
		case sel%8 == 2:
			d = RealInt(small())
		case sel%8 == 3:
			d = Real(big.NewRat(small(), 1+int64(sel/8%4)))
		case sel%8 == 4:
			d = I64([]int64{math.MinInt64, math.MinInt64 + 1, -1, 0, math.MaxInt64 - 1, math.MaxInt64}[sel/8%6])
		case sel%8 == 5:
			r := new(big.Rat).SetInt64(math.MaxInt64)
			if sel&8 != 0 {
				r.Neg(r)
			}
			d = Real(r.Add(r, big.NewRat(int64(sel/16%4)-1, 2))) // ±(2⁶³-1) plus -1/2, 0, 1/2 or 1
		case sel%8 == 6:
			d = I64(word())
		default:
			r := new(big.Rat).SetInt64(word())
			d = Real(r.Mul(r, big.NewRat(1<<62, 1+int64(sel/8%3))))
		}
		k = append(k, d)
	}
	return k
}

// FuzzKeyOrder checks the encoding against its oracle. For keys a and b:
// cmpKey orders their encodings as Key.Cmp orders them, the encodings are
// equal exactly when the keys compare equal, and a byte prefix is a
// field-wise prefix (for every prefix of b). A row encoding of a decodes
// to a, datum by datum: nullness, kind and value.
func FuzzKeyOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, cols, ab, bb []byte) {
		a, b := fuzzKey(cols, ab), fuzzKey(cols, bb)
		ea, eb := encKey(a), encKey(b)
		if got, want := cmpKey(ea, eb), a.Cmp(b); cmp.Compare(got, 0) != cmp.Compare(want, 0) {
			t.Errorf("cmpKey(%v, %v) = %d, Key.Cmp = %d", a, b, got, want)
		}
		if (ea == eb) != (a.Cmp(b) == 0) {
			t.Errorf("%v and %v: equal encodings %t, Cmp %d", a, b, ea == eb, a.Cmp(b))
		}
		for n := 0; n <= len(b); n++ {
			if got, want := strings.HasPrefix(ea, encKey(b[:n])), keyHasPrefix(a, b[:n]); got != want {
				t.Errorf("%v has prefix %v: encoded %t, keyHasPrefix %t", a, b[:n], got, want)
			}
		}
		var row []byte
		for _, d := range a {
			row = appendRowField(row, d)
		}
		db := &DB{rats: map[string]*big.Rat{}}
		got := db.decodeRow(nil, string(row))
		if len(got) != len(a) {
			t.Fatalf("row %v decodes to %v", a, got)
		}
		for i, d := range a {
			g := got[i]
			same := g.Null == d.Null && g.Kind == d.Kind
			if same && !d.Null {
				switch d.Kind {
				case KInt:
					same = g.I == d.I
				case KReal:
					same = g.R.Cmp(d.R) == 0
				case KStr:
					same = g.S == d.S
				}
			}
			if !same {
				t.Errorf("row %v: cell %d decodes to %#v", a, i, g)
			}
		}
	})
}

// TestRatInternBounded decodes more distinct decimals than the intern
// table keeps: the table stays within maxRats and every decimal still
// decodes to its value.
func TestRatInternBounded(t *testing.T) {
	db := &DB{rats: map[string]*big.Rat{}}
	for i := range 3 * maxRats {
		want := big.NewRat(int64(i), 7)
		got := db.decodeRow(nil, string(appendRowField(nil, Real(want))))
		if got[0].R.Cmp(want) != 0 {
			t.Fatalf("decimal %v decodes to %v", want, got[0].R)
		}
		if len(db.rats) > maxRats {
			t.Fatalf("intern table holds %d decimals, cap %d", len(db.rats), maxRats)
		}
	}
}
