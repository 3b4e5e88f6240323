// Package minidb is an in-memory SQL database engine with InnoDB-style
// locking. It stands in for MySQL 5.7 in the paper's evaluation: it
// executes the Fig. 6 statement subset over B-tree indexes, acquires
// record, gap, next-key, and insert-intention locks during index
// traversal, runs strict two-phase locking, and handles deadlocks with
// the detect-and-recover strategy (wait-for-graph cycle detection and
// victim abort) whose performance cost WeSEER exists to eliminate.
package minidb

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"strings"

	"weseer/internal/schema"
)

// Kind is a runtime value kind.
type Kind uint8

// Datum kinds.
const (
	KInt Kind = iota
	KReal
	KStr
)

// Datum is a concrete SQL value, possibly NULL.
type Datum struct {
	Null bool
	Kind Kind
	I    int64
	R    *big.Rat
	S    string
}

// NullDatum returns the NULL value of the given kind.
func NullDatum(k Kind) Datum { return Datum{Null: true, Kind: k} }

// I64 returns an integer datum.
func I64(v int64) Datum { return Datum{Kind: KInt, I: v} }

// Str returns a string datum.
func Str(s string) Datum { return Datum{Kind: KStr, S: s} }

// Real returns a decimal datum (r is not copied; callers treat datums as
// immutable).
func Real(r *big.Rat) Datum { return Datum{Kind: KReal, R: r} }

// RealInt returns a decimal datum with an integral value.
func RealInt(v int64) Datum { return Datum{Kind: KReal, R: big.NewRat(v, 1)} }

func (d Datum) String() string {
	if d.Null {
		return "NULL"
	}
	switch d.Kind {
	case KInt:
		return fmt.Sprintf("%d", d.I)
	case KReal:
		return d.R.RatString()
	case KStr:
		return fmt.Sprintf("'%s'", d.S)
	}
	return "<bad datum>"
}

// numeric reports whether the datum is Int or Real.
func (d Datum) numeric() bool { return d.Kind == KInt || d.Kind == KReal }

func (d Datum) rat() *big.Rat {
	if d.Kind == KInt {
		return new(big.Rat).SetInt64(d.I)
	}
	return d.R
}

// Cmp totally orders datums: NULL sorts before everything; numerics
// compare numerically across Int/Real; strings compare bytewise. Kinds
// must otherwise match (schema typing guarantees it).
func (d Datum) Cmp(o Datum) int {
	switch {
	case d.Null && o.Null:
		return 0
	case d.Null:
		return -1
	case o.Null:
		return 1
	}
	if d.numeric() && o.numeric() {
		if d.Kind == KInt && o.Kind == KInt {
			switch {
			case d.I < o.I:
				return -1
			case d.I > o.I:
				return 1
			}
			return 0
		}
		return d.rat().Cmp(o.rat())
	}
	if d.Kind == KStr && o.Kind == KStr {
		return strings.Compare(d.S, o.S)
	}
	panic(fmt.Sprintf("minidb: comparing %v with %v", d.Kind, o.Kind))
}

// Equal reports datum equality under Cmp; NULL equals only NULL.
func (d Datum) Equal(o Datum) bool { return d.Cmp(o) == 0 }

// Key is a composite index key, ordered lexicographically.
type Key []Datum

// Cmp lexicographically orders keys. A shorter key that is a prefix of a
// longer one sorts first, which makes prefix scans natural.
func (k Key) Cmp(o Key) int {
	n := len(k)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := k[i].Cmp(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(k) < len(o):
		return -1
	case len(k) > len(o):
		return 1
	}
	return 0
}

// String renders the key for messages. It is not a name: ("a','b", "c")
// and ("a", "b','c") print alike. The lock table uses appendKey.
func (k Key) String() string {
	parts := make([]string, len(k))
	for i, d := range k {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// appendKey appends the key's lock-table name: one tagged, self-delimiting
// field per datum, so distinct index entries never share a name. Numerics
// that compare equal are one entry in the tree and encode alike; NULLs of
// every kind are one value. No real key encodes to the empty string.
func appendKey(b []byte, k Key) []byte {
	for _, d := range k {
		switch {
		case d.Null:
			b = append(b, 'N')
		case d.Kind == KStr:
			b = append(binary.AppendUvarint(append(b, 'S'), uint64(len(d.S))), d.S...)
		case d.Kind == KInt:
			b = binary.BigEndian.AppendUint64(append(b, 'I'), uint64(d.I))
		case d.R.IsInt() && d.R.Num().IsInt64():
			b = binary.BigEndian.AppendUint64(append(b, 'I'), uint64(d.R.Num().Int64()))
		default:
			s := d.R.RatString()
			b = append(binary.AppendUvarint(append(b, 'R'), uint64(len(s))), s...)
		}
	}
	return b
}

// KindOf maps a schema column type to the datum kind.
func KindOf(t schema.ColType) Kind {
	switch t {
	case schema.Int:
		return KInt
	case schema.Decimal:
		return KReal
	case schema.Varchar:
		return KStr
	}
	panic("minidb: unknown column type")
}

// Row is a stored row: values aligned with the table's column order.
type Row []Datum

// clone returns a deep-enough copy (datums are immutable).
func (r Row) clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
